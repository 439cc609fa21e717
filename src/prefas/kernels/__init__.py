"""Enumeration kernels over the bitmask tables of one program.

There is one implementation, in ``python``, and every semantics searches
through it.  ``enum_fixpoints`` finds the rule sets that are fixpoints of a
reduct by guessing which removal columns a set hits instead of scanning all
2^n rule subsets.  ``enum_closed`` scans the rule subsets for the
self-supporting ones, and ``minpos`` computes one least fixpoint.
"""

from . import python as _active

BACKEND = "python"

minpos = _active.minpos
enum_fixpoints = _active.enum_fixpoints
enum_closed = _active.enum_closed
