"""Enumeration kernels over the bitmask tables of one program.

There is one implementation, in ``python``, and every semantics searches
through it.  ``enum_fixpoints`` finds the rule sets that are fixpoints of a
reduct by deciding which removal columns a set hits.  It propagates before
it branches: a partial decision bounds every completion between two least
fixpoints, which reject the branch or decide more columns, and it branches
on one column only when nothing more follows (the alternating fixpoint of
Van Gelder, PODS 1989).  ``enum_closed`` scans all 2^n rule subsets for
the self-supporting ones, and ``minpos`` computes one least fixpoint.

The tables are described in ``python``: ``pos_masks`` marks a body
literal that no rule derives with one sentinel bit, and ``minpos`` takes
``free``, the rules with an empty positive body (``free_rules``), and
returns a set of them at once.  Each kernel walks the set bits of its masks, not all n
rules.
"""

from . import python as _active

BACKEND = "python"

minpos = _active.minpos
enum_fixpoints = _active.enum_fixpoints
enum_closed = _active.enum_closed
free_rules = _active.free_rules
