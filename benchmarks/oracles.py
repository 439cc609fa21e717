"""Reference answers from the independent oracles, never from the fast paths
under test.

  as   ``base.gl_answer_sets``: candidates over head literals, each checked
       with the classic reduct and least model
  d    the definition: every rule subset R with R = minpos(reduct_d(P, R)),
       with the object-level ``base.minpos``
  gno  the transform route that ``transform.check_correspondence`` checks
       against: answer sets of the rewritten plain program, projected
  g    the definition over stable fragment sets: for every generating set R
       (by ``base.is_generating``), E = the fragments inside R (by
       ``fragments.is_fragment``) must be fixed by the fragment reduct
       without preferences, and is preferred when fixed with them.  The
       reduct is written out here over label sets, with the object-level
       ``fragments.overrides``, not the mask-level solver the fast path uses.
"""

from __future__ import annotations

from typing import Iterator

from prefas.base import Bounds, gl_answer_sets, is_consistent, is_generating, minpos
from prefas.direct import reduct_d
from prefas.fragments import is_fragment, overrides
from prefas.syntax import Literal, PrefProgram
from prefas.transform import project, transform, transformed_answer_sets


def _subsets(labels: tuple[str, ...]) -> Iterator[frozenset[str]]:
    for mask in range(1 << len(labels)):
        yield frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)


def _heads(p: PrefProgram, labels) -> frozenset[Literal]:
    return frozenset(p.rule(l).head for l in labels)


def answer_sets(p: PrefProgram, bounds: Bounds) -> set[frozenset[Literal]]:
    return set(gl_answer_sets(p, bounds))


def preferred_d(p: PrefProgram) -> set[frozenset[Literal]]:
    out = set()
    for r in _subsets(p.labels()):
        if minpos(reduct_d(p, r)) == r:
            heads = _heads(p, r)
            if is_consistent(heads):
                out.add(heads)
    return out


def preferred_gno(p: PrefProgram, bounds: Bounds) -> set[frozenset[Literal]]:
    t = transform(p)
    return {project(a, t) for a in transformed_answer_sets(t, bounds)}


def preferred_g(p: PrefProgram) -> set[frozenset[Literal]]:
    labels = p.labels()
    frags = [t for t in _subsets(labels) if is_fragment(p, t)]
    heads = {t: _heads(p, t) for t in frags}
    neg = {t: frozenset(a for l in t for a in p.rule(l).neg_body) for t in frags}

    def reduct(e, prefs: bool) -> set[frozenset[str]]:
        # X survives unless a member Y of e defeats it and X does not override Y
        return {
            x for x in frags
            if not any(neg[x] & heads[y] and not (prefs and overrides(p, x, y)) for y in e)
        }

    out = set()
    for r in _subsets(labels):
        if not is_generating(p, r):
            continue
        e = {t for t in frags if t <= r}
        if reduct(e, prefs=False) != e:
            raise AssertionError(f"generating set {sorted(r)} is not a stable fragment set")
        fixed = _heads(p, frozenset().union(*e))
        if reduct(e, prefs=True) == e and is_consistent(fixed):
            out.add(fixed)
    return out


def reference_families(p: PrefProgram, semantics, bounds: Bounds) -> dict[str, set]:
    """Oracle families for each name in ``semantics`` (``as``, ``d``,
    ``gno``, ``g``)."""
    compute = {
        "as": lambda: answer_sets(p, bounds),
        "d": lambda: preferred_d(p),
        "gno": lambda: preferred_gno(p, bounds),
        "g": lambda: preferred_g(p),
    }
    return {name: compute[name]() for name in semantics}
