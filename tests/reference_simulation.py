"""The simulation code as it was before the single refinement engine.

Four separate fixpoint sweeps, kept verbatim as the reference that
``tests/test_simulation.py`` compares ``elhlearn.reasoner`` against:
``_greatest_simulation`` (behind ``simulation``), ``bisimilar``,
``is_simulation`` and ``_elimination_rounds`` (behind ``separating_witness``,
which reruns the whole sweep for every pair it is asked about), and the
``inseparability_gap`` that called it once per individual and direction.

It also keeps ``Interpretation`` and ``abox_interpretation``, the explicit
graph of an ABox that ``updates.check_bisim_preservation`` bisimulated
before it read an ABox as its model over the empty TBox.

``repr_read`` and ``product_separating_witness`` are ``_read`` and
``separating_witness`` as they were before each model was read once, with
its elements sorted by value, and before the witness refinement was seeded
with the pairs reachable from the anchors: elements sorted by ``repr``, and
one refinement of the full product of the two graphs.

The witnesses are built as ``syntax.Tree`` values, as the package's are
(they were ``reasoner.BundleTree``), so that the two compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from elhlearn import reasoner
from elhlearn.reasoner import (
    LANG_AQ,
    LANG_CQR,
    ABox,
    AtomicQuery,
    Tree,
    ConceptQuery,
    ModelCache,
    Query,
    Separation,
    TBox,
    _aq_closure,
    build_model,
    signature_of_abox,
    signature_of_tbox,
)


@dataclass
class Interpretation:
    """Explicit finite interpretation with an individual assignment."""

    domain: frozenset
    concept_ext: dict[str, frozenset]
    role_ext: dict[str, frozenset]
    ind_map: dict[str, object] = field(default_factory=dict)

    def elements(self) -> Iterable:
        return self.domain

    def label_of(self, el) -> frozenset[str]:
        return frozenset(a for a, ext in self.concept_ext.items() if el in ext)

    def successors(self, el) -> list[tuple[frozenset[str], object]]:
        per_target: dict[object, set[str]] = {}
        for r, ext in self.role_ext.items():
            for d, e in ext:
                if d == el:
                    per_target.setdefault(e, set()).add(r)
        return sorted(
            ((frozenset(rs), tgt) for tgt, rs in per_target.items()),
            key=lambda it: (sorted(it[0]), repr(it[1])),
        )


def abox_interpretation(a: ABox) -> Interpretation:
    concept_ext: dict[str, set] = {}
    for name, ind in a.concept_assertions:
        concept_ext.setdefault(name, set()).add(ind)
    role_ext: dict[str, set] = {}
    for role, x, y in a.role_assertions:
        role_ext.setdefault(role, set()).add((x, y))
    inds = a.individuals()
    return Interpretation(
        frozenset(inds),
        {k: frozenset(v) for k, v in concept_ext.items()},
        {k: frozenset(v) for k, v in role_ext.items()},
        {i: i for i in inds},
    )


def _graph(view) -> tuple[list, Callable, Callable]:
    els = sorted(view.elements(), key=repr)
    return els, view.label_of, view.successors


def _greatest_simulation(gi, gj, bundles: bool) -> set[tuple]:
    ei, li, si = _graph(gi)
    ej, lj, sj = _graph(gj)
    sim = {(d, e) for d in ei for e in ej if li(d) <= lj(e)}

    def matches(d, e) -> bool:
        for roles, d1 in si(d):
            if bundles:
                ok = any(
                    roles <= roles2 and (d1, e1) in sim for roles2, e1 in sj(e)
                )
                if not ok:
                    return False
            else:
                for r in roles:
                    ok = any(r in roles2 and (d1, e1) in sim for roles2, e1 in sj(e))
                    if not ok:
                        return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(sim, key=repr):
            if not matches(*pair):
                sim.discard(pair)
                changed = True
    return sim


def simulation(gi, d, gj, e, bundles: bool = False) -> frozenset | None:
    """Greatest simulation containing ``(d, e)``, or None if there is none."""
    sim = _greatest_simulation(gi, gj, bundles)
    return frozenset(sim) if (d, e) in sim else None


def bisimilar(gi, d, gj, e) -> frozenset | None:
    """Greatest bisimulation containing ``(d, e)``, or None."""
    ei, li, si = _graph(gi)
    ej, lj, sj = _graph(gj)
    rel = {(x, y) for x in ei for y in ej if li(x) == lj(y)}

    def matches(x, y) -> bool:
        for roles, x1 in si(x):
            for r in roles:
                if not any(r in roles2 and (x1, y1) in rel for roles2, y1 in sj(y)):
                    return False
        for roles, y1 in sj(y):
            for r in roles:
                if not any(r in roles2 and (x1, y1) in rel for roles2, x1 in si(x)):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel, key=repr):
            if not matches(*pair):
                rel.discard(pair)
                changed = True
    return frozenset(rel) if (d, e) in rel else None


def is_simulation(rel: Iterable[tuple], gi, gj) -> bool:
    """Verify the simulation conditions for an explicit relation."""
    rel = set(rel)
    if not rel:
        return False
    _, li, si = _graph(gi)
    _, lj, sj = _graph(gj)
    for d, e in rel:
        if not li(d) <= lj(e):
            return False
        for roles, d1 in si(d):
            for r in roles:
                if not any(r in roles2 and (d1, e1) in rel for roles2, e1 in sj(e)):
                    return False
    return True


@dataclass
class _Rounds:
    eliminated: dict[tuple, int]
    reason: dict[tuple, object]


def _elimination_rounds(gi, gj, bundles: bool) -> _Rounds:
    ei, li, si = _graph(gi)
    ej, lj, sj = _graph(gj)
    eliminated: dict[tuple, int] = {}
    reason: dict[tuple, object] = {}
    for d in ei:
        for e in ej:
            extra = sorted(li(d) - lj(e))
            if extra:
                eliminated[(d, e)] = 0
                reason[(d, e)] = ("atom", extra[0])
    alive = {(d, e) for d in ei for e in ej if (d, e) not in eliminated}
    rnd = 0
    changed = True
    while changed:
        changed = False
        rnd += 1
        for d, e in sorted(alive, key=repr):
            for roles, d1 in si(d):
                cands = sj(e)
                if bundles:
                    blocked = all(
                        not (roles <= roles2) or ((d1, e1) in eliminated)
                        for roles2, e1 in cands
                    )
                    if blocked:
                        failures = [
                            (roles2, e1) for roles2, e1 in cands if roles <= roles2
                        ]
                        eliminated[(d, e)] = rnd
                        reason[(d, e)] = ("edge", roles, d1, tuple(failures))
                        break
                else:
                    hit = False
                    for r in sorted(roles):
                        matched = any(
                            r in roles2 and (d1, e1) not in eliminated
                            for roles2, e1 in cands
                        )
                        if not matched:
                            failures = [
                                (frozenset({r}), e1)
                                for roles2, e1 in cands
                                if r in roles2
                            ]
                            eliminated[(d, e)] = rnd
                            reason[(d, e)] = ("edge", frozenset({r}), d1, tuple(failures))
                            hit = True
                            break
                    if hit:
                        break
            else:
                continue
            alive.discard((d, e))
            changed = True
    return _Rounds(eliminated, reason)


def _witness(rounds: _Rounds, pair: tuple, memo: dict | None = None) -> Tree:
    if memo is None:
        memo = {}
    if pair in memo:
        return memo[pair]
    kind = rounds.reason[pair]
    if kind[0] == "atom":
        tree = Tree(frozenset({kind[1]}))
    else:
        _, roles, d1, failures = kind
        merged_labels: set[str] = set()
        children: list[tuple[frozenset[str], Tree]] = []
        for _, e1 in failures:
            sub = _witness(rounds, (d1, e1), memo)
            merged_labels |= sub.labels
            children.extend(sub.children)
        tree = Tree(
            frozenset(), ((roles, Tree(frozenset(merged_labels), tuple(children))),)
        )
    memo[pair] = tree
    return tree


def separating_witness(gi, d, gj, e, bundles: bool = False) -> Tree | None:
    """A tree query true at ``d`` in ``gi`` but not at ``e`` in ``gj``."""
    rounds = _elimination_rounds(gi, gj, bundles)
    if (d, e) not in rounds.eliminated:
        return None
    return _witness(rounds, (d, e))


# The gap as it was: ``separating_witness`` once per individual and direction.
def inseparability_gap(
    t: TBox,
    h: TBox,
    a: ABox,
    lang: str,
    cache: ModelCache | None = None,
    limit: int | None = None,
) -> list[Separation]:
    """Deterministically ordered separating queries; empty means inseparable.

    Instance-query separations are detected per individual via mutual
    simulations between the two regular models; rooted-CQ separations use
    bundle matching, which also catches several roles forced on one edge.
    """
    sig = signature_of_tbox(t).union(signature_of_tbox(h)).union(signature_of_abox(a))
    out: list[Separation] = []

    def push(sep: Separation) -> bool:
        out.append(sep)
        return limit is not None and len(out) >= limit

    tc, tr = _aq_closure(t, a, sig, cache)
    hc, hr = _aq_closure(h, a, sig, cache)
    for name, i in sorted(tc ^ hc):
        q: Query = AtomicQuery(name, (i,))
        if push(Separation(q, (name, i) in tc)):
            return out
    for role, x, y in sorted(tr ^ hr):
        q = AtomicQuery(role, (x, y))
        if push(Separation(q, (role, x, y) in tr)):
            return out
    if lang == LANG_AQ:
        return out

    bundles = lang == LANG_CQR
    mt = cache.get(t, a) if cache else build_model(t, a)
    mh = cache.get(h, a) if cache else build_model(h, a)
    for ind in sorted(a.individuals()):
        el = ("n", ind)
        for first, gi, gj in ((True, mt, mh), (False, mh, mt)):
            witness = separating_witness(gi, el, gj, el, bundles=bundles)
            if witness is None:
                continue
            concept = witness.concept()
            if concept is not None:
                q = ConceptQuery(concept, ind)
            else:
                q = witness.cq(ind)
            if push(Separation(q, first)):
                return out
    return out


# ``_read`` and ``separating_witness`` as they were before the reachable seed.
def repr_read(view, bundles: bool) -> tuple[list, dict, dict, dict]:
    """Sorted elements, labels, edges and the edges to match, read once.

    Without bundles an edge is matched role by role, so it is split into one
    singleton edge per role, in sorted role order.
    """
    els = sorted(view.elements(), key=repr)
    labels = {x: view.label_of(x) for x in els}
    edges = {x: tuple(view.successors(x)) for x in els}
    if bundles:
        return els, labels, edges, edges
    wants = {
        x: tuple((frozenset({r}), x1) for roles, x1 in out for r in sorted(roles))
        for x, out in edges.items()
    }
    return els, labels, edges, wants


def product_separating_witness(gi, anchors: Iterable, gj, bundles: bool = False) -> dict:
    """``{d: tree}`` for each anchor ``d`` at which ``gj`` does not simulate ``gi``.

    The tree query is true at ``d`` in ``gi`` but not at ``d`` in ``gj``.
    All witnesses are read from one refinement.
    """
    reason = reasoner._refine(gi, gj, bundles)[1]
    memo: dict = {}
    return {d: reasoner._witness(reason, (d, d), memo) for d in anchors if (d, d) in reason}
