"""The saturation ``build_model`` used before the compiled rule index.

Kept verbatim as the differential reference for ``elhlearn.reasoner``: it
rescans every element in sorted order after each change and recomputes the
rule data on every firing, so it is slow but plainly correct.  The fast
saturation must give the same ``labels`` and ``edges`` as this one, down to
the key order of both dicts and the order of each element's edges.
"""

from __future__ import annotations

from typing import Sequence

from elhlearn.reasoner import Edge, Element, RegularModel
from elhlearn.syntax import (
    ABox,
    And,
    Atom,
    Concept,
    ContractViolationError,
    Exists,
    TBox,
    Top,
    canonical,
    is_terminology,
    top_atoms,
    top_existentials,
)
from reference_roles import superroles


def _existential_fillers(t: TBox) -> dict[str, Concept]:
    """Fillers of existentials nested in right-hand sides of name-lhs CIs."""
    out: dict[str, Concept] = {}

    def walk(c: Concept) -> None:
        if isinstance(c, Exists):
            key = canonical(c.filler)
            if key not in out:
                out[key] = c.filler
                walk(c.filler)
        elif isinstance(c, And):
            for a in c.args:
                walk(a)

    for ci in t.cis:
        if isinstance(ci.lhs, (Atom, Top)):
            walk(ci.rhs)
    return out


def _eval_concept(
    labels: dict[Element, frozenset[str] | set[str]],
    edges: dict[Element, Sequence[Edge]],
    el: Element,
    c: Concept,
) -> bool:
    if isinstance(c, Top):
        return True
    if isinstance(c, Atom):
        return c.name in labels[el]
    if isinstance(c, And):
        return all(_eval_concept(labels, edges, el, a) for a in c.args)
    if isinstance(c, Exists):
        for roles, tgt in edges[el]:
            if c.role in roles and _eval_concept(labels, edges, tgt, c.filler):
                return True
        return False
    raise TypeError(f"not a concept: {c!r}")


def build_model(t: TBox, a: ABox) -> RegularModel:
    """Saturate the regular presentation of the least model of ``(t, a)``."""
    if not is_terminology(t):
        raise ContractViolationError("model construction expects a terminology")
    fillers = _existential_fillers(t)

    labels: dict[Element, set[str]] = {}
    edges: dict[Element, list[Edge]] = {}

    for key, f in fillers.items():
        el: Element = ("a", key)
        labels[el] = set(top_atoms(f))
        edges[el] = []
        for ex in top_existentials(f):
            edge = (superroles(t, ex.role), ("a", canonical(ex.filler)))
            if edge not in edges[el]:
                edges[el].append(edge)

    for ind in sorted(a.individuals()):
        el = ("n", ind)
        labels[el] = {n for n, i in a.concept_assertions if i == ind}
        edges[el] = []
    pair_roles: dict[tuple[str, str], set[str]] = {}
    for role, x, y in a.role_assertions:
        pair_roles.setdefault((x, y), set()).update(superroles(t, role))
    for (x, y), roles in sorted(pair_roles.items()):
        edges[("n", x)].append((frozenset(roles), ("n", y)))

    name_cis = sorted(
        (ci for ci in t.cis if isinstance(ci.lhs, (Atom, Top))),
        key=lambda ci: (canonical(ci.lhs), canonical(ci.rhs)),
    )
    complex_cis = sorted(
        (ci for ci in t.cis if not isinstance(ci.lhs, (Atom, Top))),
        key=lambda ci: (canonical(ci.lhs), canonical(ci.rhs)),
    )

    def fire(el: Element) -> bool:
        changed = False
        for ci in name_cis:
            applies = isinstance(ci.lhs, Top) or ci.lhs.name in labels[el]
            if not applies:
                continue
            for name in top_atoms(ci.rhs):
                if name not in labels[el]:
                    labels[el].add(name)
                    changed = True
            for ex in top_existentials(ci.rhs):
                edge = (superroles(t, ex.role), ("a", canonical(ex.filler)))
                if edge not in edges[el]:
                    edges[el].append(edge)
                    changed = True
        for ci in complex_cis:
            name = ci.rhs.name  # terminology: complex lhs forces atomic rhs
            if name not in labels[el] and _eval_concept(labels, edges, el, ci.lhs):
                labels[el].add(name)
                changed = True
        return changed

    order = sorted(labels)
    while True:
        if not any(fire(el) for el in order):
            break

    return RegularModel(
        {el: frozenset(ls) for el, ls in labels.items()},
        {el: tuple(es) for el, es in edges.items()},
    )
