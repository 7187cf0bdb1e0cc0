"""Reference copy of the linear-derivation closure, one model per subsumption.

``linear_derivation``, ``_one_step_targets``, ``_assertion_targets`` and
``enumerate_closure`` are the versions that asked ``entails_ci`` once per
name pair and recomputed the one-step maps for every assertion, verbatim
apart from imports.  ``linear_derivation`` is also the tests' definition of
a linear derivation, since ``updates`` keeps only the one-model form that
``_one_step_targets`` reads.  ``in_generalised_closure`` is the membership
oracle of the closure: it is only used by tests, so it lives here.
"""

from __future__ import annotations

from typing import Iterator

from elhlearn import reasoner
from elhlearn.syntax import ABox, Atom, ConfigurationError, TBox, signature_of_tbox


def linear_derivation(t: TBox, x: str, y: str, kind: str = "concept") -> bool:
    """x steps to y when y follows from x and dominates everything x implies."""
    sig = signature_of_tbox(t)
    if kind == "concept":
        names = sorted(sig.concept_names | {x, y})
        entails = lambda p, q: reasoner.entails_ci(t, Atom(p), Atom(q))
    elif kind == "role":
        names = sorted(sig.role_names | {x, y})
        entails = lambda p, q: reasoner.entails_ri(t, p, q)
    else:
        raise ConfigurationError(f"unknown kind {kind!r}")
    if not entails(x, y):
        return False
    return all(entails(z, y) for z in names if entails(x, z))


def _one_step_targets(t: TBox) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    sig = signature_of_tbox(t)
    cmap = {
        a: {b for b in sorted(sig.concept_names) if b != a and linear_derivation(t, a, b)}
        for a in sorted(sig.concept_names)
    }
    rmap = {
        r: {s for s in sorted(sig.role_names) if s != r and linear_derivation(t, r, s, "role")}
        for r in sorted(sig.role_names)
    }
    return cmap, rmap


def _assertion_targets(t: TBox, assertion: tuple) -> list[tuple]:
    cmap, rmap = _one_step_targets(t)
    if len(assertion) == 2:
        name, ind = assertion
        return [(b, ind) for b in sorted(cmap.get(name, ()))]
    role, x, y = assertion
    return [(s, x, y) for s in sorted(rmap.get(role, ()))]


def in_generalised_closure(t: TBox, a0: ABox, a: ABox) -> bool:
    """Is ``a`` reachable from ``a0`` by single linear-derivation replacements?

    Reachability reduces to covering: the one-step relation is transitively
    closed, so some order of replacements realizes any assignment that maps
    every original assertion onto some final assertion it can reach, hitting
    all of them.  Declared-only individuals must agree, and no step touches
    individuals.
    """
    if a.individuals() != a0.individuals():
        return False
    cmap, rmap = _one_step_targets(t)

    def reach(src: tuple, dst: tuple) -> bool:
        if src == dst:
            return True
        if len(src) != len(dst):
            return False
        if len(src) == 2:
            return src[1] == dst[1] and dst[0] in cmap.get(src[0], ())
        return src[1:] == dst[1:] and dst[0] in rmap.get(src[0], ())

    sources = sorted(a0.concept_assertions) + sorted(a0.role_assertions)
    targets = sorted(a.concept_assertions) + sorted(a.role_assertions)
    if len(targets) > len(sources):
        return False

    options = [[j for j, dst in enumerate(targets) if reach(src, dst)] for src in sources]
    if any(not opts for opts in options):
        return False

    # every source picks a reachable target; every target must be picked
    def assign(i: int, hit: set[int]) -> bool:
        if i == len(sources):
            return len(hit) == len(targets)
        remaining = len(sources) - i
        if len(targets) - len(hit) > remaining:
            return False
        for j in options[i]:
            if assign(i + 1, hit | {j}):
                return True
        return False

    return assign(0, set())


def enumerate_closure(t: TBox, a0: ABox, cap: int = 200) -> Iterator[ABox]:
    """Members of the reachable family besides ``a0`` itself, capped."""
    seen = {reasoner.abox_key(a0)}
    frontier = [a0]
    produced = 0
    while frontier and produced < cap:
        current = frontier.pop(0)
        steps: list[ABox] = []
        for ca in sorted(current.concept_assertions):
            for repl in _assertion_targets(t, ca):
                steps.append(
                    ABox(
                        (current.concept_assertions - {ca}) | {repl},
                        current.role_assertions,
                        current.declared,
                    )
                )
        for ra in sorted(current.role_assertions):
            for repl in _assertion_targets(t, ra):
                steps.append(
                    ABox(
                        current.concept_assertions,
                        (current.role_assertions - {ra}) | {repl},
                        current.declared,
                    )
                )
        for nxt in steps:
            key = reasoner.abox_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            produced += 1
            yield nxt
            if produced >= cap:
                return
            frontier.append(nxt)
