"""Reference copy of the linear-derivation closure, one model per subsumption.

``linear_derivation``, ``_one_step_targets``, ``_assertion_targets`` and
``enumerate_closure`` are the versions that asked ``entails_ci`` once per
name pair and recomputed the one-step maps for every assertion, verbatim
apart from imports.  ``linear_derivation`` is also the tests' definition of
a linear derivation, since ``updates`` keeps only the one-model form that
``_one_step_targets`` reads.  ``in_generalised_closure`` is the membership
oracle of the closure: it is only used by tests, so it lives here.

``check_bisim_preservation`` is the version that bisimulated the explicit
interpretations of the two ABoxes (``reference_simulation``), verbatim apart
from imports.

``generalise``, ``_generalise_pass`` and ``_is_concept_name_change`` are the
versions that filed each weakening as a name or a role step after the fact,
by comparing the role names of the old and the new left-hand side, verbatim
apart from imports.  A role swap that keeps the set of roles was filed as a
name step; the package's walk tags each weakening as it makes it.  Inside
``patched()`` the package's update learner runs with this ``generalise``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

import pytest

from reference_roles import entails_ri
from reference_simulation import abox_interpretation
from elhlearn import reasoner, updates
from elhlearn.learn_aq import MAX_ROUNDS, CachedOracle
from elhlearn.learn_iq import name_order
from elhlearn.syntax import (
    ABox,
    And,
    Atom,
    AtomicQuery,
    BudgetExceededError,
    CI,
    Concept,
    ConfigurationError,
    ContractViolationError,
    Exists,
    TBox,
    TOP,
    Top,
    Tree,
    canonical,
    conj,
    normalize,
    signature_of_concept,
    signature_of_tbox,
    terminology,
)


def linear_derivation(t: TBox, x: str, y: str, kind: str = "concept") -> bool:
    """x steps to y when y follows from x and dominates everything x implies."""
    sig = signature_of_tbox(t)
    if kind == "concept":
        names = sorted(sig.concept_names | {x, y})
        entails = lambda p, q: reasoner.entails_ci(t, Atom(p), Atom(q))
    elif kind == "role":
        names = sorted(sig.role_names | {x, y})
        entails = lambda p, q: entails_ri(t, p, q)
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


def check_bisim_preservation(t: TBox, h: TBox, a0: ABox, a: ABox) -> bool:
    """True when the update is covered by bisimilarity with old individuals.

    Preconditions (checked): same role inclusions over the joint signature,
    and instance-query inseparability on the original ABox.
    """
    roles = signature_of_tbox(t).union(signature_of_tbox(h)).role_names
    for r in sorted(roles):
        for s in sorted(roles):
            if entails_ri(t, r, s) != entails_ri(h, r, s):
                raise ContractViolationError("preservation check needs equal role inclusions")
    if reasoner.inseparable(t, h, a0, reasoner.LANG_IQ) is not None:
        raise ContractViolationError(
            "preservation check needs inseparability on the original ABox"
        )
    rel = reasoner.bisimilar(abox_interpretation(a), abox_interpretation(a0))
    return a.individuals() <= {b for b, _ in rel}


def generalise(oracle: CachedOracle, h: TBox, atomic_cis: set[CI]) -> TBox:
    """Exhaustively weaken complex left-hand sides, membership-checked.

    Only inclusions with a concept name on the right are touched; the run
    costs a number of steps polynomial in the signature and hypothesis size.
    """
    name_up = name_order(atomic_cis)
    role_up = reasoner.role_closure(h.ris)
    roles = sorted(oracle.framework.signature.role_names)

    def entailed_by_target(lhs: Concept, rhs_name: str) -> bool:
        enc, root = Tree.of_concept(lhs).abox()
        return oracle.membership(enc, AtomicQuery(rhs_name, (root,)))

    new_cis: set[CI] = set()
    for ci in sorted(h.cis, key=lambda x: (canonical(x.lhs), canonical(x.rhs))):
        if not isinstance(ci.rhs, Atom) or isinstance(ci.lhs, (Atom, Top)):
            # name-on-the-left inclusions (atomic ones included) stay as-is;
            # weakening them would lose the very subsumptions that make the
            # complex replacements consequence-preserving
            new_cis.add(ci)
            continue
        lhs = normalize(ci.lhs)
        rhs_name = ci.rhs.name
        steps = 0
        while True:
            steps += 1
            if steps > MAX_ROUNDS:
                raise BudgetExceededError("generalisation did not stabilise")
            stepped = _generalise_pass(lhs, rhs_name, name_up, role_up, roles, entailed_by_target)
            if stepped is None:
                break
            lhs = stepped
        new_cis.add(CI(lhs, Atom(rhs_name)))
    return terminology(new_cis, h.ris)


def _generalise_pass(
    lhs: Concept,
    rhs_name: str,
    name_up: reasoner.Closure,
    role_up: reasoner.Closure,
    roles: list[str],
    entailed_by_target: Callable[[Concept, str], bool],
) -> Concept | None:
    """One accepted replacement by a strictly weaker name (first) or role, or None."""

    def candidates(c: Concept) -> Iterator[Concept]:
        if isinstance(c, Atom):
            yield TOP
            for b in sorted(name_up[c.name]):
                if c.name not in name_up[b]:
                    yield Atom(b)
        elif isinstance(c, Exists):
            for s in roles:
                if s in role_up[c.role] and c.role not in role_up[s]:
                    yield Exists(s, c.filler)
            for inner in candidates(c.filler):
                yield Exists(c.role, inner)
        elif isinstance(c, And):
            for i, part in enumerate(c.args):
                for inner in candidates(part):
                    yield normalize(conj(*c.args[:i], inner, *c.args[i + 1 :]))

    concept_first: list[Concept] = []
    role_later: list[Concept] = []
    for cand in candidates(lhs):
        cand = normalize(cand)
        if canonical(cand) == canonical(lhs):
            continue
        (concept_first if _is_concept_name_change(lhs, cand) else role_later).append(cand)
    for cand in concept_first + role_later:
        if entailed_by_target(cand, rhs_name):
            return cand
    return None


def _is_concept_name_change(old: Concept, new: Concept) -> bool:
    return signature_of_concept(old).role_names == signature_of_concept(new).role_names


@contextlib.contextmanager
def patched():
    """Run the package's update learner with the reference ``generalise``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(updates, "generalise", generalise)
        yield
