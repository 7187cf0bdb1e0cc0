"""Tree shaping as it was when every minimization round searched its witness.

``minimize_abox`` saturated the ABox, searched the first positive
``(conceptName, individual)`` itself (original individuals first) and
repeated its removal passes until nothing changed; ``tree_shape`` and
``tree_inclusion`` returned the witness that search found, and the update
repair ``update_step`` called ``tree_inclusion`` without one.  They are kept
verbatim, apart from the imports, as the reference that
``tests/test_tree_shape.py`` compares the one-witness, one-pass shaping of
``elhlearn.learn_aq`` against.  Inside ``patched()`` the package's learners
run with them.
"""

from __future__ import annotations

import contextlib
import importlib

import pytest

from elhlearn import updates
from elhlearn.learn_aq import (
    BUDGET_DEGREE_AQ,
    MAX_ROUNDS,
    CachedOracle,
    LearnResult,
    _individual_order,
    _record_iteration,
    check_budget,
    find_cycle,
    saturate_with_hypothesis,
    unfold_cycle,
)
from elhlearn.learn_iq import Run, concept_query, iq_step
from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    BudgetExceededError,
    CI,
    Query,
    StructuralError,
    TBox,
    Tree,
    normalize,
    terminology,
)
from elhlearn.updates import _failing_atom, generalise

# the package exports the functions ``learn_aq`` and ``learn_iq`` under
# their modules' names
LEARNER_MODULES = [importlib.import_module(f"elhlearn.{m}") for m in ("learn_aq", "learn_iq")]


def minimize_abox(
    oracle: CachedOracle,
    a: ABox,
    h: TBox,
    originals: frozenset[str],
) -> tuple[ABox, tuple[str, str] | None]:
    """Saturate, then shrink while one positive example keeps holding.

    Returns the minimized ABox and the witness ``(conceptName, individual)``
    pair that drove the minimization, or None when nothing separates.
    """
    a = saturate_with_hypothesis(h, a, oracle.framework.signature, oracle.cache)

    # pick the first separating pair, preferring original individuals
    candidates = [i for i in sorted(a.individuals()) if i in originals]
    candidates += [i for i in sorted(a.individuals()) if i not in originals]
    witness = _first_positive(oracle, h, a, candidates)
    if witness is None:
        return a, None

    name, ind = witness
    q = AtomicQuery(name, (ind,))

    def keep_witness(smaller: ABox) -> ABox:
        # the witness individual stays alive even if all its assertions go
        return ABox(
            smaller.concept_assertions, smaller.role_assertions, smaller.declared | {ind}
        )

    changed = True
    while changed:
        changed = False
        for b in _individual_order(a, originals):
            if b == ind:
                continue
            smaller = keep_witness(a.without_individual(b))
            if oracle.membership(smaller, q):
                a = smaller
                changed = True
        for ra in sorted(a.role_assertions):
            smaller = keep_witness(a.without_role_assertion(ra))
            if oracle.membership(smaller, q):
                a = smaller
                changed = True
    return a, witness


def tree_shape(oracle: CachedOracle, a: ABox, h: TBox) -> tuple[ABox, tuple[str, str]]:
    """Alternate minimization and unfolding until the ABox is a tree."""
    originals = a.individuals()
    a, witness = minimize_abox(oracle, a, h, originals)
    if witness is None:
        raise StructuralError("no positive example survives minimization")
    prev_count = len(a.individuals())
    rounds = 0
    while True:
        found = find_cycle(a)
        if found is None:
            return a, witness
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise BudgetExceededError("tree shaping did not terminate in budget")
        a = unfold_cycle(a, found)
        a, witness = minimize_abox(oracle, a, h, originals)
        if witness is None:
            raise StructuralError("positive example lost while unfolding")
        count = len(a.individuals())
        if count <= prev_count:
            raise StructuralError("individual count must grow between unfold rounds")
        prev_count = count


def _first_positive(
    oracle: CachedOracle, h: TBox, a: ABox, inds: list[str]
) -> tuple[str, str] | None:
    """First ``(name, ind)`` the target gives ``a`` and ``h`` does not.

    Names in sorted order, individuals in the given order; a pair ``h``
    already entails costs no membership question.
    """
    for name in sorted(oracle.framework.signature.concept_names):
        for ind in inds:
            q = AtomicQuery(name, (ind,))
            if oracle.holds_locally(h, a, q):
                continue
            if oracle.membership(a, q):
                return name, ind
    return None


def tree_inclusion(
    oracle: CachedOracle, h: TBox, a: ABox
) -> tuple[TBox, ABox, tuple[str, str]]:
    """Shape a positive example of ``a`` into a tree and add its inclusion.

    Returns the extended hypothesis, the tree-shaped ABox and its witness
    ``(conceptName, individual)``, an individual of ``a``.
    """
    shaped, (wname, wind) = tree_shape(oracle, a, h)
    if wind not in a.individuals():
        raise StructuralError("witness individual must come from the ABox")
    concept = Tree.of_abox(shaped, wind).concept()
    return terminology(set(h.cis) | {CI(concept, Atom(wname))}, h.ris), shaped, (wname, wind)


def aq_phase(
    oracle: CachedOracle,
    h: TBox,
    result: LearnResult,
    on_tree=None,
) -> TBox:
    """Drive the atomic-counterexample loop until none remain."""
    fixed = oracle.framework.fixed_abox
    while True:
        check_budget(oracle, h, BUDGET_DEGREE_AQ)
        if _first_positive(oracle, h, fixed, sorted(fixed.individuals())) is None:
            return h
        h, shaped, (wname, wind) = tree_inclusion(oracle, h, fixed)
        if on_tree is not None:
            on_tree(shaped, wname, wind)
        _record_iteration(result, oracle, h)
        if not oracle.holds_locally(h, fixed, AtomicQuery(wname, (wind,))):
            raise StructuralError("new inclusion failed to cover its counterexample")


def update_step(run: Run, h: TBox, a: ABox, q: Query) -> TBox:
    """Repair an atomic miss on the updated ABox, else take the instance step."""
    q = concept_query(q)
    concept = run.classes.rewrite(normalize(q.concept))
    atom = _failing_atom(run.oracle, h, a, concept, q.ind)
    if atom is None:
        return iq_step(run.oracle, h, run.classes, run.equivalent_names, a, concept, q.ind)
    # a replaced assertion can become derivable rather than asserted, which
    # the fixed-ABox run never had to cover, so the tree step reruns here
    h, _, _ = tree_inclusion(run.oracle, h, a)
    return generalise(run.oracle, h, run.atomic_cis)


@contextlib.contextmanager
def patched():
    """Run the package's learners with the reference tree shaping inside."""
    with pytest.MonkeyPatch.context() as m:
        for module in LEARNER_MODULES:
            m.setattr(module, "aq_phase", aq_phase)
        m.setattr(updates, "update_step", update_step)
        yield
