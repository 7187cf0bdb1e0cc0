"""The learner loops as they were before the single counterexample loop.

Each of ``learn_iq``, ``learn_cqr``, ``learn_with_updates`` and
``build_batch`` wrote out its own "budget check, ask for a counterexample,
normalise it, ``iq_step``, record" loop, and the instance loops had their own
budget function ``_budget_limit_iq``.  They are kept verbatim, apart from the
imports and the atomic repair, which calls ``learn_aq.tree_inclusion`` with
the counterexample's witness (the step ``updates._atomic_repair`` was, minus
its search for one), as the reference that
``tests/test_learner_loop.py`` compares the one driver in ``elhlearn.learn_aq``
against.

The atomic phase ``aq_phase`` and the equivalence loop
``counterexample_loop`` are kept verbatim too, as each wrote out its own
loop before both ran through ``learn_aq.refine``.  The learners here call
this ``aq_phase``, and so do ``learn_aq`` and ``start``, copies of the
package's; ``looped(step)`` runs a package step through this
``counterexample_loop``.
Everything else they call (the bootstrap, the tree shaping, the reductions,
the conversion, the repairs, the steps) is the package's own.

``repr_keyed_membership`` is ``CachedOracle.membership`` as it was when the
memo keyed a question on ``repr(q)``, not on the query value;
``tests/test_learner_loop.py`` swaps it in to compare the two memos.
"""

from __future__ import annotations

from elhlearn import reasoner, teacher
from elhlearn.batch import BatchItem, _require_signature
from elhlearn.learn_aq import (
    BUDGET_DEGREE_AQ,
    MAX_ROUNDS,
    MAX_ROUNDS as MAX_ITERATIONS,
    CachedOracle,
    LearnResult,
    _first_positive,
    _record_iteration,
    bootstrap_atomic,
    check_budget,
    tree_inclusion,
)
from elhlearn.learn_cqr import cq_to_iq
from elhlearn.learn_iq import (
    Run,
    _atomic_equivalence,
    iq_step,
    role_classes,
)
from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    BudgetExceededError,
    ConceptQuery,
    ConfigurationError,
    ConjunctiveQuery,
    Query,
    RoleQuery,
    StructuralError,
    TBox,
    normalize,
    signature_of_abox,
    size_of,
    terminology,
)
from elhlearn.updates import _failing_atom, generalise


def repr_keyed_membership(self, a: ABox, q: Query) -> bool:
    key = (a, repr(q))
    if key not in self._mq:
        self._mq[key] = self.session.membership(a, q)
    return self._mq[key]


BUDGET_DEGREE_IQ = 4
BUDGET_COEFF_IQ = 300


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
        witness = _first_positive(oracle, h, fixed)
        if witness is None:
            return h
        h, shaped = tree_inclusion(oracle, h, fixed, witness)
        name, ind = witness
        if on_tree is not None:
            on_tree(shaped, name, ind)
        _record_iteration(result, oracle, h)
        if not oracle.holds_locally(h, fixed, AtomicQuery(name, (ind,))):
            raise StructuralError("new inclusion failed to cover its counterexample")


def counterexample_loop(run: Run, h: TBox, step) -> LearnResult:
    """Refine ``h`` with ``step(run, h, abox, query)`` until inseparable."""
    oracle, result = run.oracle, run.result
    iterations = 0
    while True:
        check_budget(oracle, h, BUDGET_DEGREE_IQ)
        iterations += 1
        if iterations > MAX_ROUNDS:
            raise BudgetExceededError("counterexample loop exceeded its budget", partial=h)
        hit = oracle.inseparability(h)
        if hit is None:
            result.hypothesis = h
            return result
        h = step(run, h, *hit)
        _record_iteration(result, oracle, h)


def learn_aq(session, on_tree=None) -> LearnResult:
    """Atomic-query consequences of the target, from membership questions only."""
    oracle = CachedOracle(session)
    result = LearnResult(TBox())
    cis, ris = bootstrap_atomic(oracle)
    h = terminology(cis, ris)
    _record_iteration(result, oracle, h)
    h = aq_phase(oracle, h, result, on_tree=on_tree)
    result.hypothesis = h
    return result


def start(session, on_tree=None) -> tuple[Run, TBox]:
    """Bootstrap, then the membership-only atomic phase; the first records."""
    oracle = CachedOracle(session)
    result = LearnResult(TBox())
    atomic_cis, ris = bootstrap_atomic(oracle)
    classes = role_classes(frozenset(ris), oracle.framework.signature.role_names)
    run = Run(oracle, result, atomic_cis, classes, _atomic_equivalence(atomic_cis))
    h = terminology(atomic_cis, ris)
    _record_iteration(result, oracle, h)
    return run, aq_phase(oracle, h, result, on_tree=on_tree)


def looped(step):
    """The learner that runs the package's ``step`` through the loop above."""

    def learner(session) -> LearnResult:
        return counterexample_loop(*start(session), step)

    learner.__name__ = f"looped({step.__name__})"
    return learner


def _budget_limit_iq(oracle: CachedOracle, h: TBox) -> int:
    base = (
        size_of(h)
        + size_of(oracle.framework.fixed_abox)
        + oracle.session.largest_counterexample
        + len(oracle.framework.signature.concept_names)
        + len(oracle.framework.signature.role_names)
        + 8
    )
    return BUDGET_COEFF_IQ * base**BUDGET_DEGREE_IQ


def learn_iq(session) -> LearnResult:
    """Hypothesis inseparable from the target on all instance queries."""
    oracle = CachedOracle(session)
    result = LearnResult(TBox())
    atomic_cis, ris = bootstrap_atomic(oracle)
    classes = role_classes(frozenset(ris), oracle.framework.signature.role_names)
    equivalent_names = _atomic_equivalence(atomic_cis)
    h = terminology(atomic_cis, ris)
    _record_iteration(result, oracle, h)
    h = aq_phase(oracle, h, result)

    iterations = 0
    while True:
        limit = _budget_limit_iq(oracle, h)
        if oracle.session.mq_input_size_sum + oracle.session.eq_input_size_sum > limit:
            raise BudgetExceededError(f"query budget {limit} exceeded", partial=h)
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise BudgetExceededError("instance-query loop exceeded its budget", partial=h)
        hit = oracle.inseparability(h)
        if hit is None:
            result.hypothesis = h
            return result
        a, q = hit
        if isinstance(q, AtomicQuery) and len(q.args) == 1:
            q = ConceptQuery(Atom(q.pred), q.args[0])
        if not isinstance(q, ConceptQuery):
            raise StructuralError(f"instance-language oracle returned {q!r}")
        h = iq_step(oracle, h, classes, equivalent_names, a, q.concept, q.ind)
        _record_iteration(result, oracle, h)


def learn_cqr(session) -> LearnResult:
    """Hypothesis inseparable from the target on all rooted CQs."""
    oracle = CachedOracle(session)
    result = LearnResult(TBox())
    atomic_cis, ris = bootstrap_atomic(oracle)
    classes = role_classes(frozenset(ris), oracle.framework.signature.role_names)
    equivalent_names = _atomic_equivalence(atomic_cis)
    h = terminology(atomic_cis, ris)
    _record_iteration(result, oracle, h)
    h = aq_phase(oracle, h, result)

    iterations = 0
    while True:
        limit = _budget_limit_iq(oracle, h)
        if oracle.session.mq_input_size_sum + oracle.session.eq_input_size_sum > limit:
            raise BudgetExceededError(f"query budget {limit} exceeded", partial=h)
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise BudgetExceededError("rooted-CQ loop exceeded its budget", partial=h)
        hit = oracle.inseparability(h)
        if hit is None:
            result.hypothesis = h
            return result
        a, q = hit
        if isinstance(q, ConjunctiveQuery):
            result.conversions += 1
            q = cq_to_iq(oracle, h, q, classes)
        if isinstance(q, AtomicQuery) and len(q.args) == 1:
            q = ConceptQuery(Atom(q.pred), q.args[0])
        if isinstance(q, RoleQuery) or (isinstance(q, AtomicQuery) and len(q.args) == 2):
            raise StructuralError("role counterexample after the bootstrap phase")
        if not isinstance(q, ConceptQuery):
            raise StructuralError(f"unexpected counterexample {q!r}")
        h = iq_step(oracle, h, classes, equivalent_names, a, q.concept, q.ind)
        _record_iteration(result, oracle, h)


def learn_with_updates(session) -> LearnResult:
    """Learn, generalise, then accept counterexamples over updated ABoxes."""
    a0 = session.framework.fixed_abox
    sig_t = session.framework.signature
    sig_a = signature_of_abox(a0)
    if not (
        sig_t.concept_names <= sig_a.concept_names and sig_t.role_names <= sig_a.role_names
    ):
        raise ConfigurationError("update learning needs the TBox signature inside the ABox's")
    oracle = CachedOracle(session)
    result = LearnResult(TBox())
    atomic_cis, ris = bootstrap_atomic(oracle)
    classes = role_classes(frozenset(ris), oracle.framework.signature.role_names)
    equivalent_names = _atomic_equivalence(atomic_cis)
    h = terminology(atomic_cis, ris)
    _record_iteration(result, oracle, h)
    h = aq_phase(oracle, h, result)
    h = generalise(oracle, h, atomic_cis)
    _record_iteration(result, oracle, h)

    iterations = 0
    while True:
        limit = _budget_limit_iq(oracle, h)
        if oracle.session.mq_input_size_sum + oracle.session.eq_input_size_sum > limit:
            raise BudgetExceededError(f"query budget {limit} exceeded", partial=h)
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise BudgetExceededError("update loop exceeded its budget", partial=h)
        hit = oracle.inseparability(h)
        if hit is None:
            result.hypothesis = h
            return result
        a, q = hit
        if isinstance(q, AtomicQuery) and len(q.args) == 1:
            q = ConceptQuery(Atom(q.pred), q.args[0])
        if not isinstance(q, ConceptQuery):
            raise StructuralError(f"unexpected counterexample {q!r}")
        concept = classes.rewrite(normalize(q.concept))
        atom = _failing_atom(oracle, h, a, concept, q.ind)
        if atom is not None:
            h, _ = tree_inclusion(oracle, h, a, (atom, q.ind))
            h = generalise(oracle, h, atomic_cis)
        else:
            h = iq_step(oracle, h, classes, equivalent_names, a, concept, q.ind)
        _record_iteration(result, oracle, h)


def build_batch(target: TBox, a0: ABox, lang: str, seed: int = 0) -> list[BatchItem]:
    """Classified positive examples sufficient to reconstruct a hypothesis."""
    _require_signature(target, a0)
    fw = teacher.framework_for(target, a0, lang)
    session = teacher.OracleSession(target, fw, seed=seed)
    oracle = CachedOracle(session)
    items: list[BatchItem] = []

    atomic_cis, ris = bootstrap_atomic(oracle)
    for ci in sorted(atomic_cis, key=lambda c: (c.lhs.name, c.rhs.name)):
        a = ABox(frozenset({(ci.lhs.name, "p0")}), frozenset(), frozenset())
        items.append(BatchItem("ci", a, AtomicQuery(ci.rhs.name, ("p0",))))
    for ri in sorted(ris, key=lambda r: (r.lhs, r.rhs)):
        a = ABox(frozenset(), frozenset({(ri.lhs, "p0", "p1")}), frozenset())
        items.append(BatchItem("ri", a, AtomicQuery(ri.rhs, ("p0", "p1"))))

    h = terminology(atomic_cis, ris)
    result = LearnResult(h)

    def record_tree(shaped: ABox, name: str, ind: str) -> None:
        items.append(BatchItem("tree", shaped, AtomicQuery(name, (ind,))))

    h = aq_phase(oracle, h, result, on_tree=record_tree)

    if lang in (reasoner.LANG_IQ, reasoner.LANG_CQR):
        classes = role_classes(frozenset(ris), fw.signature.role_names)
        equivalent_names = _atomic_equivalence(atomic_cis)
        iterations = 0
        while True:
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise BudgetExceededError("batch construction exceeded its budget")
            hit = oracle.inseparability(h)
            if hit is None:
                break
            a, q = hit
            if isinstance(q, teacher.ConjunctiveQuery):
                q = cq_to_iq(oracle, h, q, role_classes(h.ris, fw.signature.role_names))
            if isinstance(q, AtomicQuery) and len(q.args) == 1:
                q = ConceptQuery(Atom(q.pred), q.args[0])
            if not isinstance(q, ConceptQuery):
                raise StructuralError(f"unexpected counterexample {q!r}")
            before = h.cis
            h = iq_step(oracle, h, classes, equivalent_names, a, q.concept, q.ind)
            settled = sorted(
                (ci for ci in h.cis - before if isinstance(ci.lhs, Atom)),
                key=lambda ci: (ci.lhs.name,),
            )
            if len(settled) != 1:
                raise StructuralError("instance step must settle exactly one inclusion")
            ci = settled[0]
            single = ABox(frozenset({(ci.lhs.name, "e0")}), frozenset(), frozenset())
            items.append(BatchItem("iq", single, ConceptQuery(ci.rhs, "e0")))
    return items
