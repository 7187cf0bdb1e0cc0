import pytest

from genkb import covering_abox, random_abox, random_terminology
from reference_updates import in_generalised_closure, linear_derivation
from elhlearn.learn_aq import CachedOracle, bootstrap_atomic
from elhlearn.reasoner import LANG_IQ, inseparable
from elhlearn.syntax import (
    Atom,
    CI,
    ConfigurationError,
    ContractViolationError,
    Exists,
    RI,
    TBox,
    abox,
    canonical,
    conj,
    terminology,
)
from elhlearn.teacher import OracleSession, framework_for
from elhlearn.updates import (
    check_bisim_preservation,
    enumerate_closure,
    generalise,
    learn_with_updates,
)


def genhyp():
    t = terminology([CI(Exists("r", Atom("A1")), Atom("B"))])
    h = terminology([CI(Exists("r", conj(Atom("A1"), Atom("A2"))), Atom("B"))])
    a0 = abox(concepts=[("A1", "b"), ("A2", "b")], roles=[("r", "a", "b")])
    return t, h, a0


class TestPreservation:
    def test_same_abox_is_preserved(self):
        t, h, a0 = genhyp()
        assert check_bisim_preservation(t, h, a0, a0) is True

    def test_new_individual_without_mate_is_not(self):
        t, h, a0 = genhyp()
        a = a0.union(abox(concepts=[("A1", "b2")], roles=[("r", "a2", "b2")]))
        assert check_bisim_preservation(t, h, a0, a) is False
        assert inseparable(t, h, a, LANG_IQ) is not None

    def test_disjoint_copy_is_preserved(self):
        t, h, a0 = genhyp()
        a = a0.union(
            abox(concepts=[("A1", "b3"), ("A2", "b3")], roles=[("r", "a3", "b3")])
        )
        assert check_bisim_preservation(t, h, a0, a) is True
        assert inseparable(t, h, a, LANG_IQ) is None

    def test_precondition_checked(self):
        t, _, a0 = genhyp()
        h_bad = terminology([CI(Atom("A1"), Atom("B"))])  # separable already on a0
        with pytest.raises(ContractViolationError):
            check_bisim_preservation(t, h_bad, a0, a0)

    def test_ri_equality_checked(self):
        t = terminology([], [RI("r", "s")])
        with pytest.raises(ContractViolationError):
            check_bisim_preservation(t, TBox(), abox(roles=[("r", "a", "b")]), abox())

    def test_preserved_implies_inseparable_on_copied_updates(self):
        import random as _random

        hits = 0
        for seed in range(40):
            t, h, a0 = genhyp()
            rng = _random.Random(seed)
            inds = sorted(a0.individuals())
            chosen = sorted(rng.sample(inds, rng.randint(1, len(inds))))
            rename = {i: f"{i}_copy{seed}" for i in chosen}
            copied = abox(
                concepts={
                    (n, rename[i]) for n, i in a0.concept_assertions if i in rename
                },
                roles={
                    (r, rename.get(x, x), rename.get(y, y))
                    for r, x, y in a0.role_assertions
                    if x in rename and y in rename
                },
                declared={rename[i] for i in chosen},
            )
            a = a0.union(copied)
            if check_bisim_preservation(t, h, a0, a):
                hits += 1
                assert inseparable(t, h, a, LANG_IQ) is None
        assert hits >= 10


class TestGeneralise:
    def test_drops_overfit_conjunct(self):
        t, h, a0 = genhyp()
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_IQ)))
        atomic_cis, _ = bootstrap_atomic(oracle)
        g = generalise(oracle, h, atomic_cis)
        assert CI(Exists("r", Atom("A1")), Atom("B")) in g.cis
        a = a0.union(abox(concepts=[("A1", "b2")], roles=[("r", "a2", "b2")]))
        assert inseparable(t, g, a, LANG_IQ) is None

    def test_nothing_to_do(self):
        t = terminology([CI(Exists("r", Atom("A1")), Atom("B"))])
        a0 = abox(concepts=[("A1", "b")], roles=[("r", "a", "b")])
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_IQ)))
        atomic_cis, _ = bootstrap_atomic(oracle)
        g = generalise(oracle, t, atomic_cis)
        assert g.cis == t.cis

    def test_preserves_target_entailment_and_aq_agreement(self):
        for seed in range(25):
            t = random_terminology(seed)
            a0 = covering_abox(seed, t)
            sess = OracleSession(t, framework_for(t, a0, LANG_IQ))
            oracle = CachedOracle(sess)
            atomic_cis, ris = bootstrap_atomic(oracle)
            from elhlearn.learn_aq import LearnResult, aq_phase

            h = terminology(atomic_cis, ris)
            h = aq_phase(oracle, h, LearnResult(h), use_eq=False)
            g = generalise(oracle, h, atomic_cis)
            from elhlearn.reasoner import entails_ci, LANG_AQ

            for ci in g.cis:
                assert entails_ci(t, ci.lhs, ci.rhs)
            assert inseparable(t, g, a0, LANG_AQ) is None

    def test_role_weakening(self):
        t = terminology([CI(Exists("s", Atom("A1")), Atom("B"))], [RI("r", "s")])
        h = terminology([CI(Exists("r", Atom("A1")), Atom("B"))], [RI("r", "s")])
        a0 = abox(concepts=[("A1", "b"), ("B", "c")], roles=[("r", "a", "b"), ("s", "c", "b")])
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_IQ)))
        atomic_cis, _ = bootstrap_atomic(oracle)
        g = generalise(oracle, h, atomic_cis)
        assert CI(Exists("s", Atom("A1")), Atom("B")) in g.cis


class TestLinearDerivation:
    def test_single_step(self):
        t = terminology([CI(Atom("A"), Atom("B"))])
        assert linear_derivation(t, "A", "B")

    def test_branching_blocks(self):
        t = terminology([CI(Atom("A"), conj(Atom("B"), Atom("C")))])
        assert not linear_derivation(t, "A", "B")
        assert not linear_derivation(t, "A", "C")

    def test_reflexive(self):
        assert linear_derivation(TBox(), "A", "A")

    def test_roles(self):
        t = terminology([], [RI("r", "s")])
        assert linear_derivation(t, "r", "s", "role")
        assert not linear_derivation(TBox(), "r", "s", "role")

    def test_transitive_chain_is_linear(self):
        t = terminology([CI(Atom("A"), Atom("B")), CI(Atom("B"), Atom("C"))])
        assert linear_derivation(t, "A", "C")


class TestClosure:
    def test_identity(self):
        t = terminology([CI(Atom("A"), Atom("B"))])
        a0 = abox(concepts=[("A", "a")])
        assert in_generalised_closure(t, a0, a0)

    def test_single_replacement(self):
        t = terminology([CI(Atom("A"), Atom("B"))])
        assert in_generalised_closure(
            t, abox(concepts=[("A", "a")]), abox(concepts=[("B", "a")])
        )

    def test_new_individual_rejected(self):
        t = terminology([CI(Atom("A"), Atom("B"))])
        assert not in_generalised_closure(
            t, abox(concepts=[("A", "a")]), abox(concepts=[("B", "c")])
        )

    def test_branching_not_linear(self):
        t = terminology([CI(Atom("A"), conj(Atom("B"), Atom("C")))])
        assert not in_generalised_closure(
            t, abox(concepts=[("A", "a")]), abox(concepts=[("B", "a")])
        )

    def test_collapse_of_two_assertions(self):
        t = terminology([CI(Atom("A"), Atom("B"))])
        a0 = abox(concepts=[("A", "a"), ("B", "a")])
        assert in_generalised_closure(t, a0, abox(concepts=[("B", "a")]))

    def test_splitting_impossible(self):
        t = terminology([CI(Atom("A"), Atom("B")), CI(Atom("A"), Atom("C"))])
        a0 = abox(concepts=[("A", "a")])
        # single assertion cannot become two
        assert not in_generalised_closure(
            t, a0, abox(concepts=[("B", "a"), ("C", "a")])
        )

    def test_enumeration_members_are_members(self):
        for seed in range(20):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            for m in enumerate_closure(t, a0, cap=15):
                assert in_generalised_closure(t, a0, m)

    def test_enumeration_respects_cap(self):
        t = terminology([CI(Atom("A"), Atom("B")), CI(Atom("B"), Atom("C"))])
        a0 = abox(concepts=[("A", "a"), ("A", "b"), ("A", "c")])
        assert len(list(enumerate_closure(t, a0, cap=4))) <= 4


class TestLearnWithUpdates:
    def test_requires_signature_inclusion(self):
        t = terminology([CI(Atom("A"), Atom("B"))])
        a0 = abox(concepts=[("Other", "x")])
        from elhlearn.teacher import Framework
        from elhlearn.syntax import signature_of_tbox, signature_of_abox

        fw = Framework(
            a0,
            LANG_IQ,
            signature_of_tbox(t).union(signature_of_abox(a0)),
            update_closure=True,
        )
        with pytest.raises(ConfigurationError):
            learn_with_updates(OracleSession(t, fw))

    def test_trivial_closure_reduces_to_plain_learning(self):
        t = terminology([CI(Exists("r1", Atom("A1")), Atom("A2"))])
        a0 = abox(concepts=[("A1", "b"), ("A2", "c")], roles=[("r1", "a", "b")])
        fw = framework_for(t, a0, LANG_IQ, update_closure=True)
        res = learn_with_updates(OracleSession(t, fw))
        assert inseparable(t, res.hypothesis, a0, LANG_IQ) is None

    def test_chain_target_holds_on_replaced_aboxes(self):
        t = terminology([CI(Atom("A1"), Atom("A2")), CI(Exists("r1", Atom("A1")), Atom("A3"))])
        a0 = abox(
            concepts=[("A1", "x"), ("A2", "y"), ("A3", "z")], roles=[("r1", "w", "x")]
        )
        fw = framework_for(t, a0, LANG_IQ, update_closure=True)
        res = learn_with_updates(OracleSession(t, fw))
        for m in [a0] + list(enumerate_closure(t, a0, cap=60)):
            assert inseparable(t, res.hypothesis, m, LANG_IQ) is None

    def test_random_targets_hold_on_sampled_members(self):
        for seed in range(25):
            t = random_terminology(seed)
            a0 = covering_abox(seed, t)
            fw = framework_for(t, a0, LANG_IQ, update_closure=True, closure_cap=30)
            res = learn_with_updates(OracleSession(t, fw))
            for m in [a0] + list(enumerate_closure(t, a0, cap=30)):
                assert inseparable(t, res.hypothesis, m, LANG_IQ) is None
