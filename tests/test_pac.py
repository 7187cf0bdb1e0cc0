import math
import random

import pytest

from genkb import random_abox, random_query_pool, random_terminology
from pac_fixture import (
    DataError,
    HiddenChainFixture,
    classify_fixture_example,
    fixture_pac_learner,
    identify_word_adversarially,
)
from reference_pac import ring_hypotheses, shatters
from elhlearn.learn_iq import learn_iq
from elhlearn.pac import (
    Distribution,
    cyclic_abox,
    pac_from_exact,
    ring_shattered,
    sample_count,
    true_error,
    uniform_distribution,
)
from elhlearn.reasoner import LANG_IQ, answers_query, inseparable, kb_key
from elhlearn.syntax import (
    Atom,
    AtomicQuery,
    BudgetExceededError,
    CI,
    ConceptQuery,
    ConfigurationError,
    Exists,
    TBox,
    TOP,
    abox,
    conj,
    terminology,
)
from elhlearn.teacher import OracleSession, framework_for


class TestSampleCount:
    def test_formula(self):
        assert sample_count(0.1, 0.1, 1) == math.ceil(10 * (math.log(10) + math.log(2)))
        assert sample_count(0.1, 0.1, 1) == 30
        assert sample_count(0.5, 0.2, 3) == math.ceil(2 * (math.log(5) + 3 * math.log(2)))

    def test_floor_of_one(self):
        assert sample_count(1 - 1e-9, 1 - 1e-9, 1) >= 1

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            sample_count(0.0, 0.5, 1)
        with pytest.raises(ConfigurationError):
            sample_count(0.5, 1.0, 1)


class TestDistribution:
    def test_weights_validate(self):
        a0 = abox(concepts=[("A", "a")])
        q = AtomicQuery("A", ("a",))
        with pytest.raises(ConfigurationError):
            Distribution(((a0, q),), (0.5,))
        with pytest.raises(ConfigurationError):
            Distribution(((a0, q),), (-1.0, 2.0))
        with pytest.raises(ConfigurationError):
            Distribution((), ())
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                Distribution(((a0, q),), (bad,))
            with pytest.raises(ConfigurationError):
                Distribution(((a0, q), (a0, q), (a0, q)), (0.5, bad, 0.5))

    def test_sampling_reproducible(self):
        a0 = abox(concepts=[("A", "a")])
        d = uniform_distribution([(a0, AtomicQuery(n, ("a",))) for n in "ABCD"])
        r1 = [d.sample(random.Random(5)) for _ in range(5)]
        r2 = [d.sample(random.Random(5)) for _ in range(5)]
        assert r1 == r2


class TestTrueError:
    def test_zero_on_self(self):
        t = terminology([CI(Atom("B"), Atom("A"))])
        a0 = abox(concepts=[("B", "b")])
        d = uniform_distribution([(a0, AtomicQuery("A", ("b",)))])
        assert true_error(t, t, a0, d) == 0.0

    def test_single_disagreement(self):
        t = terminology([CI(Atom("B"), Atom("A"))])
        a0 = abox(concepts=[("B", "b")])
        d = uniform_distribution([(a0, AtomicQuery("A", ("b",)))])
        assert true_error(TBox(), t, a0, d) == 1.0

    def test_half(self):
        t = terminology([CI(Atom("B"), Atom("A"))])
        a0 = abox(concepts=[("B", "b")])
        d = uniform_distribution(
            [(a0, AtomicQuery("A", ("b",))), (a0, AtomicQuery("B", ("b",)))]
        )
        assert true_error(TBox(), t, a0, d) == 0.5

    def test_symmetry(self):
        for seed in range(10):
            t = random_terminology(seed)
            h = random_terminology(seed + 500)
            a0 = random_abox(seed, t)
            d = uniform_distribution(
                [(a0, q) for q in random_query_pool(seed, t, a0, 12)], seed=seed
            )
            assert true_error(t, h, a0, d) == true_error(h, t, a0, d)


class TestPacFromExact:
    def test_schedule_matches_formula(self):
        t = terminology([CI(Atom("B"), Atom("A")), CI(Atom("A"), Exists("r", Atom("B")))])
        a0 = abox(concepts=[("B", "b")])
        pool = random_query_pool(3, t, a0, 30)
        dist = uniform_distribution([(a0, q) for q in pool], seed=3)
        sess = OracleSession(t, framework_for(t, a0, LANG_IQ), seed=3)
        out = pac_from_exact(sess, learn_iq, 0.2, 0.1, dist)
        assert out.schedule == [sample_count(0.2, 0.1, i + 1) for i in range(out.eq_rounds)]
        assert out.samples_used <= sum(out.schedule)

    def test_support_must_match_query_language(self):
        from elhlearn.syntax import ConjunctiveQuery, RoleAtom, Var
        from elhlearn.teacher import OracleSession, framework_for

        t = terminology([CI(Atom("B"), Atom("A"))])
        a0 = abox(concepts=[("B", "b")])
        cq = ConjunctiveQuery(
            ("b",), frozenset({Var("x")}), frozenset({RoleAtom("r", "b", Var("x"))})
        )
        dist = uniform_distribution([(a0, cq)], seed=0)
        sess = OracleSession(t, framework_for(t, a0, LANG_IQ))
        with pytest.raises(ConfigurationError):
            sess.example(dist)
        sess2 = OracleSession(t, framework_for(t, a0, "cqr"))
        (_, _), label = sess2.example(dist)
        assert label == 0

    def test_draws_bounded_by_schedule_and_exact_rounds(self):
        for seed in range(30):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            exact = OracleSession(t, framework_for(t, a0, LANG_IQ))
            learn_iq(exact)
            pool = random_query_pool(seed, t, a0, 40)
            dist = uniform_distribution([(a0, q) for q in pool], seed=seed)
            sess = OracleSession(t, framework_for(t, a0, LANG_IQ), seed=seed)
            out = pac_from_exact(sess, learn_iq, 0.1, 0.1, dist)
            assert out.samples_used <= sum(out.schedule)
            assert out.eq_rounds <= max(1, exact.eq_count)

    def test_mostly_low_error(self):
        good = 0
        trials = 40
        for seed in range(trials):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            pool = random_query_pool(seed, t, a0, 40)
            dist = uniform_distribution([(a0, q) for q in pool], seed=seed)
            sess = OracleSession(t, framework_for(t, a0, LANG_IQ), seed=seed)
            out = pac_from_exact(sess, learn_iq, 0.1, 0.1, dist)
            if true_error(out.hypothesis, t, a0, dist) <= 0.1:
                good += 1
        assert good >= trials * 0.9


class TestFixture:
    def test_target_shape(self):
        fx = HiddenChainFixture(2)
        t = fx.target("rs")
        assert answers_query(t, fx.fixed_abox(), fx.word_query("rs"))
        assert not answers_query(t, fx.fixed_abox(), fx.word_query("sr"))
        assert answers_query(t, fx.fixed_abox(), fx.marker_query())
        assert not answers_query(fx.base_tbox(), fx.fixed_abox(), fx.marker_query())

    def test_symbolic_classification_matches_reasoner(self):
        fx = HiddenChainFixture(2)
        for w in fx.words():
            t = fx.target(w)
            for a, q in fx.canonical_support():
                assert classify_fixture_example(2, w, q) == answers_query(t, a, q)

    def test_learner_consistent_with_chain_positive(self):
        fx = HiddenChainFixture(3)
        t = fx.target("rsr")
        sample = [
            ((a, q), 1 if classify_fixture_example(3, "rsr", q) else 0)
            for a, q in fx.canonical_support()
        ]
        h, _ = fixture_pac_learner(sample, 3)
        assert inseparable(t, h, fx.fixed_abox(), LANG_IQ) is None

    def test_learner_base_when_no_positives(self):
        fx = HiddenChainFixture(2)
        sample = [
            ((fx.fixed_abox(), fx.word_query(w)), 0) for w in fx.words() if w != "rs"
        ]
        h, _ = fixture_pac_learner(sample, 2)
        assert kb_key(h) == kb_key(fx.base_tbox())

    def test_learner_handles_marker_only_positive(self):
        fx = HiddenChainFixture(2)
        sample = [((fx.fixed_abox(), fx.marker_query()), 1)] + [
            ((fx.fixed_abox(), fx.word_query(w)), 0) for w in ["rr", "rs"]
        ]
        h, _ = fixture_pac_learner(sample, 2)
        for (a, q), label in sample:
            assert answers_query(h, a, q) == bool(label)

    def test_contradictory_sample_rejected(self):
        fx = HiddenChainFixture(2)
        sample = [
            ((fx.fixed_abox(), fx.word_query("rs")), 1),
            ((fx.fixed_abox(), fx.word_query("sr")), 1),
        ]
        with pytest.raises(DataError):
            fixture_pac_learner(sample, 2)

    def test_adversary_needs_exponentially_many_queries(self):
        for n in range(1, 8):
            out = identify_word_adversarially(n)
            assert out.queries >= 2 ** (n - 1)


class TestShattering:
    def test_figure_hypotheses(self):
        ring = cyclic_abox(2)
        x = [(ring, AtomicQuery("A", ("a1",))), (ring, AtomicQuery("A", ("a2",)))]
        h1 = terminology([CI(conj(Exists("s", TOP), Exists("r", Exists("s", TOP))), Atom("A"))])
        h2 = terminology([CI(Exists("r", Exists("s", TOP)), Atom("A"))])
        h3 = terminology([CI(Exists("s", TOP), Atom("A"))])
        h4 = terminology(set(h2.cis) | set(h3.cis))
        assert shatters([h1, h2, h3, h4], x)

    def test_extra_loop_destroys_shattering(self):
        ring = cyclic_abox(2)
        ring = type(ring)(
            ring.concept_assertions,
            ring.role_assertions | {("s", "a2", "a2")},
            ring.declared,
        )
        x = [(ring, AtomicQuery("A", ("a1",))), (ring, AtomicQuery("A", ("a2",)))]
        h1 = terminology([CI(conj(Exists("s", TOP), Exists("r", Exists("s", TOP))), Atom("A"))])
        h2 = terminology([CI(Exists("r", Exists("s", TOP)), Atom("A"))])
        h3 = terminology([CI(Exists("s", TOP), Atom("A"))])
        h4 = terminology(set(h2.cis) | set(h3.cis))
        assert not shatters([h1, h2, h3, h4], x)
        assert not shatters(ring_hypotheses(2), x)

    def test_empty_example_set(self):
        assert shatters([TBox()], [])

    def test_three_ring(self):
        ring = cyclic_abox(3)
        x = [(ring, AtomicQuery("A", (f"a{i}",))) for i in (1, 2, 3)]
        assert shatters(ring_hypotheses(3), x)

    def test_budget_error(self):
        ring = cyclic_abox(3)
        x = [(ring, AtomicQuery("A", (f"a{i}",))) for i in (1, 2, 3)]
        with pytest.raises(BudgetExceededError):
            shatters(ring_hypotheses(3), x, budget=3)


class TestRing:
    def test_n2_structure(self):
        assert cyclic_abox(2).role_assertions == frozenset(
            {("r", "a1", "a2"), ("s", "a1", "a1"), ("r", "a2", "a1")}
        )

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            cyclic_abox(1)

    def test_identifying_concepts(self):
        for n in (2, 3, 4):
            ring = cyclic_abox(n)
            from elhlearn.pac import ring_identifying_concept

            for i in range(1, n + 1):
                c = ring_identifying_concept(n, i)
                for j in range(1, n + 1):
                    holds = answers_query(TBox(), ring, ConceptQuery(c, f"a{j}"))
                    assert holds == (j != i)


class TestRingShattered:
    @pytest.mark.parametrize("extra_loop", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_agrees_with_the_generic_check(self, n, extra_loop):
        ring = cyclic_abox(n)
        if extra_loop:  # as ``elh vc check --extra-loop`` closes it
            ring = type(ring)(
                ring.concept_assertions,
                ring.role_assertions | {("s", f"a{n}", f"a{n}")},
                ring.declared,
            )
        examples = [(ring, AtomicQuery("A", (f"a{i}",))) for i in range(1, n + 1)]
        expected = shatters(ring_hypotheses(n), examples)
        assert ring_shattered(ring, n) == expected
        assert expected == (not extra_loop)

    def test_a_ring_without_s_loops_is_not_shattered(self):
        # no identifying concept holds anywhere, so every column is empty
        ring = abox(roles=[("r", "a1", "a2"), ("r", "a2", "a3"), ("r", "a3", "a1")])
        examples = [(ring, AtomicQuery("A", (f"a{i}",))) for i in (1, 2, 3)]
        assert not shatters(ring_hypotheses(3), examples)
        assert not ring_shattered(ring, 3)
