"""Acceptance suite: one test per criterion, one pass/fail line each.

Corpus parameters: random terminologies over at most 6 concept and 3 role
names with symbol size at most 25, data instances with at most 10
assertions.  The monitored query budget, identical for all three modes, is

    total MQ+EQ input size <= 4 * s**2,
    s = |target| + |data| + largest counterexample + |signature| + 8.
"""

import math
import time

import pytest

from bruteforce import brute_instance, brute_subsumes
from genkb import covering_abox, random_abox, random_concept, random_query_pool, random_terminology
from pac_fixture import (
    HiddenChainFixture,
    classify_fixture_example,
    fixture_pac_learner,
    identify_word_adversarially,
)
from reference_pac import shatters
from elhlearn.batch import build_batch, learn_from_batch
from elhlearn.learn_aq import CachedOracle, learn_aq
from elhlearn.learn_cqr import cq_to_iq, learn_cqr
from elhlearn.learn_iq import learn_iq, role_classes
from elhlearn.pac import (
    cyclic_abox,
    pac_from_exact,
    sample_count,
    true_error,
    uniform_distribution,
)
from elhlearn.reasoner import (
    LANG_AQ,
    LANG_CQR,
    LANG_IQ,
    ModelCache,
    answers_query,
    entails_ci,
    inseparable,
)
from elhlearn.syntax import (
    Atom,
    AtomicQuery,
    CI,
    ConceptQuery,
    ConjunctiveQuery,
    Exists,
    RoleAtom,
    TBox,
    TOP,
    Var,
    abox,
    conj,
    signature_of_abox,
    signature_of_tbox,
    size_of,
    terminology,
)
from elhlearn.teacher import (
    OracleSession,
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    framework_for,
)

CORPUS_SIZE = 200
BUDGET_COEFF = 4
BUDGET_DEGREE = 2

MODES = [
    ("aq", learn_aq, LANG_AQ),
    ("iq", learn_iq, LANG_IQ),
    ("cqr", learn_cqr, LANG_CQR),
]


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def corpus(n=CORPUS_SIZE, covering=False):
    for seed in range(n):
        t = random_terminology(seed)
        a0 = covering_abox(seed, t) if covering else random_abox(seed, t)
        yield seed, t, a0


def budget_bound(t, a0, sess) -> int:
    sig = signature_of_tbox(t).union(signature_of_abox(a0))
    s = (
        size_of(t)
        + size_of(a0)
        + sess.largest_counterexample
        + len(sig.concept_names)
        + len(sig.role_names)
        + 8
    )
    return BUDGET_COEFF * s**BUDGET_DEGREE


def run_mode(mode, learner, lang, policy=POLICY_MINIMAL, covering=False):
    """Yields per-run facts shared by several criteria."""
    for seed, t, a0 in corpus(covering=covering):
        trees = []
        sess = OracleSession(t, framework_for(t, a0, lang), policy=policy, seed=seed)
        started = time.time()
        if mode == "aq":
            result = learner(sess, on_tree=lambda a, n, i: trees.append(a))
        else:
            result = learner(sess)
        elapsed = time.time() - started
        yield seed, t, a0, sess, result, trees, elapsed


class TestCriterion1Goldens:
    def test_example_entailment(self):
        t = terminology(
            [
                CI(Atom("B"), Exists("s", Atom("B"))),
                CI(Exists("r", Exists("s", Atom("B"))), Atom("A")),
            ]
        )
        a = abox(concepts=[("B", "b")], roles=[("r", "a", "b")])
        started = time.time()
        ok = answers_query(t, a, AtomicQuery("A", ("a",)))
        report("criterion 1a: entailment over the two-axiom example", ok and time.time() - started < 1)

    def test_figure_conversion(self):
        t = terminology([CI(Atom("A"), Exists("r", Exists("s", TOP)))])
        a0 = abox(concepts=[("A", "a")])
        q = ConjunctiveQuery(
            ("a",),
            frozenset({Var(f"x{i}") for i in range(1, 6)}),
            frozenset(
                {
                    RoleAtom("r", "a", Var("x1")),
                    RoleAtom("r", "a", Var("x2")),
                    RoleAtom("s", Var("x1"), Var("x3")),
                    RoleAtom("s", Var("x1"), Var("x4")),
                    RoleAtom("s", Var("x2"), Var("x4")),
                    RoleAtom("s", Var("x2"), Var("x5")),
                }
            ),
        )
        started = time.time()
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_CQR)))
        classes = role_classes(frozenset(), oracle.framework.signature.role_names)
        out = cq_to_iq(oracle, TBox(), q, classes)
        ok = out == ConceptQuery(Exists("r", Exists("s", TOP)), "a")
        report("criterion 1b: six-atom query converts to the chain instance query", ok and time.time() - started < 1)

    def test_update_pair(self):
        started = time.time()
        t = terminology([CI(Exists("r", Atom("A1")), Atom("B"))])
        h = terminology([CI(Exists("r", conj(Atom("A1"), Atom("A2"))), Atom("B"))])
        a0 = abox(concepts=[("A1", "b"), ("A2", "b")], roles=[("r", "a", "b")])
        a1 = a0.union(abox(concepts=[("A1", "b2")], roles=[("r", "a2", "b2")]))
        sep = inseparable(t, h, a1, LANG_IQ)
        ok = (
            inseparable(t, h, a0, LANG_IQ) is None
            and sep is not None
            and sep.query == AtomicQuery("B", ("a2",))
        )
        report("criterion 1c: inseparable pair separates after the update", ok and time.time() - started < 1)

    def test_shattering_pair(self):
        started = time.time()
        ring = cyclic_abox(2)
        x = [(ring, AtomicQuery("A", ("a1",))), (ring, AtomicQuery("A", ("a2",)))]
        h1 = terminology([CI(conj(Exists("s", TOP), Exists("r", Exists("s", TOP))), Atom("A"))])
        h2 = terminology([CI(Exists("r", Exists("s", TOP)), Atom("A"))])
        h3 = terminology([CI(Exists("s", TOP), Atom("A"))])
        h4 = terminology(set(h2.cis) | set(h3.cis))
        hyps = [h1, h2, h3, h4]
        bad_ring = type(ring)(
            ring.concept_assertions, ring.role_assertions | {("s", "a2", "a2")}, ring.declared
        )
        xb = [(bad_ring, AtomicQuery("A", ("a1",))), (bad_ring, AtomicQuery("A", ("a2",)))]
        ok = shatters(hyps, x) and not shatters(hyps, xb)
        report("criterion 1d: ring examples shatter, extra loop kills it", ok and time.time() - started < 1)

    def test_reduction_golden(self):
        from elhlearn.learn_iq import reduce_counterexample

        started = time.time()
        t = terminology([CI(Atom("A"), Exists("r", Atom("D")))])
        a = abox(concepts=[("A", "b")], roles=[("r", "a", "b")])
        oracle = CachedOracle(OracleSession(t, framework_for(t, a, LANG_IQ)))
        ci = reduce_counterexample(oracle, a, Exists("r", Exists("r", Atom("D"))), "a", TBox())
        ok = ci == CI(Atom("A"), Exists("r", Atom("D")))
        report("criterion 1e: counterexample reduction returns the one-step inclusion", ok and time.time() - started < 1)


class TestCriterion2And3And4Learners:
    @pytest.mark.parametrize("mode,learner,lang", MODES, ids=[m[0] for m in MODES])
    def test_soundness_budget_and_size_bounds(self, mode, learner, lang):
        sound = budget_ok = size_ok = runs = 0
        slowest = 0.0
        for seed, t, a0, sess, result, trees, elapsed in run_mode(mode, learner, lang):
            runs += 1
            slowest = max(slowest, elapsed)
            assert elapsed <= 10.0, f"run {seed} took {elapsed:.1f}s"
            if inseparable(t, result.hypothesis, a0, lang) is None:
                sound += 1
            spent = sess.mq_input_size_sum + sess.eq_input_size_sum
            if spent <= budget_bound(t, a0, sess):
                budget_ok += 1
            sig = signature_of_tbox(t)
            sig_size = len(sig.concept_names) + len(sig.role_names)
            bound = max(1, sig_size * size_of(t))
            fine = True
            for ci in result.hypothesis.cis:
                if isinstance(ci.lhs, Atom) and not isinstance(ci.rhs, Atom):
                    fine = fine and size_of(ci.rhs) <= bound
            for shaped in trees:
                fine = fine and len(shaped.individuals()) <= size_of(t)
            if fine:
                size_ok += 1
        report(
            f"criterion 2 ({mode}): inseparable on all {runs} corpus runs",
            sound == runs,
            f"{sound}/{runs}, slowest {slowest:.2f}s",
        )
        report(
            f"criterion 3 ({mode}): query budget 4*s^2 held on every run",
            budget_ok == runs,
            f"{budget_ok}/{runs}",
        )
        report(
            f"criterion 4 ({mode}): size bounds held on every run",
            size_ok == runs,
            f"{size_ok}/{runs}",
        )

    def test_tree_growth_guard_is_live(self, monkeypatch):
        # force a stalled minimization and watch the tree loop refuse it
        import importlib

        from elhlearn.syntax import StructuralError

        mod = importlib.import_module("elhlearn.learn_aq")
        looped = abox(roles=[("r1", "c", "c")], concepts=[("A1", "c")])

        def stalled(oracle, a, h, originals, witness):
            return looped

        monkeypatch.setattr(mod, "minimize_abox", stalled)
        t = terminology([CI(Exists("r1", Exists("r1", TOP)), Atom("A1"))])
        sess = OracleSession(t, framework_for(t, looped, LANG_AQ))
        with pytest.raises(StructuralError):
            mod.tree_shape(CachedOracle(sess), looped, TBox(), ("A1", "c"))
        report("criterion 4: strict growth check is enforced in the tree loop", True)


class TestCriterion5OracleEquivalence:
    def test_agreement(self):
        import random

        rng = random.Random(99)
        checks = agree = 0
        started = time.time()
        seed = 0
        while checks < 10_000:
            t = random_terminology(seed, max_concepts=3, max_roles=1, max_depth=2)
            a = random_abox(seed, t, max_inds=4, max_assertions=6)
            cache = ModelCache()
            sig = signature_of_tbox(t)
            concepts = sorted(sig.concept_names | {"A1"})[:3]
            roles = sorted(sig.role_names | {"r1"})[:1]
            for _ in range(8):
                c = random_concept(rng, concepts, roles, 3)
                ind = rng.choice(sorted(a.individuals()))
                mine = answers_query(t, a, ConceptQuery(c, ind), cache)
                agree += mine == brute_instance(t, a, c, ind, max_depth=6)
                checks += 1
            for _ in range(4):
                c = random_concept(rng, concepts, roles, 3)
                d = random_concept(rng, concepts, roles, 3)
                agree += entails_ci(t, c, d, cache) == brute_subsumes(t, c, d, max_depth=6)
                checks += 1
            seed += 1
        elapsed = time.time() - started
        report(
            "criterion 5: full agreement with the depth-6 grafting oracle",
            agree == checks and elapsed < 60,
            f"{agree}/{checks} in {elapsed:.1f}s",
        )


class TestCriterion6PolicyIndependence:
    def test_same_pass_rate_per_policy(self):
        rates = {}
        for mode, learner, lang in MODES:
            policies = [POLICY_MINIMAL, POLICY_RANDOMIZED]
            if lang == LANG_CQR:
                policies.append(POLICY_ADVERSARIAL_CQ)
            for policy in policies:
                good = runs = 0
                for seed, t, a0, sess, result, _, _ in run_mode(mode, learner, lang, policy):
                    runs += 1
                    good += inseparable(t, result.hypothesis, a0, lang) is None
                rates[(mode, policy)] = (good, runs)
        ok = all(good == runs for good, runs in rates.values())
        per_mode = {
            mode: {rates[(m, p)][0] for (m, p) in rates if m == mode}
            for mode, _, _ in MODES
        }
        same = all(len(v) == 1 for v in per_mode.values())
        report(
            "criterion 6: pass rate identical under every counterexample policy",
            ok and same,
            "; ".join(f"{k[0]}/{k[1]}={v[0]}/{v[1]}" for k, v in sorted(rates.items())),
        )


class TestCriterion7Updates:
    def test_bisimulation_covered_updates_stay_inseparable(self):
        import random as _random

        from elhlearn.updates import check_bisim_preservation

        cases = good = 0
        seed = 0
        while cases < 100:
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            sess = OracleSession(t, framework_for(t, a0, LANG_IQ))
            h = learn_iq(sess).hypothesis
            rng = _random.Random(seed)
            for variant in range(4):
                inds = sorted(a0.individuals())
                chosen = sorted(rng.sample(inds, rng.randint(1, len(inds))))
                rename = {i: f"{i}_v{variant}" for i in chosen}
                copy = abox(
                    concepts={(n, rename[i]) for n, i in a0.concept_assertions if i in rename},
                    roles={
                        (r, rename[x], rename[y])
                        for r, x, y in a0.role_assertions
                        if x in rename and y in rename
                    },
                    declared={rename[i] for i in chosen},
                )
                a = a0.union(copy)
                if not check_bisim_preservation(t, h, a0, a):
                    continue
                cases += 1
                if inseparable(t, h, a, LANG_IQ) is None:
                    good += 1
                if cases >= 100:
                    break
            seed += 1
        report(
            "criterion 7a: bisimulation-covered updates keep inseparability",
            good == cases,
            f"{good}/{cases}",
        )

    def test_generalised_hypothesis_survives_closure_members(self):
        from elhlearn.updates import enumerate_closure, learn_with_updates

        members = good = 0
        seed = 0
        while members < 100:
            t = random_terminology(seed)
            a0 = covering_abox(seed, t)
            fw = framework_for(t, a0, LANG_IQ, update_closure=True, closure_cap=30)
            res = learn_with_updates(OracleSession(t, fw))
            for m in enumerate_closure(t, a0, cap=30):
                members += 1
                if inseparable(t, res.hypothesis, m, LANG_IQ) is None:
                    good += 1
                if members >= 100:
                    break
            seed += 1
        report(
            "criterion 7b: generalised hypotheses hold on replaced data",
            good == members,
            f"{good}/{members}",
        )


class TestCriterion8Batch:
    def test_offline_replay(self):
        runs = good = 0
        for seed, t, a0 in corpus(covering=True):
            for lang in (LANG_AQ, LANG_IQ, LANG_CQR):
                runs += 1
                items = build_batch(t, a0, lang, seed=seed)
                h = learn_from_batch(items, a0, lang)  # no oracle in reach
                if inseparable(t, h, a0, lang) is None:
                    good += 1
        report(
            "criterion 8: batch replay reproduces inseparable hypotheses offline",
            good == runs,
            f"{good}/{runs}",
        )


class TestCriterion9Pac:
    def test_error_rate_and_schedule(self):
        eps = delta = 0.1
        good = 0
        trials = 100
        for seed in range(trials):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            pool = random_query_pool(seed, t, a0, 60)
            assert len(pool) <= 200
            dist = uniform_distribution([(a0, q) for q in pool], seed=seed)
            sess = OracleSession(t, framework_for(t, a0, LANG_IQ), seed=seed)
            out = pac_from_exact(sess, learn_iq, eps, delta, dist)
            expected = [
                math.ceil((1 / eps) * (math.log(1 / delta) + i * math.log(2)))
                for i in range(1, out.eq_rounds + 1)
            ]
            assert out.schedule == [max(1, m) for m in expected]
            if true_error(out.hypothesis, t, a0, dist) <= eps:
                good += 1
        report(
            "criterion 9: sampled runs meet the error target",
            good >= 90,
            f"{good}/100 within eps",
        )


class TestCriterion10Fixture:
    def test_consistency_speed_and_hardness(self):
        import random as _random

        trials = 1000
        consistent = 0
        steps_by_n: dict[int, list[int]] = {}
        for trial in range(trials):
            rng = _random.Random(trial)
            n = 1 + trial % 12
            fx = HiddenChainFixture(n)
            word = "".join(rng.choice("rs") for _ in range(n))
            support = fx.canonical_support(extra_words=min(2**n, 24), seed=trial)
            if not any(classify_fixture_example(n, word, q) for _, q in support[1:]):
                support.append((fx.fixed_abox(), fx.word_query(word)))
            sample_items = rng.sample(support, min(len(support), 20))
            sample = [
                ((a, q), 1 if classify_fixture_example(n, word, q) else 0)
                for a, q in sample_items
            ]
            h, steps = fixture_pac_learner(sample, n)
            steps_by_n.setdefault(n, []).append(steps)
            ok = all(
                answers_query(h, a, q) == bool(label) for (a, q), label in sample
            )
            consistent += ok
        # fitted growth of the step count in n
        xs = sorted(steps_by_n)
        ys = [sum(steps_by_n[n]) / len(steps_by_n[n]) for n in xs]
        logx = [math.log(x) for x in xs[1:]]
        logy = [math.log(max(y, 1.0)) for y in ys[1:]]
        mx = sum(logx) / len(logx)
        my = sum(logy) / len(logy)
        slope = sum((a - mx) * (b - my) for a, b in zip(logx, logy)) / sum(
            (a - mx) ** 2 for a in logx
        )
        hard = all(
            identify_word_adversarially(n).queries >= 2 ** (n - 1) for n in range(1, 13)
        )
        report(
            "criterion 10: fixture learner consistent, polynomial, adversary exponential",
            consistent == trials and slope <= 3.0 and hard,
            f"consistent {consistent}/{trials}, fitted exponent {slope:.2f}",
        )
