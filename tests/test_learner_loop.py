"""Differential test of the one counterexample loop against the old loops.

``reference_learners`` keeps the loops of ``learn_iq``, ``learn_cqr``,
``learn_with_updates`` and ``build_batch`` as they were written out before
``learn_iq.counterexample_loop`` replaced them, and the atomic phase
``aq_phase`` and ``counterexample_loop`` as each wrote out its own loop
before both ran through ``learn_aq.refine``.  On random ``genkb`` knowledge
bases the package and the reference must ask the same questions and learn
the same thing: the transcripts, the hypotheses (or the error and its
partial hypothesis), the per-iteration statistics, the conversion counts,
the tree examples the atomic phase hands to ``on_tree``, the batch files
and the PAC sampling schedules are compared byte for byte, and a budget
check trips at the same question with the same limit in both phases.
"""

from __future__ import annotations

import pytest

import reference_learners as ref
from genkb import covering_abox, random_abox, random_query_pool, random_terminology
from elhlearn.batch import build_batch, dump_batch, learn_from_batch
from elhlearn.learn_aq import CachedOracle, learn_aq
from elhlearn.learn_cqr import cq_step, learn_cqr
from elhlearn.learn_iq import instance_step, learn_iq
from elhlearn.pac import pac_from_exact, uniform_distribution
from elhlearn.reasoner import LANG_AQ, LANG_CQR, LANG_IQ
from elhlearn.syntax import ElhError
from elhlearn.teacher import (
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    OracleSession,
    framework_for,
)
from elhlearn.textio import serialize_abox, serialize_tbox
from elhlearn.updates import learn_with_updates

SEEDS = range(200)
CLOSURE_CAP = 30


def _kb(seed: int):
    t = random_terminology(seed)
    a0 = random_abox(seed, t)
    return t, a0, covering_abox(seed, t)


def _outcome(call):
    """What a run leaves behind, or the error it ends with."""
    try:
        return "ok", call()
    except ElhError as exc:
        partial = getattr(exc, "partial", None)
        return type(exc).__name__, str(exc), partial and serialize_tbox(partial)


def _learner_run(learner, session):
    def call():
        result = learner(session)
        return serialize_tbox(result.hypothesis), result.iterations, result.conversions

    return _outcome(call), session.export_transcript()


LEARNER_CASES = [
    (learn_iq, ref.learn_iq, LANG_IQ, POLICY_MINIMAL, False),
    (learn_iq, ref.learn_iq, LANG_IQ, POLICY_RANDOMIZED, False),
    (learn_cqr, ref.learn_cqr, LANG_CQR, POLICY_MINIMAL, False),
    (learn_cqr, ref.learn_cqr, LANG_CQR, POLICY_RANDOMIZED, False),
    (learn_cqr, ref.learn_cqr, LANG_CQR, POLICY_ADVERSARIAL_CQ, False),
    (learn_with_updates, ref.learn_with_updates, LANG_IQ, POLICY_MINIMAL, True),
]
# the package's steps through the reference's own ``counterexample_loop``
STEP_CASES = [
    (learn_iq, ref.looped(instance_step), LANG_IQ, POLICY_RANDOMIZED, False),
    (learn_cqr, ref.looped(cq_step), LANG_CQR, POLICY_ADVERSARIAL_CQ, False),
]


@pytest.mark.parametrize(
    "learner, reference, lang, policy, updates",
    LEARNER_CASES + STEP_CASES,
    ids=[f"{case[1].__name__}-{case[3]}" for case in LEARNER_CASES + STEP_CASES],
)
def test_learner_matches_reference(learner, reference, lang, policy, updates):
    fw = {"update_closure": True, "closure_cap": CLOSURE_CAP} if updates else {}
    looped = 0
    for seed in SEEDS:
        t, a0, cover = _kb(seed)
        fixed = cover if updates else a0
        got, want = (
            _learner_run(run, OracleSession(t, framework_for(t, fixed, lang, **fw), policy, seed))
            for run in (learner, reference)
        )
        assert got == want, f"{learner.__name__} ({policy}) differs on genkb seed {seed}"
        looped += '"counterexample"' in got[1]
    # about one seed in five takes a counterexample after the atomic phase
    assert looped >= len(SEEDS) // 10


def _atomic_run(learner, session):
    """A ``learn_aq`` run with the tree examples it hands to ``on_tree``."""
    trees = []

    def on_tree(shaped, name, ind):
        trees.append((serialize_abox(shaped), name, ind))

    return _learner_run(lambda s: learner(s, on_tree=on_tree), session), trees


def test_learn_aq_matches_reference():
    shaped = 0
    for seed in SEEDS:
        t, a0, _ = _kb(seed)
        got, want = (
            _atomic_run(run, OracleSession(t, framework_for(t, a0, LANG_AQ), seed=seed))
            for run in (learn_aq, ref.learn_aq)
        )
        assert got == want, f"learn_aq differs on genkb seed {seed}"
        shaped += bool(got[1])
    # about one seed in seven takes an atomic counterexample
    assert shaped >= len(SEEDS) // 10


@pytest.mark.parametrize(
    "learner, lang, policy",
    [case[:1] + case[2:4] for case in LEARNER_CASES[:5]],
    ids=[f"{case[0].__name__}-{case[3]}" for case in LEARNER_CASES[:5]],
)
def test_value_keyed_memo_matches_repr_keyed(learner, lang, policy, monkeypatch):
    def runs():
        for seed in SEEDS:
            t, a0, _ = _kb(seed)
            yield _learner_run(learner, OracleSession(t, framework_for(t, a0, lang), policy, seed))

    got = list(runs())
    monkeypatch.setattr(CachedOracle, "membership", ref.repr_keyed_membership)
    for seed, have, want in zip(SEEDS, got, runs()):
        assert have == want, f"{learner.__name__} ({policy}) differs on genkb seed {seed}"


class _SpentAfterFirstEq:
    """A session whose spent input jumps past every budget after one EQ.

    The genkb runs stay far below the loop's budget, so this is what makes
    the budget check trip, at the same question and with the same limit in
    its message as the reference's.
    """

    def __init__(self, session):
        self.session = session

    def __getattr__(self, name):
        return getattr(self.session, name)

    @property
    def eq_input_size_sum(self):
        return self.session.eq_input_size_sum + (10**18 if self.session.eq_count else 0)


class _SpentAfterMqs:
    """A session whose spent input jumps past every budget after ``n`` MQs.

    The bootstrap checks no budget, so a run trips at its first check after
    the ``n``-th membership question: in the atomic phase's first round when
    the bootstrap alone asks more, in a later round otherwise.
    """

    def __init__(self, session, n: int):
        self.session = session
        self.n = n

    def __getattr__(self, name):
        return getattr(self.session, name)

    @property
    def mq_input_size_sum(self):
        return self.session.mq_input_size_sum + (10**18 if self.session.mq_count > self.n else 0)


@pytest.mark.parametrize(
    "learner, reference, lang",
    [(learn_aq, ref.learn_aq, LANG_AQ), (learn_iq, ref.learn_iq, LANG_IQ)],
    ids=["learn_aq", "learn_iq"],
)
def test_atomic_budget_trips_where_the_reference_trips(learner, reference, lang):
    tripped = later = 0
    for seed in SEEDS:
        t, a0, _ = _kb(seed)
        # the jump moves through the MQs of the whole atomic phase
        full = OracleSession(t, framework_for(t, a0, LANG_AQ))
        ref.learn_aq(full)
        for n in range(0, full.mq_count, max(1, full.mq_count // 4)):
            runs = []
            for run in (learner, reference):
                session = OracleSession(t, framework_for(t, a0, lang))
                runs.append(_learner_run(lambda s: run(_SpentAfterMqs(s, n)), session))
            assert runs[0] == runs[1], f"{learner.__name__} differs on seed {seed} after {n} MQs"
            (kind, *rest), transcript = runs[0]
            if kind != "BudgetExceededError" or '"EQ"' in transcript:
                continue
            tripped += 1
            # past the first round the partial hypothesis has a tree inclusion
            lhs = [line[3:].split("[=")[0].strip() for line in rest[1].splitlines()]
            later += any(" " in side for side in lhs)
    assert tripped >= len(SEEDS) and later >= len(SEEDS) // 10


@pytest.mark.parametrize(
    "learner, reference, lang, updates",
    [
        (learn_iq, ref.learn_iq, LANG_IQ, False),
        (learn_cqr, ref.learn_cqr, LANG_CQR, False),
        (learn_with_updates, ref.learn_with_updates, LANG_IQ, True),
    ],
    ids=["learn_iq", "learn_cqr", "learn_with_updates"],
)
def test_budget_trips_where_the_reference_trips(learner, reference, lang, updates):
    fw = {"update_closure": True, "closure_cap": CLOSURE_CAP} if updates else {}
    tripped = 0
    for seed in SEEDS:
        t, a0, cover = _kb(seed)
        runs = []
        for run in (learner, reference):
            session = OracleSession(t, framework_for(t, cover if updates else a0, lang, **fw))
            runs.append(_learner_run(lambda s: run(_SpentAfterFirstEq(s)), session))
        assert runs[0] == runs[1], f"{learner.__name__} differs on genkb seed {seed}"
        tripped += runs[0][0][0] == "BudgetExceededError"
    assert tripped >= len(SEEDS) // 10


@pytest.mark.parametrize("lang", [LANG_AQ, LANG_IQ, LANG_CQR])
def test_batch_matches_reference(lang):
    looped = 0
    for seed in SEEDS:
        t, _, cover = _kb(seed)

        def run(build):
            items = build(t, cover, lang, seed=seed)
            return dump_batch(items), serialize_tbox(learn_from_batch(items, cover, lang))

        got = _outcome(lambda: run(build_batch))
        assert got == _outcome(lambda: run(ref.build_batch)), (
            f"batch ({lang}) differs on genkb seed {seed}"
        )
        looped += got[0] == "ok" and '"kind": "iq"' in got[1][0]
    assert (looped >= len(SEEDS) // 10) == (lang != LANG_AQ)


@pytest.mark.parametrize(
    "lang, learner, reference",
    [(LANG_IQ, learn_iq, ref.learn_iq), (LANG_CQR, learn_cqr, ref.learn_cqr)],
    ids=["iq", "cqr"],
)
def test_pac_matches_reference(lang, learner, reference):
    for seed in SEEDS:
        t, a0, _ = _kb(seed)
        dist = uniform_distribution([(a0, q) for q in random_query_pool(seed, t, a0)], seed=seed)

        def run(exact):
            session = OracleSession(t, framework_for(t, a0, lang), seed=seed)
            out = _outcome(lambda: pac_from_exact(session, exact, 0.1, 0.1, dist))
            if out[0] == "ok":
                res = out[1]
                out = (serialize_tbox(res.hypothesis), res.schedule, res.samples_used, res.eq_rounds)
            return out, session.export_transcript()

        assert run(learner) == run(reference), f"pac ({lang}) differs on genkb seed {seed}"
