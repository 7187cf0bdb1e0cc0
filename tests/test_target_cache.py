"""Sessions on one target share the teacher's two private model stores.

The teacher keeps two ``ModelCache`` stores for the target asked about
last, one of target models and one of hypothesis models, and hands both to
the next session on an equal target.  The learner gets neither: each
session gives it a fresh ``OracleSession.hypothesis_models`` backed by the
private store of hypothesis models.  That store holds only the models its
own session asked it for, so a learner finds there nothing of an earlier
session, not even a hypothesis equal to the target, while a model built
once per target is still taken from the backing store.  The teacher and
the PAC oracle never ask the learner's store.  The stores are memos of the
reasoner, so runs that share them must ask the same questions and learn
the same thing as runs that each start from fresh stores, which is what
patching ``teacher._target_cache`` to return two new ``ModelCache`` stores
restores.
"""

from __future__ import annotations

import pytest

from elhlearn import reasoner, teacher
from elhlearn.learn_aq import learn_aq
from elhlearn.learn_cqr import learn_cqr
from elhlearn.learn_iq import learn_iq
from elhlearn.pac import SampledEqOracle, pac_from_exact, uniform_distribution
from elhlearn.reasoner import LANG_AQ, LANG_CQR, LANG_IQ
from elhlearn.syntax import CI, AtomicQuery, Atom, ElhError, abox, terminology
from elhlearn.teacher import (
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    OracleSession,
    framework_for,
)
from elhlearn.textio import serialize_tbox
from elhlearn.updates import learn_with_updates
from genkb import covering_abox, random_abox, random_query_pool, random_terminology

SEEDS = range(200)
A0 = abox(concepts=[("B", "b")])


def _target():
    return terminology([CI(Atom("B"), Atom("A"))])


def _session(t, a0=A0, lang=LANG_AQ, **kw):
    return OracleSession(t, framework_for(t, a0, lang), **kw)


def test_an_equal_target_gets_the_same_cache():
    first, second = _session(_target()), _session(_target())
    assert first._target is not second._target
    assert first._cache is second._cache
    assert first._hypotheses is second._hypotheses
    assert first._cache is not first._hypotheses
    # the learner's store is the session's own, backed by the shared one
    assert first.hypothesis_models is not second.hypothesis_models
    for session in (first, second):
        assert session.hypothesis_models._backing is session._hypotheses


def test_another_target_gets_a_fresh_cache():
    first = _session(_target())
    other = terminology([CI(Atom("A"), Atom("B"))])
    second = _session(other)
    assert second._cache is not first._cache
    assert second._hypotheses is not first._hypotheses
    # the slot now holds ``other``: a session back on the first target starts afresh
    third = _session(_target())
    for earlier in (first, second):
        assert third._cache is not earlier._cache
        assert third._hypotheses is not earlier._hypotheses


def test_an_earlier_session_keeps_its_cache_and_answers():
    first = _session(_target())
    cache = first._cache
    other = terminology([CI(Atom("A"), Atom("B"))])
    second = _session(other)
    q = AtomicQuery("A", ("x",))
    assert first.membership(abox(concepts=[("B", "x")]), q) is True
    assert second.membership(abox(concepts=[("B", "x")]), q) is False
    assert first._cache is cache
    assert first.inseparability(_target()) is None
    assert first.inseparability(other) is not None


def test_a_second_run_builds_no_model_of_the_target(monkeypatch):
    """Nor of any hypothesis: on an equal target and fixed ABox, a second
    run of ``learn_iq`` or ``learn_cqr`` builds no model at all."""
    t = random_terminology(3)
    a0 = random_abox(3, t)
    builds = []
    build_model = reasoner.build_model

    def counted(tbox, a):
        builds.append(tbox == t)
        return build_model(tbox, a)

    monkeypatch.setattr(reasoner, "build_model", counted)
    for learner, lang in [(learn_iq, LANG_IQ), (learn_cqr, LANG_CQR)]:
        # the first run starts from fresh stores
        monkeypatch.setattr(teacher, "_last_target", (None, ()))
        builds.clear()
        first = learner(_session(t, a0, lang))
        # models of the target and of the hypotheses
        assert any(builds) and not all(builds), learner
        builds.clear()
        second = learner(_session(t, a0, lang))
        assert builds == [], learner
        assert serialize_tbox(first.hypothesis) == serialize_tbox(second.hypothesis)


def test_a_later_session_sees_nothing_of_an_earlier_one(monkeypatch):
    """Not even a learned hypothesis equal to the target: its model stays in
    the private store, where a later learner's own question still finds it."""
    monkeypatch.setattr(teacher, "_last_target", (None, ()))
    t = _target()
    first = _session(t, lang=LANG_IQ)
    learned = learn_iq(first).hypothesis
    assert learned == t
    key = (reasoner.kb_key(t), reasoner.abox_key(A0))
    assert key in first.hypothesis_models._store
    second = _session(_target(), lang=LANG_IQ)
    store = second.hypothesis_models
    assert not store._store and store._last == (None, None, None)
    assert key in second._hypotheses._store
    monkeypatch.setattr(reasoner, "build_model", None)
    assert store.get(terminology([CI(Atom("B"), Atom("A"))]), A0) is not None
    assert list(store._store) == [key]


RUNS = [
    (learn_aq, LANG_AQ, POLICY_MINIMAL, False),
    (learn_iq, LANG_IQ, POLICY_MINIMAL, False),
    (learn_iq, LANG_IQ, POLICY_RANDOMIZED, False),
    (learn_cqr, LANG_CQR, POLICY_MINIMAL, False),
    (learn_cqr, LANG_CQR, POLICY_RANDOMIZED, False),
    (learn_cqr, LANG_CQR, POLICY_ADVERSARIAL_CQ, False),
    (learn_with_updates, LANG_IQ, POLICY_MINIMAL, True),
]


def _runs_on_one_target(seed: int) -> list:
    """Every learner and policy, back to back on genkb seed ``seed``'s target."""
    t = random_terminology(seed)
    a0, cover = random_abox(seed, t), covering_abox(seed, t)
    out = []
    for learner, lang, policy, updates in RUNS:
        fw = (
            framework_for(t, cover, lang, update_closure=True, closure_cap=30)
            if updates
            else framework_for(t, a0, lang)
        )
        session = OracleSession(t, fw, policy, seed)
        try:
            outcome = serialize_tbox(learner(session).hypothesis)
        except ElhError as exc:
            outcome = type(exc).__name__, str(exc)
        out.append((outcome, session.export_transcript()))
    return out


class _StoreSpy:
    """Watches the ``hypothesis_models`` of every session opened while on.

    ``asks`` gets the seed of each question that the teacher or the PAC
    oracle put to such a store.  ``strays`` gets the seed of each store that
    held a model when its session opened or, at ``settle``, a model that its
    own session did not ask it for.
    """

    def __init__(self, mp: pytest.MonkeyPatch):
        self.seed: int | None = None
        self.asks: list[int] = []
        self.strays: list[int] = []
        self._opened: list = []
        self._depth = 0
        init = OracleSession.__init__

        def watched(session, *args, **kw):
            init(session, *args, **kw)
            self._watch(session.hypothesis_models)

        mp.setattr(OracleSession, "__init__", watched)
        for cls, name in [
            (OracleSession, "membership"),
            (OracleSession, "inseparability"),
            (OracleSession, "example"),
            (SampledEqOracle, "inseparability"),
        ]:
            mp.setattr(cls, name, self._oracle_side(getattr(cls, name)))

    def _oracle_side(self, method):
        def run(*args, **kw):
            self._depth += 1
            try:
                return method(*args, **kw)
            finally:
                self._depth -= 1

        return run

    def _watch(self, store: reasoner.ModelCache) -> None:
        if store._store:
            self.strays.append(self.seed)
        asked: set = set()
        get = store.get

        def spied(tbox, a):
            if self._depth:
                self.asks.append(self.seed)
            asked.add((reasoner.kb_key(tbox), reasoner.abox_key(a)))
            return get(tbox, a)

        store.get = spied
        self._opened.append((store, asked))

    def settle(self) -> None:
        for store, asked in self._opened:
            if not set(store._store) <= asked:
                self.strays.append(self.seed)
        self._opened.clear()


@pytest.fixture(scope="module")
def shared_runs():
    """The runs of every seed on the shared stores, and the spy that watched
    the learner's store of each session."""
    with pytest.MonkeyPatch.context() as mp:
        spy = _StoreSpy(mp)
        runs = []
        for seed in SEEDS:
            spy.seed = seed
            runs.append(_runs_on_one_target(seed))
            spy.settle()
    return runs, spy


def test_the_teacher_never_asks_the_learners_store(shared_runs):
    _, spy = shared_runs
    assert spy.asks == []


def test_a_learners_store_holds_only_what_its_session_asked(shared_runs):
    _, spy = shared_runs
    assert spy.strays == []


def test_pac_rounds_leave_the_learners_store_alone():
    rounds = 0
    with pytest.MonkeyPatch.context() as mp:
        spy = _StoreSpy(mp)
        for seed in range(20):
            spy.seed = seed
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            dist = uniform_distribution(
                [(a0, q) for q in random_query_pool(seed, t, a0)], seed=seed
            )
            session = OracleSession(t, framework_for(t, a0, LANG_IQ), seed=seed)
            try:
                rounds += pac_from_exact(session, learn_iq, 0.1, 0.1, dist).eq_rounds
            except ElhError:
                pass
            spy.settle()
    assert rounds > 0
    assert spy.asks == [] and spy.strays == []


def test_shared_cache_runs_match_fresh_cache_runs(monkeypatch, shared_runs):
    shared, _ = shared_runs
    monkeypatch.setattr(
        teacher, "_target_cache", lambda target: (reasoner.ModelCache(), reasoner.ModelCache())
    )
    for seed, have in zip(SEEDS, shared):
        assert have == _runs_on_one_target(seed), f"genkb seed {seed} differs"
