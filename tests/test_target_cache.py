"""Sessions on one target share the teacher's model cache.

The teacher keeps the cache of the target asked about last and hands it to
the next session on an equal target.  The cache is a memo of the reasoner,
so runs that share it must ask the same questions and learn the same thing
as runs that each start from a fresh cache, which is what patching
``teacher._target_cache`` to return a new ``ModelCache`` restores.
"""

from __future__ import annotations

from elhlearn import reasoner, teacher
from elhlearn.learn_aq import learn_aq
from elhlearn.learn_cqr import learn_cqr
from elhlearn.learn_iq import learn_iq
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
from genkb import covering_abox, random_abox, random_terminology

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


def test_another_target_gets_a_fresh_cache():
    first = _session(_target())
    other = terminology([CI(Atom("A"), Atom("B"))])
    second = _session(other)
    assert second._cache is not first._cache
    # the slot now holds ``other``: a session back on the first target starts afresh
    third = _session(_target())
    assert third._cache is not first._cache and third._cache is not second._cache


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
    t = random_terminology(3)
    a0 = random_abox(3, t)
    builds = []
    build_model = reasoner.build_model

    def counted(tbox, a):
        builds.append(tbox == t)
        return build_model(tbox, a)

    monkeypatch.setattr(reasoner, "build_model", counted)
    first = learn_iq(_session(t, a0, LANG_IQ))
    assert any(builds)
    builds.clear()
    second = learn_iq(_session(t, a0, LANG_IQ))
    assert not any(builds)
    assert serialize_tbox(first.hypothesis) == serialize_tbox(second.hypothesis)


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


def test_shared_cache_runs_match_fresh_cache_runs(monkeypatch):
    shared = [_runs_on_one_target(seed) for seed in SEEDS]
    monkeypatch.setattr(teacher, "_target_cache", lambda target: reasoner.ModelCache())
    for seed, have in zip(SEEDS, shared):
        assert have == _runs_on_one_target(seed), f"genkb seed {seed} differs"
