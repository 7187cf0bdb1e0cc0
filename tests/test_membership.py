"""Atomic membership questions against the way they were answered before.

``reference_membership`` keeps ``answers_query``, the signature check of
``OracleSession.membership``, ``size_of`` and ``bootstrap_atomic`` as they
were before a unary atomic query read the model's label.  On the genkb
knowledge bases of seeds 0-199, on random ABoxes, on individuals no ABox
mentions and on names outside the signature, the package must give the
same answers with the same model-cache requests, the same sizes, the same
rejections and the same transcripts, and its learners must ask the same
questions.  Unary answers are also checked against the brute-force model.
"""

from __future__ import annotations

import pytest

import reference_membership as ref
from bruteforce import brute_instance
from genkb import random_abox, random_query_pool, random_terminology
from test_learner_loop import SEEDS, _kb, _outcome
from elhlearn.learn_aq import learn_aq
from elhlearn.learn_cqr import learn_cqr
from elhlearn.learn_iq import learn_iq
from elhlearn.reasoner import LANG_AQ, LANG_CQR, LANG_IQ, ModelCache, answers_query
from elhlearn.syntax import (
    CI,
    TOP,
    ABox,
    Atom,
    AtomicQuery,
    ConceptAtom,
    ConjunctiveQuery,
    Exists,
    RejectedQueryError,
    RoleAtom,
    RoleQuery,
    Var,
    signature_of_abox,
    signature_of_tbox,
    size_of,
    terminology,
)
from elhlearn.teacher import POLICY_MINIMAL, OracleSession, framework_for
from elhlearn.textio import serialize_tbox

# a concept name, a role name and an individual that no genkb input uses
NAME, ROLE, ABSENT = "Zed", "zed", "nobody"
# every individual has the target's top names, so one without assertions too
TOP_KB = terminology([CI(TOP, Atom("A1")), CI(Atom("A1"), Exists("r1", Atom("A2")))])


class CountingCache(ModelCache):
    """A model cache that lists the ABoxes it is asked for."""

    def __init__(self):
        super().__init__()
        self.asked: list[ABox] = []

    def get(self, t, a):
        self.asked.append(a)
        return super().get(t, a)


def _kbs():
    """Each target with the ABoxes to ask about: genkb's and random ones."""
    for seed in SEEDS:
        t, a0, cover = _kb(seed)
        # one ABox uses a name and a role outside the target's signature
        outside = ABox(frozenset({(NAME, "i1")}), frozenset({(ROLE, "i1", "i2")}))
        extra = random_abox(seed + len(SEEDS), t, max_inds=4, max_assertions=6)
        yield seed, t, a0, [a0, cover, extra, outside, ABox(), ABox(declared=frozenset({"i0"}))]
    a = random_abox(0, TOP_KB)
    yield len(SEEDS), TOP_KB, a, [a, ABox()]


def _atomic_queries(t, a):
    """Unary AQs on every concept name and individual, role AQs on every role."""
    sig = signature_of_tbox(t).union(signature_of_abox(a))
    inds = sorted(a.individuals() | {ABSENT})
    for name in sorted(sig.concept_names | {NAME}):
        for ind in inds:
            yield AtomicQuery(name, (ind,))
    for role in sorted(sig.role_names | {ROLE}):
        for x in inds:
            for y in inds[:3]:
                yield AtomicQuery(role, (x, y))
    # a name of one kind in the place of the other
    for role in sorted(sig.role_names):
        yield AtomicQuery(role, (inds[0],))
    for name in sorted(sig.concept_names):
        yield AtomicQuery(name, (inds[0], inds[-1]))


def test_answers_and_model_requests_match_the_reference():
    absent_yes = 0
    for seed, t, _, aboxes in _kbs():
        cache, ref_cache = CountingCache(), CountingCache()
        for a in aboxes:
            for q in _atomic_queries(t, a):
                got = answers_query(t, a, q, cache)
                assert got == ref.answers_query(t, a, q, ref_cache), (seed, a, q)
                absent_yes += got and q.args == (ABSENT,)
        assert cache.asked == ref_cache.asked, seed
        # without a cache, on the fixed ABox
        for q in _atomic_queries(t, aboxes[0]):
            assert answers_query(t, aboxes[0], q) == ref.answers_query(t, aboxes[0], q), (seed, q)
    assert absent_yes > 0


def test_sizes_match_the_reference():
    cq = ConjunctiveQuery(
        ("i0",),
        frozenset({Var("x")}),
        frozenset({RoleAtom("r1", "i0", Var("x")), ConceptAtom("A1", Var("x"))}),
    )
    for seed, t, a0, aboxes in _kbs():
        objects = [t, *t.cis, *t.ris, *(ci.rhs for ci in t.cis), *aboxes, cq]
        objects += [RoleQuery("r1", "i0", "i1"), *random_query_pool(seed, t, a0)]
        objects += [q for a in aboxes for q in _atomic_queries(t, a)]
        for obj in objects:
            assert size_of(obj) == ref.size_of(obj), (seed, obj)
    for obj in (3, "A1", None, Var("x"), ConceptAtom("A1", "i0")):
        messages = []
        for size in (size_of, ref.size_of):
            with pytest.raises(TypeError) as info:
                size(obj)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def _ask(session, a, q):
    try:
        return session.membership(a, q)
    except RejectedQueryError as exc:
        return str(exc)


def test_rejections_and_transcripts_match_the_reference():
    rejected = allowed_by_abox = 0
    for seed, t, a0, aboxes in _kbs():
        fw = framework_for(t, a0, LANG_CQR)
        session, reference = OracleSession(t, fw), ref.ReferenceSession(t, fw)
        for a in aboxes:
            pool = random_query_pool(seed, t, a) if a.individuals() else []
            for q in [*_atomic_queries(t, a), *pool]:
                got = _ask(session, a, q)
                assert got == _ask(reference, a, q), (seed, a, q)
                rejected += isinstance(got, str)
                allowed_by_abox += not isinstance(got, str) and NAME in repr(q)
        assert session.export_transcript() == reference.export_transcript(), seed
    assert rejected > 0 and allowed_by_abox > 0


LEARNERS = [(learn_aq, LANG_AQ), (learn_iq, LANG_IQ), (learn_cqr, LANG_CQR)]


@pytest.mark.parametrize("learner, lang", LEARNERS, ids=[c[0].__name__ for c in LEARNERS])
def test_learners_ask_the_same_questions(learner, lang):
    for seed in SEEDS:
        t, a0, _ = _kb(seed)

        def run():
            session = OracleSession(t, framework_for(t, a0, lang), POLICY_MINIMAL, seed)
            learned = _outcome(lambda: serialize_tbox(learner(session).hypothesis))
            return learned, session.export_transcript()

        got = run()
        with ref.patched():
            assert got == run(), f"{learner.__name__} on genkb seed {seed}"


def test_unary_answers_match_brute_force():
    for seed in range(60):
        t = random_terminology(seed)
        a = random_abox(seed, t, max_inds=3, max_assertions=4)
        names = signature_of_tbox(t).union(signature_of_abox(a)).concept_names | {NAME}
        for ind in sorted(a.individuals() | {ABSENT}):
            # the data with the individual in it, asserted about or not
            with_ind = ABox(a.concept_assertions, a.role_assertions, a.declared | {ind})
            for name in sorted(names):
                want = brute_instance(t, with_ind, Atom(name), ind)
                assert answers_query(t, a, AtomicQuery(name, (ind,))) == want, (seed, name, ind)
    t = TOP_KB
    assert answers_query(t, ABox(), AtomicQuery("A1", (ABSENT,)))
    assert brute_instance(t, ABox(declared=frozenset({ABSENT})), Atom("A1"), ABSENT)
