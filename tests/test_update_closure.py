"""The linear-derivation closure against its reference, and what a session computes once.

``reference_updates`` asks ``entails_ci`` once per name pair and rebuilds
the one-step maps for every assertion it replaces.  ``updates`` reads every
name's subsumers from one model and builds the maps once per enumeration;
the verdicts, the maps and the ordered closure lists must not change.  The
count tests pin down the saving: one model per enumeration, one enumeration
per session, one support check per distribution.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import reference_updates as ref
from genkb import covering_abox, random_abox, random_terminology
from elhlearn import reasoner, teacher, updates
from elhlearn.pac import uniform_distribution
from elhlearn.reasoner import LANG_AQ, LANG_IQ
from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    ConceptQuery,
    ConfigurationError,
    Exists,
    RI,
    TOP,
    abox,
    conj,
    normalize,
    signature_of_tbox,
    terminology,
)
from elhlearn.teacher import OracleSession, framework_for
from elhlearn.updates import enumerate_closure, learn_with_updates

CONCEPTS = ["A1", "A2", "A3", "A4"]
ROLES = ["r1", "r2", "r3"]
INDS = ["i0", "i1", "i2", "i3"]
CAPS = (4, 30, 200)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def concepts(draw, depth: int):
    if depth <= 0 or draw(st.integers(0, 99)) < 40:
        return TOP if draw(st.integers(0, 99)) < 5 else Atom(draw(st.sampled_from(CONCEPTS)))
    if draw(st.booleans()):
        return Exists(draw(st.sampled_from(ROLES)), draw(concepts(depth - 1)))
    return normalize(conj(*draw(st.lists(concepts(depth - 1), min_size=2, max_size=3))))


@st.composite
def terminologies(draw):
    """Name chains and cycles, complex sides on either side, top on the left."""
    cis = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            lhs, rhs = draw(st.sampled_from(CONCEPTS)), draw(st.sampled_from(CONCEPTS))
            cis.append(CI(Atom(lhs), Atom(rhs)))
        elif kind == 1:
            cis.append(CI(Atom(draw(st.sampled_from(CONCEPTS))), draw(concepts(2))))
        elif kind == 2:
            cis.append(CI(draw(concepts(2)), Atom(draw(st.sampled_from(CONCEPTS)))))
        else:
            cis.append(CI(TOP, draw(concepts(1))))
    pairs = st.tuples(st.sampled_from(ROLES), st.sampled_from(ROLES))
    ris = [RI(x, y) for x, y in draw(st.lists(pairs, max_size=3)) if x != y]
    return terminology(cis, ris)


@st.composite
def aboxes(draw):
    inds = st.sampled_from(INDS)
    cas = draw(st.lists(st.tuples(st.sampled_from(CONCEPTS), inds), max_size=5))
    ras = draw(st.lists(st.tuples(st.sampled_from(ROLES), inds, inds), max_size=4))
    declared = draw(st.lists(inds, max_size=1))
    return ABox(frozenset(cas), frozenset(ras), frozenset(declared))


def linear_derivation(t, x, y, kind="concept"):
    """The one-model definition that ``_one_step_targets`` reads, for any x and y."""
    sig = signature_of_tbox(t)
    names = sig.role_names if kind == "role" else sig.concept_names
    return updates._steps_to(updates._entailed_names(t, names | {x, y}, kind), x, y)


def assert_same_closure(t, a0):
    assert updates._one_step_targets(t) == ref._one_step_targets(t)
    sig = signature_of_tbox(t)
    for kind, names in (("concept", sig.concept_names), ("role", sig.role_names)):
        # a name the TBox does not mention, on either side, and x == y
        pool = sorted(names) + ["Outside"]
        for x in pool:
            for y in pool:
                assert linear_derivation(t, x, y, kind) == ref.linear_derivation(t, x, y, kind), (
                    kind, x, y,
                )
    for cap in CAPS:
        assert list(enumerate_closure(t, a0, cap)) == list(ref.enumerate_closure(t, a0, cap))


@SETTINGS
@given(terminologies(), aboxes())
def test_closure_matches_reference(t, a0):
    assert_same_closure(t, a0)


def test_closure_matches_reference_on_genkb_seeds():
    for seed in range(200):
        t = random_terminology(seed)
        assert_same_closure(t, covering_abox(seed, t) if seed % 2 else random_abox(seed, t))


def test_unknown_kind_is_rejected():
    with pytest.raises(ConfigurationError):
        updates._entailed_names(terminology([]), {"A", "B"}, "other")


@pytest.fixture
def model_count(monkeypatch):
    calls = []
    build = reasoner.build_model

    def counted(t, a):
        calls.append(a)
        return build(t, a)

    monkeypatch.setattr(reasoner, "build_model", counted)
    return calls


def test_one_enumeration_builds_one_model(model_count):
    for seed in range(20):
        t = random_terminology(seed)
        a0 = covering_abox(seed, t)
        del model_count[:]
        members = list(enumerate_closure(t, a0, cap=200))
        assert len(model_count) <= 1, seed
        # the reference asks one model per subsumption, many per assertion
        del model_count[:]
        assert list(ref.enumerate_closure(t, a0, cap=200)) == members
        assert len(model_count) > 1 or not members


def test_session_enumerates_its_closure_once(monkeypatch):
    made = []
    enumerate_ = updates.enumerate_closure

    def counted(t, a0, cap=200):
        made.append(cap)
        return enumerate_(t, a0, cap)

    monkeypatch.setattr(updates, "enumerate_closure", counted)
    several_eqs = 0
    for seed in range(12):
        t = random_terminology(seed)
        a0 = covering_abox(seed, t)
        session = OracleSession(t, framework_for(t, a0, LANG_IQ, update_closure=True, closure_cap=30))
        del made[:]
        learn_with_updates(session)
        assert made in ([], [30]), seed
        several_eqs += session.eq_count > 1
    assert several_eqs


def chain_session(lang=LANG_IQ):
    t = terminology([CI(Atom("A"), Atom("B")), CI(Atom("B"), Exists("r", Atom("C")))])
    a0 = abox(concepts=[("A", "a"), ("C", "b")], roles=[("r", "a", "b")])
    return OracleSession(t, framework_for(t, a0, lang), seed=3), a0


@pytest.fixture
def support_checks(monkeypatch):
    checked = []
    in_language = teacher.query_in_language

    def counted(q, lang):
        checked.append(q)
        return in_language(q, lang)

    monkeypatch.setattr(teacher, "query_in_language", counted)
    return checked


def test_support_is_checked_once_per_distribution(support_checks):
    session, a0 = chain_session()
    first = uniform_distribution([(a0, AtomicQuery(n, ("a",))) for n in "ABC"], seed=1)
    second = uniform_distribution(
        [(a0, AtomicQuery("B", ("b",))), (a0, ConceptQuery(Exists("r", Atom("C")), "a"))]
    )
    for _ in range(10):
        session.example(first)
    assert len(support_checks) == 3
    # a different distribution is checked on its own first draw
    session.example(second)
    assert len(support_checks) == 5
    for _ in range(5):
        session.example(first)
        session.example(second)
    assert len(support_checks) == 5
    assert session.ex_count == 21


def test_bad_support_fails_on_the_first_draw(support_checks):
    session, a0 = chain_session()
    wrong_abox = uniform_distribution([(abox(concepts=[("A", "z")]), AtomicQuery("A", ("z",)))])
    with pytest.raises(ConfigurationError):
        session.example(wrong_abox)
    aq_session, _ = chain_session(LANG_AQ)
    outside = uniform_distribution([(a0, ConceptQuery(Exists("r", Atom("C")), "a"))])
    with pytest.raises(ConfigurationError):
        aq_session.example(outside)
    # a failed check is not remembered
    with pytest.raises(ConfigurationError):
        aq_session.example(outside)
    assert aq_session.ex_count == 0
