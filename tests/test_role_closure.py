"""The one role closure and the one rewrite loop against the code they replaced.

``reference_roles`` keeps the per-call walk over the role inclusions, the
pairwise ``role_classes`` and ``strict_subroles``, and the three-loop
``saturate_counterexample``.  On genkb seeds 0-199 and on drawn sets of
role inclusions with cycles (equivalent roles), the closure must give every
role's superroles, a role outside the inclusions included; the role classes
the same representatives and subrole lists; and the one rewrite loop the
same query, the same membership questions in the same order and the same
``SaturationStats`` under every counterexample policy.  Role queries,
answered by looking up each role below the asked one, must agree with
``reference_reasoner``'s scan of every role assertion.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings, strategies as st

import reference_reasoner
import reference_roles as ref
from genkb import random_abox, random_terminology
from elhlearn import reasoner
from elhlearn.learn_cqr import SaturationStats, learn_cqr
from elhlearn.learn_iq import role_classes
from elhlearn.reasoner import LANG_CQR, answers_query
from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    ElhError,
    Exists,
    RI,
    RoleQuery,
    TBox,
    signature_of_tbox,
    terminology,
)
from elhlearn.teacher import (
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    OracleSession,
    framework_for,
)
from elhlearn.textio import serialize_tbox

ROLES = ["r1", "r2", "r3", "r4"]
POLICIES = [POLICY_MINIMAL, POLICY_RANDOMIZED, POLICY_ADVERSARIAL_CQ]
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# the module, not the function that ``elhlearn`` exports under the same name
learn_cqr_module = importlib.import_module("elhlearn.learn_cqr")
# the package's loop, bound before any test swaps the module attribute
ONE_LOOP = learn_cqr_module.saturate_counterexample

# role inclusions over four roles, cycles and self-inclusions allowed
role_inclusions = st.frozensets(
    st.builds(RI, st.sampled_from(ROLES), st.sampled_from(ROLES)), max_size=6
)


def assert_same_hierarchy(ris: frozenset[RI], roles) -> None:
    t = TBox(frozenset(), ris)
    pool = sorted(set(roles) | {"outside"})
    for r in pool:
        assert reasoner.superroles(t, r) == ref.superroles(t, r), r
        assert reasoner.role_closure(ris)[r] == ref.superroles(t, r), r
        for s in pool:
            assert reasoner.entails_ri(t, r, s) == ref.entails_ri(t, r, s), (r, s)
    got, want = role_classes(ris, frozenset(roles)), ref.role_classes(ris, frozenset(roles))
    assert got.representative == want.representative
    for r in pool:
        assert got.strict_subroles(r) == want.strict_subroles(r), r


def test_closure_and_classes_match_the_walk_on_genkb_seeds():
    for seed in range(200):
        t = random_terminology(seed)
        assert_same_hierarchy(t.ris, signature_of_tbox(t).role_names)


@SETTINGS
@given(role_inclusions, st.sets(st.sampled_from(ROLES)))
def test_closure_and_classes_match_the_walk_on_drawn_inclusions(ris, extra):
    assert_same_hierarchy(ris, {r for ri in ris for r in (ri.lhs, ri.rhs)} | extra)


def test_closure_and_classes_match_the_walk_on_every_set_over_three_roles():
    pairs = [RI(r, s) for r in ROLES[:3] for s in ROLES[:3]]
    for bits in range(2 ** len(pairs)):
        ris = frozenset(ri for k, ri in enumerate(pairs) if bits >> k & 1)
        assert_same_hierarchy(ris, ROLES[:3])


def test_closure_is_one_value_per_set_of_inclusions():
    ris = frozenset({RI("r", "s"), RI("s", "r")})
    assert reasoner.role_closure(ris) is reasoner.role_closure(frozenset(set(ris)))
    assert reasoner.role_closure(ris)["r"] == {"r", "s"}
    assert reasoner.role_closure(ris)["t"] == {"t"}
    assert "t" not in reasoner.role_closure(ris)


# role assertions over three individuals, with a role no inclusion mentions
# and several roles between one pair
QUERY_ROLES = ROLES + ["outside"]
QUERY_INDS = ["a", "b", "c"]
query_ind = st.sampled_from(QUERY_INDS)
role_assertions = st.frozensets(
    st.tuples(st.sampled_from(QUERY_ROLES), query_ind, query_ind), max_size=8
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(role_inclusions, role_assertions)
def test_role_queries_match_the_scan(ris, assertions):
    t, a = TBox(frozenset(), ris), ABox(role_assertions=assertions)
    for role in QUERY_ROLES + ["unasserted"]:
        for x in QUERY_INDS:
            for y in QUERY_INDS:
                want = reference_reasoner.role_assertion_holds(t, a, role, x, y)
                assert reasoner.role_assertion_holds(t, a, role, x, y) == want, (role, x, y)
                assert answers_query(t, a, RoleQuery(role, x, y)) == want, (role, x, y)
                assert answers_query(t, a, AtomicQuery(role, (x, y))) == want, (role, x, y)


def _run(t, a0, policy, seed, saturate, monkeypatch):
    """A ``learn_cqr`` run through ``saturate``.

    Returns its outcome, transcript, every membership question with its
    answer, and each saturation with its ``SaturationStats``.
    """
    calls = []
    questions = []

    def recording(oracle, h, q, classes, stats=None):
        stats = SaturationStats()
        out = saturate(oracle, h, q, classes, stats)
        calls.append((q, out, stats))
        return out

    monkeypatch.setattr(learn_cqr_module, "saturate_counterexample", recording)
    session = OracleSession(t, framework_for(t, a0, LANG_CQR), policy, seed)
    ask = session.membership

    def asked(a, q):
        questions.append((a, q, ask(a, q)))
        return questions[-1][2]

    session.membership = asked
    try:
        outcome = serialize_tbox(learn_cqr(session).hypothesis)
    except ElhError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, session.export_transcript(), questions, calls


def assert_same_saturations(t, a0, policy, seed, monkeypatch) -> int:
    got = _run(t, a0, policy, seed, ONE_LOOP, monkeypatch)
    want = _run(t, a0, policy, seed, ref.saturate_counterexample, monkeypatch)
    assert got == want, (policy, seed)
    return len(got[3])


@pytest.mark.parametrize("policy", POLICIES)
def test_one_rewrite_loop_matches_the_three_loops_on_genkb_seeds(policy, monkeypatch):
    saturations = 0
    for seed in range(200):
        t = random_terminology(seed)
        saturations += assert_same_saturations(t, random_abox(seed, t), policy, seed, monkeypatch)
    assert saturations


@st.composite
def kbs_with_role_cycles(draw):
    """A target whose role inclusions may be cyclic, and an ABox over its roles."""
    ris = draw(role_inclusions)
    roles = sorted({r for ri in ris for r in (ri.lhs, ri.rhs)} | {"r1"})
    role = st.sampled_from(roles)
    name = st.sampled_from(["A", "B"])
    cis = [
        CI(Atom(draw(name)), Exists(draw(role), Atom(draw(name))))
        for _ in range(draw(st.integers(1, 2)))
    ]
    t = terminology(cis, ris)
    ind = st.sampled_from(["a", "b", "c"])
    roles_of = st.lists(st.tuples(role, ind, ind), min_size=1, max_size=4)
    concepts = st.lists(st.tuples(name, ind), min_size=1, max_size=3)
    return t, ABox(frozenset(draw(concepts)), frozenset(draw(roles_of)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kbs_with_role_cycles(), st.sampled_from(POLICIES))
def test_one_rewrite_loop_matches_the_three_loops_on_role_cycles(kb, policy):
    t, a0 = kb
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_saturations(t, a0, policy, 0, monkeypatch)
