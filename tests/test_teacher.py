import json

import pytest

from elhlearn import teacher
from elhlearn.pac import uniform_distribution
from elhlearn.reasoner import LANG_AQ, LANG_CQR, LANG_IQ, answers_query
from elhlearn.syntax import (
    Atom,
    AtomicQuery,
    BudgetExceededError,
    CI,
    ConceptQuery,
    ConfigurationError,
    ConjunctiveQuery,
    Exists,
    RejectedQueryError,
    StructuralError,
    TBox,
    TOP,
    abox,
    conj,
    size_of,
    terminology,
)
from elhlearn.teacher import (
    Framework,
    OracleSession,
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    duplicate_variables,
    framework_for,
)


def fig1_target():
    return terminology([CI(Atom("A"), Exists("r", Exists("s", TOP)))])


def test_membership_answers_and_counts():
    t = terminology([CI(Atom("B"), Atom("A"))])
    sess = OracleSession(t, framework_for(t, abox(concepts=[("B", "b")]), LANG_AQ))
    a = abox(concepts=[("B", "x")])
    q = AtomicQuery("A", ("x",))
    assert sess.membership(a, q) is True
    assert sess.membership(a, AtomicQuery("B", ("x",))) is True
    assert sess.membership(abox(concepts=[("A", "x")]), AtomicQuery("B", ("x",))) is False
    assert sess.mq_count == 3
    assert sess.mq_input_size_sum == 3 * (size_of(a) + size_of(q))


def test_fig1_membership():
    t = fig1_target()
    a0 = abox(concepts=[("A", "a")])
    sess = OracleSession(t, framework_for(t, a0, LANG_CQR))
    assert sess.membership(a0, ConceptQuery(Exists("r", Exists("s", TOP)), "a"))


def test_signature_enforcement():
    t = terminology([CI(Atom("B"), Atom("A"))])
    sess = OracleSession(t, framework_for(t, abox(concepts=[("B", "b")]), LANG_AQ))
    with pytest.raises(RejectedQueryError):
        sess.membership(abox(concepts=[("B", "x")]), AtomicQuery("ZZZ", ("x",)))
    with pytest.raises(RejectedQueryError):
        sess.inseparability(terminology([CI(Atom("Other"), Atom("A"))]))


def test_inseparability_yes_and_counterexample():
    t = terminology([CI(Atom("B"), Atom("A"))])
    a0 = abox(concepts=[("B", "b")])
    sess = OracleSession(t, framework_for(t, a0, LANG_AQ))
    assert sess.inseparability(t) is None
    hit = sess.inseparability(TBox())
    assert hit is not None
    a, q = hit
    assert q == AtomicQuery("A", ("b",))
    assert sess.eq_count == 2
    assert sess.largest_counterexample == size_of(a) + size_of(q)


def test_counterexamples_are_positive_for_positive_bounded_hypotheses():
    t = fig1_target()
    a0 = abox(concepts=[("A", "a")])
    sess = OracleSession(t, framework_for(t, a0, LANG_IQ))
    a, q = sess.inseparability(TBox())
    assert answers_query(t, a, q) and not answers_query(TBox(), a, q)


def test_adversarial_cq_policy_returns_merged_query():
    t = fig1_target()
    a0 = abox(concepts=[("A", "a")])
    sess = OracleSession(t, framework_for(t, a0, LANG_CQR), policy=POLICY_ADVERSARIAL_CQ)
    a, q = sess.inseparability(TBox())
    assert isinstance(q, ConjunctiveQuery)
    assert answers_query(t, a, q) and not answers_query(TBox(), a, q)


def test_adversarial_policy_needs_cqr():
    t = fig1_target()
    with pytest.raises(ConfigurationError):
        OracleSession(
            t, framework_for(t, abox(concepts=[("A", "a")]), LANG_IQ), policy=POLICY_ADVERSARIAL_CQ
        )


def test_duplicate_variables_matches_figure_shape():
    q = duplicate_variables(ConceptQuery(Exists("r", Exists("s", TOP)), "a"))
    assert len(q.exist_vars) == 5
    assert len(q.atoms) == 6


def test_randomized_policy_is_seed_deterministic():
    t = terminology([CI(Atom("B"), Atom("A")), CI(Atom("B"), Atom("C"))])
    a0 = abox(concepts=[("B", "b")])
    picks = set()
    for seed in range(6):
        sess = OracleSession(t, framework_for(t, a0, LANG_AQ), policy=POLICY_RANDOMIZED, seed=seed)
        _, q = sess.inseparability(TBox())
        sess2 = OracleSession(t, framework_for(t, a0, LANG_AQ), policy=POLICY_RANDOMIZED, seed=seed)
        _, q2 = sess2.inseparability(TBox())
        assert q == q2
        picks.add(repr(q))
    assert len(picks) > 1


def test_cq_language_inseparability_unsupported():
    # inseparability is decided for aq, iq and rooted CQs only, so no
    # framework accepts the unrestricted CQ language
    t = fig1_target()
    with pytest.raises(ConfigurationError):
        framework_for(t, abox(concepts=[("A", "a")]), "cq")


def test_example_oracle_labels_and_support_check():
    t = terminology([CI(Atom("B"), Atom("A"))])
    a0 = abox(concepts=[("B", "b")])
    sess = OracleSession(t, framework_for(t, a0, LANG_IQ), seed=3)
    pos = (a0, AtomicQuery("A", ("b",)))
    neg = (a0, AtomicQuery("A2", ("b",)))
    dist = uniform_distribution([pos], seed=1)
    assert sess.example(dist)[1] == 1
    dist2 = uniform_distribution([neg], seed=1)
    assert sess.example(dist2)[1] == 0
    with pytest.raises(ConfigurationError):
        sess.example(uniform_distribution([(abox(concepts=[("B", "zz")]), pos[1])]))


def test_example_oracle_frequency():
    t = terminology([CI(Atom("B"), Atom("A"))])
    a0 = abox(concepts=[("B", "b")])
    sess = OracleSession(t, framework_for(t, a0, LANG_IQ), seed=11)
    pos = (a0, AtomicQuery("A", ("b",)))
    neg = (a0, AtomicQuery("A2", ("b",)))
    dist = uniform_distribution([pos, neg], seed=11)
    hits = sum(sess.example(dist)[1] for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_transcript_accounting():
    t = terminology([CI(Atom("B"), Atom("A"))])
    a0 = abox(concepts=[("B", "b")])
    sess = OracleSession(t, framework_for(t, a0, LANG_AQ))
    sess.membership(a0, AtomicQuery("A", ("b",)))
    sess.inseparability(TBox())
    lines = sess.export_transcript().splitlines()
    entries = [json.loads(line) for line in lines]
    assert [e["kind"] for e in entries] == ["MQ", "EQ"]
    mq_sum = sum(e["inputSize"] for e in entries if e["kind"] == "MQ")
    eq_sum = sum(e["inputSize"] for e in entries if e["kind"] == "EQ")
    assert mq_sum == sess.mq_input_size_sum
    assert eq_sum == sess.eq_input_size_sum
    assert entries[-1]["runningTotals"]["inputSize"] == mq_sum + eq_sum


def test_session_budget():
    t = terminology([CI(Atom("B"), Atom("A"))])
    a0 = abox(concepts=[("B", "b")])
    sess = OracleSession(t, framework_for(t, a0, LANG_AQ), max_total_input=5)
    with pytest.raises(BudgetExceededError):
        for _ in range(5):
            sess.membership(a0, AtomicQuery("A", ("b",)))


def test_each_abox_is_sized_once_per_value(monkeypatch):
    sized = []

    def counted(obj):
        sized.append(obj)
        return size_of(obj)

    monkeypatch.setattr(teacher, "size_of", counted)
    t = terminology([CI(Atom("B"), Atom("A"))])
    a0 = abox(concepts=[("B", "b")], roles=[("r", "b", "c")])
    sess = OracleSession(t, framework_for(t, a0, LANG_AQ))
    queries = [AtomicQuery(n, (i,)) for n in "AB" for i in "bc"]
    for q in queries:
        sess.membership(a0, q)
        sess.membership(abox(concepts=[("B", "b")], roles=[("r", "b", "c")]), q)  # equal value
        sess.example(uniform_distribution([(a0, q)]))
    assert sess.inseparability(TBox()) is not None
    assert [x for x in sized if x == a0] == [a0]
    # the sizes logged are those of the whole example, ABox included
    assert sess.transcript[0].input_size == size_of(a0) + size_of(queries[0])
    assert sess.largest_counterexample == size_of(a0) + 4


def test_a_name_of_two_kinds_is_rejected_by_the_framework():
    t = terminology([CI(Atom("B"), Exists("r", Atom("A")))])
    for a0 in (abox(concepts=[("B", "A")]), abox(roles=[("r", "b", "r")]),
               abox(concepts=[("r", "b")])):
        with pytest.raises(StructuralError, match="name used in two namespaces"):
            framework_for(t, a0, LANG_IQ)
