from genkb import random_abox, random_terminology
from elhlearn.learn_aq import CachedOracle
from elhlearn.learn_cqr import (
    SaturationStats,
    _var_key,
    cq_to_iq,
    learn_cqr,
    saturate_counterexample,
    variable_subquery_concept,
)
from elhlearn.reasoner import LANG_CQR, answers_query, inseparable
from elhlearn.syntax import (
    Atom,
    CI,
    ConceptQuery,
    ConjunctiveQuery,
    Exists,
    RI,
    RoleAtom,
    StructuralError,
    TBox,
    TOP,
    Var,
    abox,
    size_of,
    terminology,
)
from elhlearn.teacher import OracleSession, POLICY_ADVERSARIAL_CQ, framework_for


def check_saturated_shape(q: ConjunctiveQuery) -> None:
    """After saturation every variable heads a tree with one individual above it."""
    for x in sorted(q.exist_vars, key=_var_key):
        variable_subquery_concept(q, x)  # raises when not tree shaped
        feeders = {
            atom.subj
            for atom in q.atoms
            if isinstance(atom, RoleAtom) and atom.obj == x and isinstance(atom.subj, str)
        }
        var_parents = {
            atom.subj
            for atom in q.atoms
            if isinstance(atom, RoleAtom) and atom.obj == x and isinstance(atom.subj, Var)
        }
        if len(feeders) + len(var_parents) != 1:
            raise StructuralError(f"variable {x.name} must have exactly one parent")


def fig1():
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
    return t, a0, q


class TestSaturation:
    def test_figure_query_merges_to_chain(self):
        t, a0, q = fig1()
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_CQR)))
        out = saturate_counterexample(oracle, TBox(), q)
        assert len(out.exist_vars) == 2
        assert len(out.atoms) == 2
        check_saturated_shape(out)

    def test_variable_free_query_unchanged(self):
        t, a0, _ = fig1()
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_CQR)))
        q = ConjunctiveQuery(("a",), frozenset(), frozenset({RoleAtom("r", "a", "a")}))
        # not a positive counterexample, but saturation has nothing to touch
        assert saturate_counterexample(oracle, TBox(), q) == q

    def test_saturation_budget(self):
        t, a0, q = fig1()
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_CQR)))
        stats = SaturationStats()
        saturate_counterexample(oracle, TBox(), q, stats=stats)
        qsize = size_of(q)
        a0size = size_of(a0)
        assert stats.individual_mqs <= a0size * qsize
        assert stats.merge_mqs <= qsize * qsize
        assert stats.role_mqs <= qsize * 2

    def test_individual_saturation_pins_variables(self):
        from elhlearn.syntax import ConceptAtom

        t = terminology([CI(Atom("A1"), Atom("A2"))])
        a0 = abox(concepts=[("A1", "b")], roles=[("r1", "a", "b")])
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_CQR)))
        q = ConjunctiveQuery(
            ("a",),
            frozenset({Var("x")}),
            frozenset({RoleAtom("r1", "a", Var("x")), ConceptAtom("A2", Var("x"))}),
        )
        out = saturate_counterexample(oracle, TBox(), q)
        assert not out.exist_vars  # x became the individual b
        assert ConceptAtom("A2", "b") in out.atoms


class TestConversion:
    def test_figure_conversion(self):
        t, a0, q = fig1()
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_CQR)))
        iq = cq_to_iq(oracle, TBox(), q)
        assert iq == ConceptQuery(Exists("r", Exists("s", TOP)), "a")

    def test_atom_query_short_circuits(self):
        t = terminology([CI(Exists("r1", TOP), Atom("A2"))])
        a0 = abox(concepts=[("A1", "a")], roles=[("r1", "a", "b")])
        oracle = CachedOracle(OracleSession(t, framework_for(t, a0, LANG_CQR)))
        from elhlearn.syntax import ConceptAtom, AtomicQuery

        q = ConjunctiveQuery(("a",), frozenset(), frozenset({ConceptAtom("A2", "a")}))
        out = cq_to_iq(oracle, TBox(), q)
        assert out == AtomicQuery("A2", ("a",))

    def test_conversion_output_is_counterexample(self):
        for seed in range(40):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            sess = OracleSession(
                t, framework_for(t, a0, LANG_CQR), policy=POLICY_ADVERSARIAL_CQ
            )
            hit = sess.inseparability(TBox())
            if hit is None:
                continue
            a, q = hit
            if not isinstance(q, ConjunctiveQuery):
                continue
            oracle = CachedOracle(sess)
            out = cq_to_iq(oracle, TBox(), q)
            assert answers_query(t, a, out)
            assert not answers_query(TBox(), a, out)

    def test_tree_shape_after_saturation(self):
        for seed in range(40):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            sess = OracleSession(
                t, framework_for(t, a0, LANG_CQR), policy=POLICY_ADVERSARIAL_CQ
            )
            hit = sess.inseparability(TBox())
            if hit is None:
                continue
            _, q = hit
            if not isinstance(q, ConjunctiveQuery):
                continue
            oracle = CachedOracle(sess)
            out = saturate_counterexample(oracle, TBox(), q)
            check_saturated_shape(out)


class TestLearnCqr:
    def test_figure_target_with_adversarial_oracle(self):
        t, a0, _ = fig1()
        sess = OracleSession(t, framework_for(t, a0, LANG_CQR), policy=POLICY_ADVERSARIAL_CQ)
        res = learn_cqr(sess)
        assert res.conversions > 0
        assert inseparable(t, res.hypothesis, a0, LANG_CQR) is None

    def test_ri_only_target_needs_no_conversion(self):
        t = terminology([], [RI("r", "s")])
        a0 = abox(roles=[("r", "c", "d")])
        sess = OracleSession(t, framework_for(t, a0, LANG_CQR))
        res = learn_cqr(sess)
        assert res.conversions == 0
        assert inseparable(t, res.hypothesis, a0, LANG_CQR) is None

    def test_random_targets(self):
        for seed in range(30):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            res = learn_cqr(OracleSession(t, framework_for(t, a0, LANG_CQR)))
            assert inseparable(t, res.hypothesis, a0, LANG_CQR) is None
