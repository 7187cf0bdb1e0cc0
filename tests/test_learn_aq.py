import importlib
import time

from hypothesis import given, settings, strategies as st

from genkb import random_abox, random_terminology
from elhlearn import reasoner
from elhlearn.learn_aq import (
    CachedOracle,
    _first_positive,
    bootstrap_atomic,
    find_cycle,
    learn_aq,
    minimize_abox,
    tree_shape,
    unfold_cycle,
)
from reference_cycle import (
    _validate_cycle,
    find_cycle as reference_find_cycle,
    unfold_cycle as reference_unfold_cycle,
)
from reference_simulation import abox_interpretation
from elhlearn.reasoner import LANG_AQ, answers_query, entails_ci, entails_ri, inseparable, is_simulation
from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    Exists,
    RI,
    Signature,
    TBox,
    TOP,
    Tree,
    abox,
    canonical,
    size_of,
    terminology,
)
from elhlearn.teacher import Framework, OracleSession, framework_for

# the package exports the function ``learn_aq`` under the module's name
learn_aq_module = importlib.import_module("elhlearn.learn_aq")


def session_for(t, a0, lang=LANG_AQ, **kw):
    return OracleSession(t, framework_for(t, a0, lang), **kw)


def ex1():
    t = terminology(
        [CI(Atom("B"), Exists("s", Atom("B"))), CI(Exists("r", Exists("s", Atom("B"))), Atom("A"))]
    )
    return t, abox(concepts=[("B", "b")], roles=[("r", "a", "b")])


class TestBootstrap:
    def test_atomic_ci(self):
        t = terminology([CI(Atom("A1"), Atom("A2"))])
        oracle = CachedOracle(session_for(t, abox(concepts=[("A1", "x")])))
        cis, ris = bootstrap_atomic(oracle)
        assert cis == {CI(Atom("A1"), Atom("A2"))}
        assert not ris

    def test_ri(self):
        t = terminology([], [RI("r", "s")])
        oracle = CachedOracle(session_for(t, abox(roles=[("r", "x", "y")])))
        cis, ris = bootstrap_atomic(oracle)
        assert ris == {RI("r", "s")}
        assert not cis

    def test_complex_rhs_is_not_atomic(self):
        t = terminology([CI(Atom("A1"), Exists("r1", Atom("A2")))])
        oracle = CachedOracle(session_for(t, abox(concepts=[("A1", "x")])))
        cis, ris = bootstrap_atomic(oracle)
        assert not cis and not ris


class TestUnfold:
    def test_two_cycle_becomes_four_cycle(self):
        a = abox(roles=[("r", "a", "b"), ("r", "b", "a")])
        out = unfold_cycle(a, find_cycle(a))
        assert len(out.individuals()) == 4
        assert len(out.role_assertions) == 4
        assert find_cycle(out) is not None  # still one cycle, twice as long

    def test_self_loop_becomes_two_cycle(self):
        a = abox(roles=[("r", "a", "a")])
        out = unfold_cycle(a, find_cycle(a))
        assert sorted(out.role_assertions) == [("r", "a", "a_hat"), ("r", "a_hat", "a")]

    def test_labels_and_external_edges_copied(self):
        a = abox(
            concepts=[("A", "a")],
            roles=[("r", "a", "b"), ("s", "b", "a"), ("u", "a", "ext")],
        )
        out = unfold_cycle(a, find_cycle(a))
        assert ("A", "a_hat") in out.concept_assertions
        assert ("u", "a_hat", "ext") in out.role_assertions

    def test_unfolding_admits_simulation_and_homomorphism(self):
        a = abox(concepts=[("A", "a")], roles=[("r", "a", "b"), ("s", "b", "a")])
        out = unfold_cycle(a, find_cycle(a))
        sim = {(i, i) for i in a.individuals()}
        sim |= {(i, f"{i}_hat") for i in a.individuals() if f"{i}_hat" in out.individuals()}
        assert is_simulation(sim, abox_interpretation(a), abox_interpretation(out))
        collapse = {(i, i.replace("_hat", "")) for i in out.individuals()}
        assert is_simulation(collapse, abox_interpretation(out), abox_interpretation(a))

    def test_parallel_edges_count_as_cycle(self):
        a = abox(roles=[("r", "a", "b"), ("s", "a", "b")])
        found = find_cycle(a)
        assert found is not None and found[1] == {"a", "b"}

    def test_tree_has_no_cycle(self):
        assert find_cycle(abox(roles=[("r", "a", "b"), ("s", "a", "c")])) is None


def is_forest(role_assertions) -> bool:
    """Does no undirected path lead from an assertion's end back to its start without it?

    Checked by deleting each assertion in turn and searching for another path
    between its endpoints; a self-loop is a cycle on its own.
    """
    for e in role_assertions:
        _, x, y = e
        if x == y:
            return False
        seen, frontier = {x}, [x]
        while frontier:
            node = frontier.pop()
            for other in role_assertions - {e}:
                _, u, v = other
                for here, there in ((u, v), (v, u)):
                    if here == node and there not in seen:
                        seen.add(there)
                        frontier.append(there)
        if y in seen:
            return False
    return True


INDIVIDUALS = "abcdef"


@st.composite
def aboxes(draw):
    """Small ABoxes with labels and declared names that a copy would take."""
    roles = draw(
        st.frozensets(
            st.tuples(
                st.sampled_from("rs"), st.sampled_from(INDIVIDUALS), st.sampled_from(INDIVIDUALS)
            ),
            max_size=7,
        )
    )
    concepts = draw(
        st.frozensets(st.tuples(st.sampled_from("AB"), st.sampled_from(INDIVIDUALS)), max_size=4)
    )
    names = [f"{i}_hat" for i in INDIVIDUALS] + [f"{i}_hatx" for i in INDIVIDUALS] + ["g"]
    declared = draw(st.frozensets(st.sampled_from(names), max_size=4))
    return ABox(concepts, roles, declared)


class TestFindCycle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(aboxes())
    def test_none_exactly_when_the_assertions_form_a_forest(self, a):
        assert (find_cycle(a) is None) == is_forest(a.role_assertions)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(aboxes())
    def test_unfolding_matches_the_step_list_reference(self, a):
        cycle = reference_find_cycle(a)
        if cycle is None:
            assert find_cycle(a) is None
            return
        _validate_cycle(a, cycle)
        assert unfold_cycle(a, find_cycle(a)) == reference_unfold_cycle(a, cycle)

    def test_a_long_chain_has_no_cycle_at_once(self):
        chain = abox(roles=[("r", f"c{i}", f"c{i + 1}") for i in range(20_000)])
        started = time.perf_counter()
        assert find_cycle(chain) is None
        # the per-assertion search took 0.6 s at 1,500 edges
        assert time.perf_counter() - started < 5

    def test_a_self_loop_on_a_long_chain_is_found_at_once(self):
        roles = [("r", f"c{i}", f"c{i + 1}") for i in range(3_000)] + [("r", "c0", "c0")]
        chain = abox(roles=roles)
        started = time.perf_counter()
        assert find_cycle(chain) == (("r", "c0", "c0"), frozenset({"c0"}))
        # one search per assertion, bridges included, took 2.5 s here
        assert time.perf_counter() - started < 1

    def test_one_closing_assertion_is_found_on_a_long_chain(self):
        n = 300
        roles = [("r", f"c{i}", f"c{i + 1}") for i in range(n)] + [("s", f"c{n}", "c0")]
        found = find_cycle(abox(roles=roles))
        assert found is not None and len(found[1]) == n + 1


class TestMinimize:
    def test_removes_irrelevant_individual(self):
        t = terminology([CI(Exists("r", Atom("B")), Atom("A"))])
        a = abox(concepts=[("B", "b"), ("C1", "c")], roles=[("r", "a", "b")])
        oracle = CachedOracle(
            OracleSession(
                t,
                Framework(
                    a,
                    LANG_AQ,
                    Signature(frozenset({"A", "B", "C1"}), frozenset({"r"})),
                ),
            )
        )
        witness = _first_positive(oracle, TBox(), a)
        assert witness == ("A", "a")
        out = minimize_abox(oracle, a, TBox(), a.individuals(), witness)
        assert "c" not in out.individuals()

    def test_nothing_removable(self):
        t, a0 = ex1()
        oracle = CachedOracle(session_for(t, a0))
        witness = _first_positive(oracle, TBox(), a0)
        assert witness == ("A", "a")
        out = minimize_abox(oracle, a0, TBox(), a0.individuals(), witness)
        assert out.individuals() == {"a", "b"}

    def test_no_witness_when_hypothesis_covers(self):
        t, a0 = ex1()
        oracle = CachedOracle(session_for(t, a0))
        h = terminology([CI(Exists("r", Atom("B")), Atom("A"))])
        assert _first_positive(oracle, h, a0) is None


class TestTreeShape:
    def test_already_tree(self):
        t, a0 = ex1()
        oracle = CachedOracle(session_for(t, a0))
        witness = _first_positive(oracle, TBox(), a0)
        assert witness == ("A", "a")
        shaped = tree_shape(oracle, a0, TBox(), witness)
        assert find_cycle(shaped) is None

    def test_self_loop_unfolds(self):
        t = terminology([CI(Exists("r1", Exists("r1", TOP)), Atom("A1"))])
        a0 = abox(roles=[("r1", "c", "c")])
        oracle = CachedOracle(session_for(t, a0))
        witness = _first_positive(oracle, TBox(), a0)
        assert witness == ("A1", "c")
        shaped = tree_shape(oracle, a0, TBox(), witness)
        assert find_cycle(shaped) is None
        assert len(shaped.individuals()) > 1  # grew past the loop

    def test_individual_counts_grow_and_stay_bounded(self, monkeypatch):
        # every minimization in tree shaping, the first and one per
        # unfolding round, records the individual count it leaves
        minimize = learn_aq_module.minimize_abox
        counts: list[int] = []

        def recording(*args, **kwargs):
            out = minimize(*args, **kwargs)
            counts.append(len(out.individuals()))
            return out

        monkeypatch.setattr(learn_aq_module, "minimize_abox", recording)
        unfolded = 0
        # a cycle survives the first minimization on 14 of these seeds
        for seed in range(400):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            oracle = CachedOracle(session_for(t, a0))
            counts.clear()
            witness = _first_positive(oracle, TBox(), a0)
            if witness is None:  # no counterexample on this seed
                continue
            shaped = tree_shape(oracle, a0, TBox(), witness)
            assert counts[-1] == len(shaped.individuals())
            assert all(before < after for before, after in zip(counts, counts[1:]))
            unfolded += len(counts) > 1
            assert len(shaped.individuals()) <= size_of(t)
        assert unfolded >= 10


class TestLearnAq:
    def test_atomic_target(self):
        t = terminology([CI(Atom("B"), Atom("A"))], [RI("r", "s")])
        a0 = abox(concepts=[("B", "b")])
        res = learn_aq(session_for(t, a0))
        assert entails_ci(res.hypothesis, Atom("B"), Atom("A"))
        assert entails_ri(res.hypothesis, "r", "s")
        assert inseparable(t, res.hypothesis, a0, LANG_AQ) is None

    def test_example_target_learns_shorter_left_side(self):
        t, a0 = ex1()
        res = learn_aq(session_for(t, a0))
        assert CI(Exists("r", Atom("B")), Atom("A")) in res.hypothesis.cis
        assert inseparable(t, res.hypothesis, a0, LANG_AQ) is None

    def test_empty_target(self):
        fw = Framework(
            abox(concepts=[("B", "b")]),
            LANG_AQ,
            Signature(frozenset({"A", "B"}), frozenset({"r"})),
        )
        res = learn_aq(OracleSession(TBox(), fw))
        assert res.hypothesis.cis == frozenset()

    def test_mq_only_mode_uses_no_eq(self):
        t, a0 = ex1()
        sess = session_for(t, a0)
        learn_aq(sess)
        assert sess.eq_count == 0

    def test_positive_bounded(self):
        for seed in range(25):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            res = learn_aq(session_for(t, a0))
            for ci in res.hypothesis.cis:
                assert entails_ci(t, ci.lhs, ci.rhs)
            for ri in res.hypothesis.ris:
                assert entails_ri(t, ri.lhs, ri.rhs)

    def test_each_iteration_adds_a_covering_inclusion(self):
        # per iteration: target entails the witness fact, the old hypothesis
        # does not, and the extended hypothesis does
        from elhlearn.learn_aq import aq_phase, tree_shape, _record_iteration, LearnResult
        from elhlearn.reasoner import answers_query

        for seed in range(20):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            sess = session_for(t, a0)
            oracle = CachedOracle(sess)
            cis, ris = bootstrap_atomic(oracle)
            h = terminology(cis, ris)
            sig = oracle.framework.signature
            for _ in range(200):
                hit = None
                for nm in sorted(sig.concept_names):
                    for ind in sorted(a0.individuals()):
                        q = AtomicQuery(nm, (ind,))
                        if not oracle.holds_locally(h, a0, q) and oracle.membership(a0, q):
                            hit = (nm, ind)
                            break
                    if hit:
                        break
                if hit is None:
                    break
                shaped = tree_shape(oracle, a0, h, hit)
                wname, wind = hit
                fact = AtomicQuery(wname, (wind,))
                assert answers_query(t, a0, fact)
                assert not answers_query(h, a0, fact)
                learned = CI(Tree.of_abox(shaped, wind).concept(), Atom(wname))
                h = terminology(set(h.cis) | {learned}, h.ris)
                assert answers_query(h, a0, fact)
            assert inseparable(t, h, a0, LANG_AQ) is None

    def test_top_only_inclusion_learnable(self):
        t = terminology([CI(TOP, Atom("A1"))])
        a0 = abox(declared=["c"], concepts=[("A2", "d")])
        fw = Framework(a0, LANG_AQ, Signature(frozenset({"A1", "A2"}), frozenset()))
        res = learn_aq(OracleSession(t, fw))
        assert inseparable(t, res.hypothesis, a0, LANG_AQ) is None
        assert answers_query(res.hypothesis, a0, AtomicQuery("A1", ("c",)))


def test_membership_memo_is_keyed_on_the_abox_value(monkeypatch):
    keyed = []

    def counted(a):
        keyed.append(a)
        return abox_key(a)

    abox_key = reasoner.abox_key
    monkeypatch.setattr(reasoner, "abox_key", counted)
    t, a0 = ex1()
    oracle = CachedOracle(session_for(t, a0))
    queries = [AtomicQuery("A", ("a",)), AtomicQuery("B", ("b",)), AtomicQuery("A", ("b",))]
    copy = ABox(frozenset(set(a0.concept_assertions)), frozenset(set(a0.role_assertions)))
    answers = [oracle.membership(a, q) for _ in range(3) for a in (a0, copy) for q in queries]
    assert answers == [True, True, False] * 6
    assert oracle.session.mq_count == 3  # equal ABoxes share memo entries
    assert keyed == [a0]  # only the session's model cache keys the ABox, once
