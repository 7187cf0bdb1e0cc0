import pytest

from genkb import random_abox, random_terminology
from elhlearn.learn_aq import CachedOracle
from elhlearn.learn_iq import (
    RoleClasses,
    concept_saturate,
    decompose_right,
    learn_iq,
    merge_reduced,
    reduce_ci,
    reduce_counterexample,
    role_classes,
    role_saturate,
    sibling_merge,
    tree_node_count,
    _atomic_equivalence,
)
from elhlearn.reasoner import LANG_IQ, answers_query, entails_ci, entails_ri, inseparable
from elhlearn.syntax import (
    Atom,
    CI,
    ConceptQuery,
    ContractViolationError,
    Exists,
    RI,
    Signature,
    TBox,
    TOP,
    abox,
    canonical,
    conj,
    normalize,
    signature_of_tbox,
    size_of,
    terminology,
)
from elhlearn.teacher import Framework, OracleSession, framework_for


def oracle_for(t, a0, lang=LANG_IQ):
    return CachedOracle(OracleSession(t, framework_for(t, a0, lang)))


def is_fully_reduced(
    oracle: CachedOracle, h: TBox, classes: RoleClasses, equivalent_names, ci: CI
) -> bool:
    """No single reduction step applies any more (checked, not trusted)."""
    lhs = ci.lhs.name
    rhs = normalize(ci.rhs)
    if canonical(concept_saturate(oracle, lhs, rhs)) != canonical(rhs):
        return False
    if canonical(role_saturate(oracle, classes, lhs, rhs)) != canonical(rhs):
        return False
    if canonical(sibling_merge(oracle, lhs, rhs)) != canonical(rhs):
        return False
    return decompose_right(oracle, h, equivalent_names, lhs, rhs) is None


class TestReduceCounterexample:
    def test_walks_to_the_singleton(self):
        t = terminology([CI(Atom("A"), Exists("r", Atom("D")))])
        a = abox(concepts=[("A", "b")], roles=[("r", "a", "b")])
        oracle = oracle_for(t, a)
        ci = reduce_counterexample(
            oracle, a, Exists("r", Exists("r", Atom("D"))), "a", TBox()
        )
        assert ci == CI(Atom("A"), Exists("r", Atom("D")))

    def test_no_recursion_needed(self):
        t = terminology([CI(Atom("A"), Exists("r", TOP))])
        a = abox(concepts=[("A", "a")])
        oracle = oracle_for(t, a)
        ci = reduce_counterexample(oracle, a, Exists("r", TOP), "a", TBox())
        assert ci == CI(Atom("A"), Exists("r", TOP))

    def test_rejects_non_counterexample(self):
        t = terminology([CI(Atom("A"), Exists("r", TOP))])
        a = abox(concepts=[("A", "a")])
        oracle = oracle_for(t, a)
        with pytest.raises(ContractViolationError):
            reduce_counterexample(oracle, a, Exists("r", TOP), "a", t)

    def test_output_is_positive_counterexample(self):
        for seed in range(30):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            sess = OracleSession(t, framework_for(t, a0, LANG_IQ))
            oracle = CachedOracle(sess)
            sep = inseparable(t, TBox(), a0, LANG_IQ)
            if sep is None or not isinstance(sep.query, ConceptQuery):
                continue
            from elhlearn.learn_aq import saturate_with_hypothesis

            saturated = saturate_with_hypothesis(
                TBox(), a0, oracle.framework.signature, oracle.cache
            )
            try:
                ci = reduce_counterexample(
                    oracle, saturated, sep.query.concept, sep.query.ind, TBox()
                )
            except ContractViolationError:
                continue  # atomic-phase counterexample, not this op's job
            assert entails_ci(t, ci.lhs, ci.rhs)
            assert not entails_ci(TBox(), ci.lhs, ci.rhs)


class TestReductions:
    def saturation_setup(self):
        t = terminology(
            [CI(Atom("B"), Atom("A")), CI(Atom("A"), Exists("s", Atom("B")))],
            [RI("s", "r")],
        )
        a0 = abox(concepts=[("A", "a")])
        return t, oracle_for(t, a0)

    def test_concept_saturation_example(self):
        t, oracle = self.saturation_setup()
        out = concept_saturate(oracle, "A", Exists("r", Atom("A")))
        assert out == normalize(conj(Atom("A"), Exists("r", conj(Atom("A"), Atom("B")))))

    def test_role_saturation_example(self):
        t, oracle = self.saturation_setup()
        classes = role_classes(t.ris, frozenset({"r", "s"}))
        saturated = normalize(conj(Atom("A"), Exists("r", conj(Atom("A"), Atom("B")))))
        out = role_saturate(oracle, classes, "A", saturated)
        assert out == normalize(conj(Atom("A"), Exists("s", conj(Atom("A"), Atom("B")))))

    def test_fixpoint_is_stable(self):
        t, oracle = self.saturation_setup()
        classes = role_classes(t.ris, frozenset({"r", "s"}))
        equivalent = _atomic_equivalence({CI(Atom("B"), Atom("A"))})
        ci = reduce_ci(oracle, TBox(), classes, equivalent, "A", Exists("r", Atom("A")))
        assert is_fully_reduced(oracle, TBox(), classes, equivalent, ci)

    def test_sibling_merge_combines_children(self):
        t = terminology([CI(Atom("A"), Exists("r", conj(Atom("B"), Atom("C"))))])
        oracle = oracle_for(t, abox(concepts=[("A", "a")]))
        merged = sibling_merge(
            oracle, "A", conj(Exists("r", Atom("B")), Exists("r", Atom("C")))
        )
        assert merged == Exists("r", conj(Atom("B"), Atom("C")))

    def test_sibling_merge_keeps_separate_witnesses_apart(self):
        t = terminology([CI(Atom("A"), conj(Exists("r", Atom("B")), Exists("r", Atom("C"))))])
        oracle = oracle_for(t, abox(concepts=[("A", "a")]))
        merged = sibling_merge(
            oracle, "A", conj(Exists("r", Atom("B")), Exists("r", Atom("C")))
        )
        assert merged == normalize(conj(Exists("r", Atom("B")), Exists("r", Atom("C"))))


class TestSizeBound:
    def test_reduced_inclusions_are_small(self):
        for seed in range(40):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            sess = OracleSession(t, framework_for(t, a0, LANG_IQ))
            res = learn_iq(sess)
            sig = signature_of_tbox(t)
            bound = (len(sig.concept_names) + len(sig.role_names)) * size_of(t)
            for ci in res.hypothesis.cis:
                if isinstance(ci.lhs, Atom) and not isinstance(ci.rhs, (Atom,)):
                    assert size_of(ci.rhs) <= max(bound, 1), (
                        canonical(ci.lhs),
                        canonical(ci.rhs),
                    )


class TestMerge:
    def test_identical_parts(self):
        t = terminology([CI(Atom("A"), Exists("r", Atom("B")))])
        oracle = oracle_for(t, abox(concepts=[("A", "a")]))
        classes = role_classes(frozenset(), frozenset({"r"}))
        equivalent = _atomic_equivalence(set())
        c = reduce_ci(oracle, TBox(), classes, equivalent, "A", Exists("r", Atom("B"))).rhs
        merged = merge_reduced(oracle, TBox(), classes, equivalent, "A", c, c)
        assert entails_ci(TBox(), merged, c)
        assert entails_ci(TBox(), c, merged)

    def test_single_successor_target_merges_branches(self):
        t = terminology([CI(Atom("A"), Exists("r", conj(Atom("B"), Atom("C"))))])
        oracle = oracle_for(t, abox(concepts=[("A", "a")]))
        classes = role_classes(frozenset(), frozenset({"r"}))
        equivalent = _atomic_equivalence(set())
        c1 = reduce_ci(oracle, TBox(), classes, equivalent, "A", Exists("r", Atom("B"))).rhs
        c2 = reduce_ci(oracle, TBox(), classes, equivalent, "A", Exists("r", Atom("C"))).rhs
        merged = merge_reduced(oracle, TBox(), classes, equivalent, "A", c1, c2)
        assert entails_ci(TBox(), merged, Exists("r", conj(Atom("B"), Atom("C"))))
        assert entails_ci(TBox(), merged, c1) and entails_ci(TBox(), merged, c2)

    def test_merge_is_fully_reduced(self):
        t = terminology([CI(Atom("A"), conj(Exists("r", Atom("B")), Exists("r", Atom("C"))))])
        oracle = oracle_for(t, abox(concepts=[("A", "a")]))
        classes = role_classes(frozenset(), frozenset({"r"}))
        equivalent = _atomic_equivalence(set())
        c1 = reduce_ci(oracle, TBox(), classes, equivalent, "A", Exists("r", Atom("B"))).rhs
        c2 = reduce_ci(oracle, TBox(), classes, equivalent, "A", Exists("r", Atom("C"))).rhs
        merged = merge_reduced(oracle, TBox(), classes, equivalent, "A", c1, c2)
        assert is_fully_reduced(oracle, TBox(), classes, equivalent, CI(Atom("A"), merged))


def _unravel(model, anchor, depth):
    """Explicit bounded unravelling: elements are the named anchor or paths."""
    root = ("n", anchor)
    nodes = {root}
    edges = []
    frontier = [(root, ("n", anchor), 0)]
    while frontier:
        el, pos, d = frontier.pop()
        if d >= depth:
            continue
        for roles, tgt in model.edges[pos]:
            if tgt[0] == "n":
                child = ("n", tgt[1]) if el[0] == "n" else None
                if child is None:
                    continue  # anonymous elements have no named successors
                edges.append((el, roles, child))
                if child not in nodes:
                    nodes.add(child)
                    frontier.append((child, tgt, d + 1))
            else:
                child = (el, roles, tgt[1])
                edges.append((el, roles, child))
                if child not in nodes:
                    nodes.add(child)
                    frontier.append((child, tgt, d + 1))
    def label(el):
        if el[0] == "n":
            return model.labels[("n", el[1])]
        return model.labels[("a", el[2])]
    return nodes, edges, label


def _all_homs(tree, model, anchor, depth):
    nodes, edges, label = _unravel(model, anchor, depth)
    out_edges = {}
    for src, roles, dst in edges:
        out_edges.setdefault(src, []).append((roles, dst))
    results = []

    def go(node, el, assignment):
        if not tree.labels[node] <= label(el):
            return
        assignment = dict(assignment)
        assignment[node] = el
        kids = tree.children(node)

        def assign_kids(k, current):
            if k == len(kids):
                results.append(dict(current))
                return
            child, role = kids[k]
            for roles, dst in out_edges.get(el, []):
                if role in roles:
                    sub = _collect(child, dst, current)
                    for filled in sub:
                        assign_kids(k + 1, filled)

        def _collect(node2, el2, current):
            saved = list(results)
            results.clear()
            go(node2, el2, current)
            found = list(results)
            results.clear()
            results.extend(saved)
            return found

        assign_kids(0, assignment)

    go(tree.root, ("n", anchor), {})
    return results


class TestIsomorphicEmbedding:
    def test_root_homs_into_own_model_are_injective(self):
        from elhlearn.syntax import abox_of_concept, tree_of_concept
        from elhlearn.reasoner import build_model

        checked = 0
        for seed in range(40):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            res = learn_iq(OracleSession(t, framework_for(t, a0, LANG_IQ)))
            for ci in res.hypothesis.cis:
                if not isinstance(ci.lhs, Atom) or isinstance(ci.rhs, Atom):
                    continue
                tree = tree_of_concept(normalize(ci.rhs))
                enc, root = abox_of_concept(normalize(ci.rhs))
                model = build_model(t, enc)
                for hom in _all_homs(tree, model, root, tree.node_count() + 1):
                    if len(hom) == tree.node_count():
                        assert len(set(map(repr, hom.values()))) == len(hom)
                        checked += 1
        assert checked >= 5


class TestLearnIq:
    def test_single_existential_target(self):
        t = terminology([CI(Atom("A"), Exists("r", Atom("B")))])
        a0 = abox(concepts=[("A", "a")])
        res = learn_iq(OracleSession(t, framework_for(t, a0, LANG_IQ)))
        assert inseparable(t, res.hypothesis, a0, LANG_IQ) is None

    def test_example_target_covers_both_sides(self):
        t = terminology(
            [CI(Atom("B"), Exists("s", Atom("B"))), CI(Exists("r", Exists("s", Atom("B"))), Atom("A"))]
        )
        a0 = abox(concepts=[("B", "b")], roles=[("r", "a", "b")])
        res = learn_iq(OracleSession(t, framework_for(t, a0, LANG_IQ)))
        h = res.hypothesis
        assert inseparable(t, h, a0, LANG_IQ) is None
        assert answers_query(h, a0, ConceptQuery(Exists("s", Exists("s", Atom("B"))), "b"))

    def test_empty_target_exits_after_bootstrap(self):
        fw = Framework(
            abox(concepts=[("B", "b")]),
            LANG_IQ,
            Signature(frozenset({"A", "B"}), frozenset({"r"})),
        )
        sess = OracleSession(TBox(), fw)
        res = learn_iq(sess)
        assert res.hypothesis.cis == frozenset()
        assert sess.eq_count == 1

    def test_replacements_grow_trees(self):
        # two separate counterexamples for the same name force one replacement
        t = terminology([CI(Atom("A"), conj(Exists("r", Atom("B")), Exists("s", Atom("C"))))])
        a0 = abox(concepts=[("A", "a")])
        res = learn_iq(OracleSession(t, framework_for(t, a0, LANG_IQ)))
        assert inseparable(t, res.hypothesis, a0, LANG_IQ) is None
        (ci,) = [c for c in res.hypothesis.cis if isinstance(c.lhs, Atom)]
        assert tree_node_count(ci.rhs) >= 3

    def test_role_equivalences_are_collapsed(self):
        t = terminology(
            [CI(Atom("A"), Exists("r", Atom("B")))], [RI("r", "s"), RI("s", "r")]
        )
        a0 = abox(concepts=[("A", "a")], roles=[("s", "a", "a")])
        res = learn_iq(OracleSession(t, framework_for(t, a0, LANG_IQ)))
        assert inseparable(t, res.hypothesis, a0, LANG_IQ) is None
        assert entails_ri(res.hypothesis, "r", "s")
        assert entails_ri(res.hypothesis, "s", "r")

    def test_positive_bounded_throughout(self):
        for seed in range(20):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            res = learn_iq(OracleSession(t, framework_for(t, a0, LANG_IQ)))
            for ci in res.hypothesis.cis:
                assert entails_ci(t, ci.lhs, ci.rhs)
