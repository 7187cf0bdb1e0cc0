import random

import pytest

from bruteforce import abox_homomorphism, brute_instance, brute_subsumes
from genkb import random_abox, random_concept, random_terminology
from elhlearn.reasoner import (
    LANG_AQ,
    LANG_CQR,
    LANG_IQ,
    ModelCache,
    answers_query,
    bisimilar,
    build_model,
    entails_ci,
    entails_ri,
    inseparable,
    inseparability_gap,
    is_simulation,
    separating_witness,
    simulation,
)
from reference_simulation import abox_interpretation
from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    ConceptAtom,
    ConceptQuery,
    ConjunctiveQuery,
    ContractViolationError,
    Exists,
    RI,
    RoleAtom,
    RoleQuery,
    TBox,
    TOP,
    Tree,
    UnsupportedQueryError,
    Var,
    abox,
    canonical,
    conj,
    normalize,
    signature_of_abox,
    signature_of_tbox,
    terminology,
)


def ex1_tbox():
    return terminology(
        [CI(Atom("B"), Exists("s", Atom("B"))), CI(Exists("r", Exists("s", Atom("B"))), Atom("A"))]
    )


def ex1_abox():
    return abox(concepts=[("B", "b")], roles=[("r", "a", "b")])


class TestAboxModel:
    def test_single_assertion(self):
        m = abox_interpretation(abox(concepts=[("A", "a")]))
        assert m.domain == frozenset({"a"})
        assert m.concept_ext["A"] == frozenset({"a"})

    def test_role_assertion(self):
        m = abox_interpretation(abox(concepts=[("B", "b")], roles=[("r", "a", "b")]))
        assert m.role_ext["r"] == frozenset({("a", "b")})

    def test_declared_only(self):
        m = abox_interpretation(abox(declared=["a"]))
        assert m.domain == frozenset({"a"})
        assert m.label_of("a") == frozenset()


class TestRegularModel:
    def test_self_feeding_filler_gets_a_loop(self):
        t = terminology([CI(Atom("B"), Exists("s", Atom("B")))])
        m = build_model(t, abox(concepts=[("B", "b")]))
        anon = ("a", "B")
        assert m.labels[anon] == frozenset({"B"})
        assert any(tgt == anon and "s" in roles for roles, tgt in m.edges[anon])
        assert any(tgt == anon and "s" in roles for roles, tgt in m.edges[("n", "b")])

    def test_empty_tbox_is_closure_of_assertions(self):
        t = terminology([], [RI("r", "s")])
        m = build_model(t, abox(roles=[("r", "a", "b")]))
        (edge,) = m.edges[("n", "a")]
        assert edge[0] == frozenset({"r", "s"})

    def test_two_step_anonymous_chain_with_empty_labels(self):
        t = terminology([CI(Atom("A"), Exists("r", Exists("s", TOP)))])
        m = build_model(t, abox(concepts=[("A", "a")]))
        (edge,) = m.edges[("n", "a")]
        assert edge[0] == frozenset({"r"})
        mid = edge[1]
        assert m.labels[mid] == frozenset()
        (edge2,) = m.edges[mid]
        assert edge2[0] == frozenset({"s"})
        assert m.labels[edge2[1]] == frozenset()


class TestEntailment:
    def test_ri_closure(self):
        t = terminology([], [RI("r", "s"), RI("s", "u")])
        assert entails_ri(t, "r", "s")
        assert entails_ri(t, "r", "u")
        assert entails_ri(t, "r", "r")
        assert not entails_ri(TBox(), "r", "s")

    def test_atomic(self):
        assert entails_ci(terminology([CI(Atom("B"), Atom("A"))]), Atom("B"), Atom("A"))

    def test_two_step(self):
        t = terminology([CI(Atom("A"), Exists("r", Atom("B"))), CI(Atom("B"), Atom("C"))])
        assert entails_ci(t, Atom("A"), Exists("r", Atom("C")))

    def test_abbreviated_left_side(self):
        assert entails_ci(ex1_tbox(), Exists("r", Atom("B")), Atom("A"))

    def test_non_entailment(self):
        t = terminology([CI(Atom("A"), Exists("r", Atom("B")))])
        assert not entails_ci(t, Atom("B"), Atom("A"))


class TestQueryAnswering:
    def test_example_entailment(self):
        assert answers_query(ex1_tbox(), ex1_abox(), AtomicQuery("A", ("a",)))

    def test_instance_query_into_anonymous_part(self):
        t = terminology([CI(Atom("A"), Exists("r", Exists("s", TOP)))])
        a = abox(concepts=[("A", "a")])
        assert answers_query(t, a, ConceptQuery(Exists("r", Exists("s", TOP)), "a"))

    def test_role_queries_come_from_assertions_only(self):
        t = terminology([CI(Atom("A"), Exists("r", Atom("B")))], [RI("r", "s")])
        a = abox(concepts=[("A", "a")], roles=[("r", "a", "b")])
        assert answers_query(t, a, RoleQuery("s", "a", "b"))
        assert not answers_query(t, a, RoleQuery("s", "b", "a"))

    def test_boolean_marker_query(self):
        q = ConjunctiveQuery((), frozenset({Var("x")}), frozenset({ConceptAtom("M", Var("x"))}))
        assert not answers_query(TBox(), abox(concepts=[("A", "a")]), q)
        t = terminology([CI(Atom("A"), Exists("r", Atom("M")))])
        assert answers_query(t, abox(concepts=[("A", "a")]), q)

    def test_non_rooted_cq_rejected(self):
        q = ConjunctiveQuery(
            (),
            frozenset({Var("x"), Var("y")}),
            frozenset({RoleAtom("r", Var("x"), Var("y")), ConceptAtom("M", Var("y"))}),
        )
        with pytest.raises(UnsupportedQueryError):
            answers_query(TBox(), abox(concepts=[("A", "a")]), q)

    def test_rooted_cq_cycle_does_not_leak_from_presentation(self):
        # the finite presentation has a loop the unravelled model lacks
        t = terminology([CI(Atom("A"), Exists("s", Atom("B"))), CI(Atom("B"), Exists("s", Atom("B")))])
        a = abox(concepts=[("A", "a")])
        q = ConjunctiveQuery(
            ("a",),
            frozenset({Var("x")}),
            frozenset({RoleAtom("s", "a", Var("x")), RoleAtom("s", Var("x"), Var("x"))}),
        )
        assert not answers_query(t, a, q)

    def test_rooted_cq_over_named_cycles_matches(self):
        a = abox(roles=[("r", "a", "b"), ("r", "b", "a")])
        q = ConjunctiveQuery(
            ("a",),
            frozenset({Var("x"), Var("y")}),
            frozenset({RoleAtom("r", "a", Var("x")), RoleAtom("r", Var("x"), Var("y"))}),
        )
        assert answers_query(TBox(), a, q)

    def test_unknown_individual_is_unconstrained(self):
        t = terminology([CI(Atom("A"), Atom("B"))])
        assert not answers_query(t, abox(concepts=[("A", "a")]), AtomicQuery("B", ("zz",)))
        t2 = terminology([CI(TOP, Atom("B"))])
        assert answers_query(t2, abox(concepts=[("A", "a")]), AtomicQuery("B", ("zz",)))

    def test_parallel_roles_on_one_edge(self):
        t = terminology([CI(Atom("A"), Exists("u", TOP))], [RI("u", "r"), RI("u", "s")])
        a = abox(concepts=[("A", "a")])
        q = ConjunctiveQuery(
            ("a",),
            frozenset({Var("x")}),
            frozenset({RoleAtom("r", "a", Var("x")), RoleAtom("s", "a", Var("x"))}),
        )
        assert answers_query(t, a, q)
        # separate existentials do not put both roles on one pair
        t2 = terminology([CI(Atom("A"), conj(Exists("r", TOP), Exists("s", TOP)))])
        assert not answers_query(t2, a, q)


class TestAboxHomomorphism:
    def test_simple_match(self):

        h = abox_homomorphism(abox(concepts=[("A", "a")]), abox(concepts=[("A", "b"), ("B", "b")]))
        assert h == {"a": "b"}

    def test_collapse_onto_loop(self):

        h = abox_homomorphism(abox(roles=[("r", "a", "b")]), abox(roles=[("r", "c", "c")]))
        assert h == {"a": "c", "b": "c"}

    def test_absence(self):

        assert abox_homomorphism(abox(concepts=[("A", "a")]), abox(concepts=[("B", "b")])) is None

    def test_found_maps_preserve_assertions(self):

        for seed in range(60):
            src = random_abox(seed, TBox(), max_inds=3, max_assertions=4)
            dst = random_abox(seed + 700, TBox(), max_inds=4, max_assertions=7)
            h = abox_homomorphism(src, dst)
            if h is None:
                continue
            for name, i in src.concept_assertions:
                assert (name, h[i]) in dst.concept_assertions
            for r, x, y in src.role_assertions:
                assert (r, h[x], h[y]) in dst.role_assertions

    def test_tree_examples_from_shaping_map_home(self):
        from elhlearn.learn_aq import learn_aq
        from elhlearn.teacher import OracleSession, framework_for

        for seed in range(20):
            t = random_terminology(seed)
            a0 = random_abox(seed, t)
            trees = []
            sess = OracleSession(t, framework_for(t, a0, LANG_AQ))
            learn_aq(sess, on_tree=lambda a, n, i: trees.append(a))
            from elhlearn.learn_aq import saturate_with_hypothesis

            for shaped in trees:
                # into the hypothesis-saturated fixed data, individuals kept
                target = saturate_with_hypothesis(
                    TBox(t.cis, t.ris), a0, signature_of_tbox(t), None
                )
                assert abox_homomorphism(shaped, target) is not None


class TestSimulation:
    def test_identity(self):
        a = abox(concepts=[("A", "x")], roles=[("r", "x", "y")])
        i = abox_interpretation(a)
        cert = simulation(i, i)
        assert ("x", "x") in cert

    def test_loop_not_simulated_by_finite_chain(self):
        loop = abox_interpretation(abox(roles=[("r", "a", "a")]))
        chain = abox_interpretation(abox(roles=[("r", "b", "c")]))
        assert ("a", "b") not in simulation(loop, chain)
        assert ("b", "a") in simulation(chain, loop)

    def test_unfolding_relation_is_simulation(self):
        from elhlearn.learn_aq import find_cycle, unfold_cycle

        a = abox(concepts=[("A", "a")], roles=[("r", "a", "b"), ("s", "b", "a")])
        cyc = find_cycle(a)
        unfolded = unfold_cycle(a, cyc)
        rel = {(i, i) for i in a.individuals()}
        for i in a.individuals():
            mate = f"{i}_hat"
            if mate in unfolded.individuals():
                rel.add((i, mate))
        assert is_simulation(rel, abox_interpretation(a), abox_interpretation(unfolded))

    def test_simulation_transfers_concepts(self):
        rng = random.Random(5)
        for seed in range(20):
            t = TBox()
            a1 = random_abox(seed, t, max_inds=3, max_assertions=5)
            a2 = random_abox(seed + 100, t, max_inds=3, max_assertions=5)
            i1, i2 = abox_interpretation(a1), abox_interpretation(a2)
            for d in sorted(a1.individuals()):
                for e in sorted(a2.individuals()):
                    if (d, e) not in simulation(i1, i2):
                        continue
                    for _ in range(10):
                        c = random_concept(rng, ["A1", "A2"], ["r1", "r2"], 3)
                        if answers_query(TBox(), a1, ConceptQuery(c, d)):
                            assert answers_query(TBox(), a2, ConceptQuery(c, e))


class TestBisimulation:
    def test_self(self):
        i = abox_interpretation(abox(roles=[("r", "a", "a")]))
        assert ("a", "a") in bisimilar(i, i)

    def test_label_mismatch(self):
        a0 = abox(concepts=[("A1", "b"), ("A2", "b")], roles=[("r", "a", "b")])
        a = a0.union(abox(concepts=[("A1", "b2")], roles=[("r", "a2", "b2")]))
        i0, i = abox_interpretation(a0), abox_interpretation(a)
        assert ("a", "a2") not in bisimilar(i0, i)

    def test_identical_loops(self):
        a1 = abox(concepts=[("A", "x")], roles=[("r", "x", "x")])
        a2 = abox(concepts=[("A", "y")], roles=[("r", "y", "y")])
        assert ("x", "y") in bisimilar(abox_interpretation(a1), abox_interpretation(a2))


class TestInseparability:
    def test_equal_tboxes(self):
        t = ex1_tbox()
        for lang in (LANG_AQ, LANG_IQ, LANG_CQR):
            assert inseparable(t, t, ex1_abox(), lang) is None

    def test_specific_hypothesis_inseparable_until_update(self):
        t = terminology([CI(Exists("r", Atom("A1")), Atom("B"))])
        h = terminology([CI(Exists("r", conj(Atom("A1"), Atom("A2"))), Atom("B"))])
        a0 = abox(concepts=[("A1", "b"), ("A2", "b")], roles=[("r", "a", "b")])
        assert inseparable(t, h, a0, LANG_IQ) is None
        a = a0.union(abox(concepts=[("A1", "b2")], roles=[("r", "a2", "b2")]))
        sep = inseparable(t, h, a, LANG_IQ)
        assert sep is not None and sep.first_entails
        assert sep.query == AtomicQuery("B", ("a2",))

    def test_counterexamples_always_separate(self):
        for seed in range(80):
            t = random_terminology(seed)
            h = random_terminology(seed + 1000)
            a = random_abox(seed, t)
            for lang in (LANG_AQ, LANG_IQ, LANG_CQR):
                sep = inseparable(t, h, a, lang)
                if sep is None:
                    continue
                left = answers_query(t, a, sep.query)
                right = answers_query(h, a, sep.query)
                assert left != right
                assert left if sep.first_entails else right

    def test_a_separation_that_does_not_separate_is_a_contract_violation(self, monkeypatch):
        import elhlearn.reasoner as reasoner_module

        t = terminology([CI(Exists("r", Atom("A1")), Atom("B"))])
        a = abox(concepts=[("A1", "b")], roles=[("r", "a", "b")])
        assert inseparable(t, TBox(), a, LANG_IQ) is not None
        monkeypatch.setattr(reasoner_module, "answers_query", lambda *args, **kw: True)
        with pytest.raises(ContractViolationError):
            inseparable(t, TBox(), a, LANG_IQ)

    def test_iq_inseparable_means_random_queries_agree(self):
        rng = random.Random(17)
        agreeing = 0
        for seed in range(200):
            t = random_terminology(seed)
            h = random_terminology(seed + 3000)
            a = random_abox(seed, t)
            if inseparable(t, h, a, LANG_IQ) is not None:
                continue
            agreeing += 1
            sig = signature_of_tbox(t).union(signature_of_tbox(h))
            concepts = sorted(sig.concept_names) or ["A1"]
            roles = sorted(sig.role_names) or ["r1"]
            for _ in range(25):
                c = random_concept(rng, concepts, roles, 2)
                ind = rng.choice(sorted(a.individuals()))
                q = ConceptQuery(c, ind)
                assert answers_query(t, a, q) == answers_query(h, a, q)
        assert agreeing >= 5

    def test_bundle_only_difference_is_cqr_visible(self):
        t = terminology([CI(Atom("A"), Exists("u", TOP))], [RI("u", "r"), RI("u", "s")])
        h = terminology(
            [CI(Atom("A"), conj(Exists("u", TOP), Exists("r", TOP), Exists("s", TOP)))]
        )
        a = abox(concepts=[("A", "a")])
        assert inseparable(t, h, a, LANG_IQ) is None
        sep = inseparable(t, h, a, LANG_CQR)
        assert sep is not None and isinstance(sep.query, ConjunctiveQuery)

    def test_monotone_in_tbox(self):
        for seed in range(40):
            t = random_terminology(seed)
            a = random_abox(seed, t)
            bigger = terminology(
                set(t.cis) | {CI(Atom("A1"), Atom("A2"))}, t.ris
            )
            for q in [AtomicQuery("A2", (i,)) for i in sorted(a.individuals())]:
                if answers_query(t, a, q):
                    assert answers_query(bigger, a, q)


def _enumerate_concepts(concepts, roles, max_nodes=4):
    """All normalized concepts over the tiny signature, up to a node budget."""
    level = {canonical(TOP): TOP}
    for name in concepts:
        level[canonical(Atom(name))] = Atom(name)
    out = dict(level)
    for _ in range(3):
        new = {}
        items = list(out.values())
        for c in items:
            for r in roles:
                cand = normalize(Exists(r, c))
                new[canonical(cand)] = cand
        for c in items:
            for d in items:
                cand = normalize(conj(c, d))
                new[canonical(cand)] = cand
        for key, cand in new.items():
            if key not in out and Tree.of_concept(cand).node_count() <= max_nodes:
                out[key] = cand
    return sorted(out.values(), key=canonical)


def _rooted_query_pool(concepts, roles, inds):
    """Tree queries plus parallel-edge variants that tell bundles apart."""
    pool = []
    for c in concepts:
        for ind in inds:
            pool.append(ConceptQuery(c, ind))
    if len(roles) >= 2:
        r, s = roles[0], roles[1]
        for ind in inds:
            pool.append(
                ConjunctiveQuery(
                    (ind,),
                    frozenset({Var("x")}),
                    frozenset({RoleAtom(r, ind, Var("x")), RoleAtom(s, ind, Var("x"))}),
                )
            )
            pool.append(
                ConjunctiveQuery(
                    (ind,),
                    frozenset({Var("x"), Var("y")}),
                    frozenset(
                        {
                            RoleAtom(r, ind, Var("x")),
                            RoleAtom(r, Var("x"), Var("y")),
                            RoleAtom(s, Var("x"), Var("y")),
                        }
                    ),
                )
            )
    return pool


class TestInseparabilityAgainstEnumeration:
    def test_verdicts_match_query_enumeration(self):
        yes = no = 0
        for seed in range(70):
            t = random_terminology(seed, max_concepts=2, max_roles=2, max_depth=2)
            h = random_terminology(seed + 5000, max_concepts=2, max_roles=2, max_depth=2)
            a = random_abox(seed, t, max_inds=3, max_assertions=5)
            sig = signature_of_tbox(t).union(signature_of_tbox(h))
            concepts = sorted(sig.concept_names | {"A1"})[:2]
            roles = sorted(sig.role_names | {"r1", "r2"})[:2]
            pool_c = _enumerate_concepts(concepts, roles)
            inds = sorted(a.individuals())
            cache = ModelCache()

            iq_pool = [ConceptQuery(c, i) for c in pool_c for i in inds]
            iq_pool += [
                RoleQuery(r, x, y) for r in roles for x in inds for y in inds
            ]
            iq_agree = all(
                answers_query(t, a, q, cache) == answers_query(h, a, q, cache)
                for q in iq_pool
            )
            verdict = inseparable(t, h, a, LANG_IQ) is None
            # enumeration is bounded, so a separable pair might only differ on
            # a deeper query; but an enumerated difference must force 'no'
            if not iq_agree:
                assert not verdict
            if verdict:
                assert iq_agree
                yes += 1
            else:
                no += 1

            cq_pool = _rooted_query_pool(pool_c, roles, inds)
            cq_agree = all(
                answers_query(t, a, q, cache) == answers_query(h, a, q, cache)
                for q in cq_pool
            )
            cq_verdict = inseparable(t, h, a, LANG_CQR) is None
            if not cq_agree:
                assert not cq_verdict
            if cq_verdict:
                assert cq_agree
        assert yes >= 5 and no >= 5

    def test_iq_yes_means_thousand_random_queries_agree(self):
        import random as _random

        rng = _random.Random(42)
        agreements = 0
        seed = 0
        while agreements < 1000:
            t = random_terminology(seed)
            h = random_terminology(seed + 9000)
            a = random_abox(seed, t)
            seed += 1
            if inseparable(t, h, a, LANG_IQ) is not None:
                continue
            sig = (
                signature_of_tbox(t).union(signature_of_tbox(h)).union(signature_of_abox(a))
            )
            concepts = sorted(sig.concept_names) or ["A1"]
            roles = sorted(sig.role_names) or ["r1"]
            cache = ModelCache()
            for _ in range(50):
                c = random_concept(rng, concepts, roles, 3)
                ind = rng.choice(sorted(a.individuals()))
                q = ConceptQuery(c, ind)
                assert answers_query(t, a, q, cache) == answers_query(h, a, q, cache)
                agreements += 1


class TestAgainstBruteForce:
    def test_instance_checking_agrees(self):
        rng = random.Random(0)
        checks = 0
        for seed in range(150):
            t = random_terminology(seed, max_concepts=3, max_roles=2, max_depth=2)
            a = random_abox(seed, t, max_inds=4, max_assertions=6)
            cache = ModelCache()
            sig = signature_of_tbox(t)
            concepts = sorted(sig.concept_names | {"A1"})
            roles = sorted(sig.role_names | {"r1"})
            for _ in range(5):
                c = random_concept(rng, concepts, roles, 2)
                ind = rng.choice(sorted(a.individuals()))
                mine = answers_query(t, a, ConceptQuery(c, ind), cache)
                assert mine == brute_instance(t, a, c, ind, max_depth=5)
                checks += 1
        assert checks >= 700

    def test_subsumption_agrees(self):
        rng = random.Random(1)
        for seed in range(120):
            t = random_terminology(seed, max_concepts=3, max_roles=2, max_depth=2)
            sig = signature_of_tbox(t)
            concepts = sorted(sig.concept_names | {"A1"})
            roles = sorted(sig.role_names | {"r1"})
            c = random_concept(rng, concepts, roles, 2)
            d = random_concept(rng, concepts, roles, 2)
            assert entails_ci(t, c, d) == brute_subsumes(t, c, d, max_depth=5)
