import pytest
from hypothesis import given, settings, strategies as st

from elhlearn.syntax import (
    ABox,
    And,
    Atom,
    AtomicQuery,
    CI,
    ConceptQuery,
    ConjunctiveQuery,
    ConceptAtom,
    Exists,
    RI,
    RoleAtom,
    StructuralError,
    TBox,
    TOP,
    TerminologyError,
    Var,
    Tree,
    abox,
    canonical,
    check_namespaces,
    conj,
    is_rooted,
    is_terminology,
    normalize,
    signature_of_tbox,
    size_of,
    terminology,
)


def names(pool):
    return st.sampled_from(pool)


def concepts(depth=3):
    base = st.one_of(st.just(TOP), st.builds(Atom, names(["A", "B", "C"])))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Exists, names(["r", "s"]), inner),
            st.builds(lambda a, b: conj(a, b), inner, inner),
        ),
        max_leaves=depth * 4,
    )


class TestSize:
    def test_top_is_one_symbol(self):
        assert size_of(TOP) == 1

    def test_existential_with_conjunction_filler(self):
        c = Exists("r", conj(Atom("A"), Atom("B")))
        assert canonical(c) == "∃r(A⊓B)"
        assert size_of(c) == 7

    def test_inclusion(self):
        assert size_of(CI(Atom("A"), Exists("r", Atom("B")))) == 6

    def test_tbox_is_sum_of_inclusions(self):
        t = TBox(frozenset({CI(Atom("A"), Exists("r", Atom("B")))}), frozenset({RI("r", "s")}))
        assert size_of(t) == 6 + 3

    def test_abox_counts(self):
        a = abox(concepts=[("A", "x")], roles=[("r", "x", "y")], declared=["z"])
        assert size_of(a) == 4 + 6 + 1

    def test_query_sizes(self):
        assert size_of(AtomicQuery("A", ("a",))) == 4
        assert size_of(AtomicQuery("r", ("a", "b"))) == 6
        assert size_of(ConceptQuery(Exists("r", Atom("B")), "a")) == 4 + 3


class TestTreeEncoding:
    def test_top_tree(self):
        t = Tree.of_concept(TOP)
        assert t.node_count() == 1 and t.labels == frozenset() and t.children == ()

    def test_exists_tree(self):
        t = Tree.of_concept(Exists("r", Atom("A")))
        assert t.node_count() == 2
        assert t == Tree(frozenset(), ((frozenset({"r"}), Tree(frozenset({"A"}))),))

    def test_duplicate_conjuncts_keep_two_subtrees(self):
        c = conj(conj(Atom("A"), Exists("r", Atom("B"))), Exists("r", Atom("B")))
        t = Tree.of_concept(c)
        assert t.labels == frozenset({"A"})
        assert len(t.children) == 2 and all(roles == {"r"} for roles, _ in t.children)
        for _, child in t.children:
            assert child.labels == frozenset({"B"})

    def test_single_node_decodes_to_top(self):
        assert Tree(frozenset()).concept() == TOP

    def test_labelled_edge_decodes(self):
        t = Tree(frozenset({"A"}), ((frozenset({"r"}), Tree(frozenset({"B"}))),))
        assert t.concept() == normalize(conj(Atom("A"), Exists("r", Atom("B"))))

    def test_cycle_rejected(self):
        with pytest.raises(StructuralError):
            Tree.of_abox(abox(roles=[("r", "x0", "x1"), ("r", "x1", "x0")]), "x0")

    def test_two_roots_rejected(self):
        with pytest.raises(StructuralError):
            Tree.of_abox(abox(declared=["x0", "x1"]), "x0")

    @given(concepts())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_normalizes(self, c):
        assert Tree.of_concept(c).concept() == normalize(c)
        a, root = Tree.of_concept(c).abox()
        assert Tree.of_abox(a, root).concept() == normalize(c)

    @given(concepts())
    @settings(max_examples=100, deadline=None)
    def test_normalize_idempotent(self, c):
        assert normalize(normalize(c)) == normalize(c)


class TestAboxEncoding:
    def test_atom(self):
        a, root = Tree.of_concept(Atom("A")).abox()
        assert a.concept_assertions == frozenset({("A", root)})
        assert not a.role_assertions

    def test_chain(self):
        a, root = Tree.of_concept(Exists("r", Exists("s", Atom("B")))).abox()
        assert len(a.role_assertions) == 2
        assert ("B", "x2") in a.concept_assertions
        assert root == "x0"

    def test_top_declares_root(self):
        a, root = Tree.of_concept(TOP).abox()
        assert not a.concept_assertions and not a.role_assertions
        assert root in a.individuals()

    @given(concepts())
    @settings(max_examples=150, deadline=None)
    def test_tree_shaped(self, c):
        from elhlearn.learn_aq import find_cycle

        a, root = Tree.of_concept(c).abox()
        assert len(a.role_assertions) == len(a.individuals()) - 1
        assert find_cycle(a) is None


class TestAbox:
    def test_empty_declared_becomes_a_frozenset(self):
        for declared in ([], set(), (), frozenset()):
            a = ABox(declared=declared)
            assert type(a.declared) is frozenset and not a.declared
            assert a == ABox() and hash(a) == hash(ABox())
        full = ABox(frozenset({("A", "x")}), declared=[])
        assert full == abox(concepts=[("A", "x")]) and hash(full) == hash(abox(concepts=[("A", "x")]))

    def test_declared_keeps_only_unmentioned_individuals(self):
        a = ABox(frozenset({("A", "x")}), frozenset({("r", "x", "y")}), ["x", "y", "z"])
        assert a.declared == frozenset({"z"})
        assert a == abox(concepts=[("A", "x")], roles=[("r", "x", "y")], declared=["z"])
        assert a.individuals() == frozenset({"x", "y", "z"})


class TestTerminology:
    def test_auto_merge(self):
        t = terminology([CI(Atom("A"), Exists("r", Atom("B"))), CI(Atom("A"), Atom("C"))])
        (merged,) = [ci for ci in t.cis if isinstance(ci.lhs, Atom) and ci.lhs.name == "A"]
        assert merged.rhs == normalize(conj(Atom("C"), Exists("r", Atom("B"))))

    def test_complex_both_sides_rejected(self):
        with pytest.raises(TerminologyError):
            terminology([CI(Exists("r", Atom("A")), Exists("s", Atom("B")))])

    def test_is_terminology(self):
        assert is_terminology(terminology([CI(Exists("r", Atom("A")), Atom("B"))]))
        bad = TBox(
            frozenset(
                {
                    CI(Atom("A"), Exists("r", Atom("B"))),
                    CI(Atom("A"), Exists("s", Atom("C"))),
                }
            )
        )
        assert not is_terminology(bad)


class TestQueries:
    def test_rootedness(self):
        q = ConjunctiveQuery(
            ("a",),
            frozenset({Var("x"), Var("y")}),
            frozenset({RoleAtom("r", "a", Var("x")), RoleAtom("s", Var("x"), Var("y"))}),
        )
        assert is_rooted(q)
        q2 = ConjunctiveQuery(
            (), frozenset({Var("x")}), frozenset({ConceptAtom("M", Var("x"))})
        )
        assert not is_rooted(q2)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(StructuralError):
            ConjunctiveQuery((), frozenset(), frozenset({ConceptAtom("M", Var("x"))}))


class TestNamespaces:
    def test_clash_detected(self):
        t = terminology([CI(Atom("A"), Exists("A", TOP))])
        with pytest.raises(StructuralError, match=r"^name used in two namespaces: \['A'\]$"):
            check_namespaces([t], [])

    def test_individual_clash(self):
        t = terminology([CI(Atom("A"), Atom("B"))])
        with pytest.raises(StructuralError, match=r"^name used in two namespaces: \['A'\]$"):
            check_namespaces([t], [abox(declared=["A"])])

    def test_clean(self):
        t = terminology([CI(Atom("A"), Atom("B"))], [RI("r", "s")])
        assert check_namespaces([t], [abox(declared=["a"])]) == signature_of_tbox(t)
