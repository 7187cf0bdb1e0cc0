import pytest
from hypothesis import given, settings, strategies as st

from elhlearn.reasoner import entails_ci
from elhlearn.syntax import (
    MAX_NESTING,
    Atom,
    AtomicQuery,
    CI,
    ConceptQuery,
    ConjunctiveQuery,
    Exists,
    RI,
    RoleAtom,
    RoleQuery,
    StructuralError,
    TOP,
    Var,
    abox,
    conj,
    normalize,
    terminology,
)
from elhlearn.textio import (
    ParseError,
    parse_abox,
    parse_concept,
    parse_query,
    parse_queries,
    parse_tbox,
    serialize_abox,
    serialize_concept,
    serialize_query,
    serialize_tbox,
)

from test_syntax import concepts


def test_grammar_samples():
    t = parse_tbox("CI: A [= some r. B\nRI: r [= s\n")
    assert CI(Atom("A"), Exists("r", Atom("B"))) in t.cis
    assert RI("r", "s") in t.ris


def test_some_binds_tighter_than_and():
    c = parse_concept("some r. A and B")
    assert c == conj(Exists("r", Atom("A")), Atom("B"))
    c2 = parse_concept("some r. (A and B)")
    assert c2 == Exists("r", conj(Atom("A"), Atom("B")))


def test_comments_and_blank_lines():
    t = parse_tbox("# header\n\nCI: A [= B  # trailing\n")
    assert t.cis == frozenset({CI(Atom("A"), Atom("B"))})


def test_equivalence_expands_both_ways():
    t = parse_tbox("CI: A == some r. B\n")
    assert CI(Atom("A"), Exists("r", Atom("B"))) in t.cis
    assert CI(Exists("r", Atom("B")), Atom("A")) in t.cis


def test_duplicate_name_merge_matches_conjunction():
    text = "CI: A [= some r. B\nCI: A [= C\n"
    merged = parse_tbox(text)
    # the merged axiom says the same as the pair, checked by entailment
    manual = terminology([CI(Atom("A"), normalize(conj(Exists("r", Atom("B")), Atom("C"))))])
    (ci,) = [c for c in merged.cis]
    assert entails_ci(manual, ci.lhs, ci.rhs)
    for mc in manual.cis:
        assert entails_ci(merged, mc.lhs, mc.rhs)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse_tbox("CI: A [= [=\n")
    assert "line 1" in str(e.value)


@pytest.mark.parametrize(
    "parse, text, line, col, message",
    [
        # columns count from the start of the line, indentation included,
        # and point at the offending character, not the blank before it
        (parse_tbox, "   CI: A [= some r. $", 1, 21, "unexpected character '$'"),
        (parse_tbox, "CI: A [= B\n  CI: A B", 2, 9, "expected '[=' or '==', found 'B'"),
        (parse_tbox, "CI: A [= some r. (B and C", 1, 26, "expected ')', found None"),
        (parse_tbox, "\tRI: r [= (", 1, 11, "expected a name, found '('"),
        (parse_tbox, "RI: r [= s t  # comment", 1, 12, "trailing input 't'"),
        (parse_abox, "A: B(x) y", 1, 9, "trailing input 'y'"),
        (parse_abox, "A: B(x)\n    A: r(x y)", 2, 12, "expected ')', found 'y'"),
        (parse_abox, "IND: 1x", 1, 6, "unexpected character '1'"),
        (parse_abox, "A: B(x)\nIND: a b  # two names", 2, 8, "trailing input 'b'"),
        (parse_abox, "  IND:", 1, 7, "unexpected end of line"),
        (parse_queries, "  Q: AQ A(a b)", 1, 13, "expected ')', found 'b'"),
        (parse_queries, "Q: IQ r(a b)", 1, 11, "expected ',', found 'b'"),
        (parse_queries, " Q: IQ a : some r. $", 1, 20, "unexpected character '$'"),
        (parse_queries, " Q: CQ a ; exists x ; r(a,x), $ B(x)", 1, 31, "bad CQ atoms near '$'"),
        (parse_queries, " Q: CQ a ; exits x ; r(a,x)", 1, 12, "second CQ section"),
        # names in query lines are checked where they stand
        (parse_queries, "Q: IQ 1x : A", 1, 7, "unexpected character '1'"),
        (parse_queries, "Q: IQ : A", 1, 7, "expected a name, found ':'"),
        (parse_queries, "Q: CQ 1a ; exists y ; A(y)", 1, 7, "unexpected character '1'"),
        (parse_queries, "Q: CQ a b ; exists y ; r(a,y)", 1, 9, "trailing input 'b'"),
        (parse_queries, "Q: CQ a ; exists 9y ; A(a)", 1, 18, "unexpected character '9'"),
        (parse_queries, "Q: CQ a ; exists y, z( ; A(a)", 1, 22, "trailing input '('"),
        (parse_queries, "Q: CQ a ; exists y ; Aé(y), r(a,y)", 1, 22, "bad CQ atoms near 'Aé(y),'"),
        (parse_tbox, "  CI: some r. A [= some s. B", 1, 7,
         "inclusion needs a concept name on one side"),
    ],
)
def test_parse_error_reports_line_columns(parse, text, line, col, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert f"line {line}, col {col}: {message}" in str(e.value)


def test_nesting_error_points_at_the_first_level_too_deep():
    text = "CI: A [= " + "some r. " * 201 + "B"
    with pytest.raises(ParseError) as e:
        parse_tbox(text)
    assert e.value.col == text.index("some") + 200 * len("some r. ") + 1


def test_unknown_statement_rejected():
    with pytest.raises(ParseError):
        parse_tbox("XX: A [= B\n")
    with pytest.raises(ParseError):
        parse_abox("XX: A(a)\n")


def test_abox_round_trip():
    a = abox(concepts=[("A", "x")], roles=[("r", "x", "y")], declared=["lonely"])
    assert parse_abox(serialize_abox(a)) == a


def test_query_forms():
    assert parse_query("Q: AQ A(a)") == AtomicQuery("A", ("a",))
    assert parse_query("Q: AQ r(a,b)") == AtomicQuery("r", ("a", "b"))
    assert parse_query("Q: IQ r(a,b)") == RoleQuery("r", "a", "b")
    q = parse_query("Q: IQ a : some r. (A and B)")
    assert q == ConceptQuery(Exists("r", conj(Atom("A"), Atom("B"))), "a")
    cq = parse_query("Q: CQ a ; exists x, y ; r(a,x), s(x,y), B(y)")
    assert isinstance(cq, ConjunctiveQuery)
    assert RoleAtom("s", Var("x"), Var("y")) in cq.atoms
    boolean = parse_query("Q: CQ ; exists x ; M(x)")
    assert boolean.answer_inds == ()


def test_query_round_trip():
    for text in [
        "Q: AQ A(a)",
        "Q: IQ r(a,b)",
        "Q: IQ a : some r. top",
        "Q: CQ a ; exists x, y ; r(a,x), s(x,y), B(y)",
    ]:
        q = parse_query(text)
        assert parse_query(serialize_query(q)) == q


def test_parse_queries_multi():
    qs = parse_queries("Q: AQ A(a)\n# note\nQ: IQ a : top\n")
    assert len(qs) == 2


@given(concepts())
@settings(max_examples=200, deadline=None)
def test_concept_round_trip(c):
    assert normalize(parse_concept(serialize_concept(c))) == normalize(c)


def test_tbox_round_trip():
    t = terminology(
        [CI(Exists("r", conj(Atom("A"), Atom("B"))), Atom("C")), CI(Atom("C"), TOP)],
        [RI("r", "s")],
    )
    assert parse_tbox(serialize_tbox(t)) == t


def _nested(levels: int) -> str:
    """A concept of exactly ``levels`` levels: ``some r. (B and ...)`` pairs, then ``some``s."""
    pairs = levels // 2
    return "some r. (B and " * pairs + "some r. " * (levels % 2) + "A" + ")" * pairs


@pytest.mark.parametrize("levels", [MAX_NESTING - 1, MAX_NESTING])
def test_a_concept_at_the_nesting_cap_is_written_and_read_back(levels):
    c = parse_concept(_nested(levels))
    assert parse_concept(serialize_concept(c)) == c
    t = terminology([CI(Atom("A"), c)])
    assert parse_tbox(serialize_tbox(t)) == t
    assert parse_query(serialize_query(ConceptQuery(c, "a"))) == ConceptQuery(c, "a")


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, MAX_NESTING + 2])
def test_a_concept_past_the_nesting_cap_is_not_written(levels):
    c = parse_concept(_nested(MAX_NESTING))
    for _ in range(levels - MAX_NESTING):
        c = Exists("r", c)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse_concept("some r. " * (levels - MAX_NESTING) + _nested(MAX_NESTING))
    for write in (
        lambda: serialize_concept(c),
        lambda: serialize_tbox(terminology([CI(Atom("A"), c)])),
        lambda: serialize_query(ConceptQuery(c, "a")),
    ):
        with pytest.raises(StructuralError, match=f"nested deeper than {MAX_NESTING} levels"):
            write()


# Pieces of every statement kind, names, bad names and stray characters;
# joined without blanks as often as with them.
PIECES = [
    "CI:", "RI:", "A:", "IND:", "Q:", "AQ", "IQ", "CQ", "exists", "some", "and", "top",
    "[=", "==", "[", "=", "(", ")", ",", ";", ".", ":", "#", " ", "  ", "\t",
    "A", "B", "r", "s", "a", "x", "y", "A1", "1x", "9", "_", "é", "$",
]
HEADS = ["", "CI: ", "RI: ", "A: ", "IND: ", "Q: AQ ", "Q: IQ ", "Q: CQ "]
lines = st.one_of(
    st.tuples(st.sampled_from(HEADS), st.lists(st.sampled_from(PIECES), max_size=16)).map(
        lambda hp: hp[0] + "".join(hp[1])
    ),
    st.text(max_size=30),
)
texts = st.lists(lines, min_size=1, max_size=4).map("\n".join)


@pytest.mark.parametrize(
    "parse", [parse_tbox, parse_abox, parse_queries, parse_query, parse_concept],
    ids=lambda f: f.__name__,
)
@given(text=texts)
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
def test_parsers_raise_only_parse_errors(parse, text):
    try:
        parse(text)
    except ParseError:
        pass
