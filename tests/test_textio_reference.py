"""The text parsers' compiled line patterns against the tokenizer.

``parse_abox`` matches an ordinary assertion line with one pattern, and
``parse_queries`` an ``AQ`` or role ``IQ`` line, and both send every other
line through ``_Tokens``; ``parse_queries`` also checks each name listed in a
CQ with ``NAME_RE`` before it tokenizes it.  ``reference_textio`` tokenizes
every line and every name.  On generated lines and on every single-character
edit of sample lines both must give the same ``ABox`` or queries, or the
same ``ParseError`` with the same line and column.  The one intended
difference: a bad ``IND:`` line is a ``StructuralError`` without a position
in the reference and a ``ParseError`` at that line here.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

import reference_textio as ref
from elhlearn.syntax import AtomicQuery, ElhError, RoleQuery, StructuralError
from elhlearn.textio import _QUERY_LINE, ParseError, parse_abox, parse_queries

SETTINGS = settings(max_examples=800, deadline=None, derandomize=True, database=None)

# blanks the tokenizer skips, the last two outside ASCII
BLANKS = st.text(alphabet=" \t 　", max_size=3)
VALID_NAMES = st.sampled_from(["A", "B2", "r", "x_1", "Zz", "top", "some"])
# names starting with a digit or an underscore, and letters outside ASCII
BAD_NAMES = st.sampled_from(["1x", "9", "_a", "é", "aé", "x-1"])
TOKENS = st.sampled_from(
    ["A", "x_1", "1x", "_a", "aé", "(", ")", ",", ";", ".", ":", "[=", "$", "#", "IND:"]
)
BAD_PREFIXES = st.sampled_from(["A :", "a:", "A::", "XX:", "IND", ""])
DEFECTS = ["none", "none", "prefix", "name", "drop", "insert", "append", "tokens"]


@st.composite
def lines(draw) -> str:
    """A blank line, or an ``A:`` or ``IND:`` line with at most one defect.

    A parse stops at the first bad line, so a defect should come alone.
    """
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return draw(BLANKS)
    prefix = "IND:" if shape == 1 else "A:"
    body = [draw(VALID_NAMES)]
    if prefix == "A:":
        body += ["(", draw(VALID_NAMES)]
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
            body += [",", draw(VALID_NAMES)]
        body.append(")")
    at = draw(st.integers(0, len(body) - 1))
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "prefix":
        prefix = draw(BAD_PREFIXES)
    elif defect == "name":
        body[at] = draw(BAD_NAMES)
    elif defect == "drop":
        del body[at]
    elif defect == "insert":
        body.insert(at, draw(TOKENS))
    elif defect == "append":
        body.append(draw(TOKENS))
    elif defect == "tokens":
        body = draw(st.lists(TOKENS, max_size=6))
    text = draw(BLANKS) + prefix
    for tok in body:
        text += draw(BLANKS) + tok
    text += draw(BLANKS)
    if draw(st.booleans()):
        text += "#" + draw(st.text(alphabet="A(x) #é\t", max_size=6))
    return text


def outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)
    except StructuralError:
        return ("StructuralError",)


def assert_same(text: str) -> None:
    want, got = outcome(ref.parse_abox, text), outcome(parse_abox, text)
    if want == ("StructuralError",):
        # only a bad IND: line raises it; the parser now gives its position
        assert got[0] == "ParseError", text
        assert text.splitlines()[got[2] - 1].split("#")[0].strip().startswith("IND:"), text
    else:
        assert got == want, text


@SETTINGS
@given(st.lists(lines(), min_size=1, max_size=3), st.sampled_from(["\n", "\r\n"]))
def test_parse_abox_matches_the_tokenizer(rows, newline):
    assert_same(newline.join(rows))


# every printable ASCII character, blanks and line breaks, and three
# characters outside ASCII: a letter and two blanks
EDIT_ALPHABET = string.printable + "é\u00a0\u3000"
TEMPLATES = ["A: B(x)", "\tA:r ( x , y )  # note", "IND: x # A: B(x)"]


def single_edits(line: str):
    for i in range(len(line) + 1):
        if i < len(line):
            yield line[:i] + line[i + 1 :]
        for ch in EDIT_ALPHABET:
            yield line[:i] + ch + line[i:]
            if i < len(line):
                yield line[:i] + ch + line[i + 1 :]


def test_single_character_edits_match_the_tokenizer():
    """Every deletion, insertion and substitution of one character."""
    for template in TEMPLATES:
        for text in single_edits(template):
            assert_same(text)
            assert_same("A: C(z)\n" + text)


def test_generated_lines_reach_every_outcome():
    """The generator makes valid assertions, ParseErrors and bad IND: lines."""
    seen: set[str] = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lines())
    def record(text):
        result = outcome(ref.parse_abox, text)
        if isinstance(result, tuple):
            seen.add(result[0])
        elif result.role_assertions:
            seen.add("role")
        elif result.concept_assertions:
            seen.add("concept")

    record()
    assert seen == {"ParseError", "StructuralError", "role", "concept"}


def query_outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)
    except ElhError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_queries(text: str) -> None:
    """Same queries or error, and the pattern takes exactly the AQ and role IQ lines."""
    want = query_outcome(ref.parse_queries, text)
    assert query_outcome(parse_queries, text) == want, text
    for raw in text.splitlines():
        result = query_outcome(ref.parse_queries, raw)
        read_as_one = (
            isinstance(result, list)
            and len(result) == 1
            and isinstance(result[0], (AtomicQuery, RoleQuery))
        )
        assert bool(_QUERY_LINE.fullmatch(raw)) == read_as_one, raw


# the README's examples and one line of each benchmark stream query kind
QUERY_TEMPLATES = [
    "Q: AQ A(a)",
    "Q: AQ r(a,b)",
    "Q: IQ a : some r. top",
    "Q: IQ r(a,b)",
    "Q: CQ a ; exists x, y ; r(a,x), s(x,y), B(y)",
    "Q: CQ ; exists x ; M(x)     # the one supported non-rooted shape",
    "Q: AQ K(v12)",
    "Q: AQ r(v3,v40)",
    "Q: IQ v7 : some s. (C and H)",
    "Q: IQ v7 : some s. some s. D",
    "Q: IQ t(v3,v40)",
    "Q: CQ v5 ; exists y, z ; A(y), C(z), r(v5,y), s(y,z)",
    "Q: CQ v5 ; exists y ; K(y), r(v5,y), t(v5,y)",
]


def test_single_character_edits_of_query_lines_match_the_tokenizer():
    """Every deletion, insertion and substitution of one character."""
    for template in QUERY_TEMPLATES:
        for text in single_edits(template):
            assert_same_queries(text)
            assert_same_queries("Q: AQ C(z)\n" + text)


def test_query_line_pattern_cases():
    """``AQ`` right before its predicate, and ``top`` as a predicate."""
    for text, want in [
        ("Q: AQA(a)", AtomicQuery("A", ("a",))),
        ("Q:AQr(a,b)#", AtomicQuery("r", ("a", "b"))),
        ("Q: AQ top(a)", AtomicQuery("top", ("a",))),
        ("Q: AQ top(a, top)", AtomicQuery("top", ("a", "top"))),
        ("Q: IQtop(a,b)", RoleQuery("top", "a", "b")),
        (" Q: IQ some ( top , and ) # c", RoleQuery("some", "top", "and")),
    ]:
        assert _QUERY_LINE.fullmatch(text), text
        assert parse_queries(text) == ref.parse_queries(text) == [want], text
    for text in ["Q: IQ top : A", "Q: AQ A(a))", "Q: AQ1(a)", "Q: AQ A(a,b,c)", "Q: IQ r(a)"]:
        assert not _QUERY_LINE.fullmatch(text), text
        assert_same_queries(text)


QUERY_NAMES = st.sampled_from(["A", "B2", "r", "x_1", "top", "some", "exists", "v10"])
QUERY_TOKENS = st.sampled_from(
    ["A", "x_1", "1x", "_a", "aé", "(", ")", ",", ";", ".", ":", "[=", "$", "#", "AQ", "IQ", "exists"]
)
QUERY_PREFIXES = st.sampled_from(["Q: AQ", "Q: IQ", "Q: CQ", "Q:", "Q: XQ", "Q :", "A:", ""])


@st.composite
def query_lines(draw) -> str:
    """A blank line, or a query line of each shape with at most one defect."""
    shape = draw(st.sampled_from(["blank", "aq", "aq2", "role", "iq", "cq", "cq", "bcq"]))
    if shape == "blank":
        return draw(BLANKS)
    names = QUERY_NAMES
    if shape in ("aq", "aq2", "role"):
        prefix = "Q: IQ" if shape == "role" else "Q: AQ"
        body = [draw(names), "(", draw(names)]
        if shape != "aq":
            body += [",", draw(names)]
        body.append(")")
    elif shape == "iq":
        prefix = "Q: IQ"
        # blanks may be empty, so ``some`` carries the one its role needs
        body = [draw(names), ":", "some ", draw(names), ".", draw(st.sampled_from(["top", "A", "B2"]))]
    else:
        prefix = "Q: CQ"
        inds = [] if shape == "bcq" else [draw(names)]
        body = inds + [";", "exists", "y", ",", "z", ";", draw(names), "(", "y", ")"]
        if inds:
            body += [",", draw(names), "(", inds[0], ",", "y", ")"]
    at = draw(st.integers(0, len(body) - 1))
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "prefix":
        prefix = draw(QUERY_PREFIXES)
    elif defect == "name":
        body[at] = draw(BAD_NAMES)
    elif defect == "drop":
        del body[at]
    elif defect == "insert":
        body.insert(at, draw(QUERY_TOKENS))
    elif defect == "append":
        body.append(draw(QUERY_TOKENS))
    elif defect == "tokens":
        body = draw(st.lists(QUERY_TOKENS, max_size=6))
    text = draw(BLANKS) + prefix
    for tok in body:
        text += draw(BLANKS) + tok
    text += draw(BLANKS)
    if draw(st.booleans()):
        text += "#" + draw(st.text(alphabet="A(x) #é\t", max_size=6))
    return text


@SETTINGS
@given(st.lists(query_lines(), min_size=1, max_size=3), st.sampled_from(["\n", "\r\n"]))
def test_parse_queries_matches_the_tokenizer(rows, newline):
    assert_same_queries(newline.join(rows))


def test_generated_query_lines_reach_every_outcome():
    """The generator makes queries of each kind and ParseErrors."""
    seen: set[str] = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(query_lines())
    def record(text):
        result = query_outcome(ref.parse_queries, text)
        if isinstance(result, tuple):
            seen.add(result[0])
        elif result:
            seen.add(type(result[0]).__name__)

    record()
    assert seen == {"ParseError", "AtomicQuery", "RoleQuery", "ConceptQuery", "ConjunctiveQuery"}
