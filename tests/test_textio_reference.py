"""The ABox parser's compiled ``A:`` line pattern against the tokenizer.

``parse_abox`` matches an ordinary assertion line with one pattern and
sends every other line through ``_Tokens``; ``reference_textio`` tokenizes
every line.  On generated lines both must give the same ``ABox``, or the
same ``ParseError`` with the same line and column.  The one intended
difference: a bad ``IND:`` line is a ``StructuralError`` without a position
in the reference and a ``ParseError`` at that line here.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

import reference_textio as ref
from elhlearn.syntax import StructuralError
from elhlearn.textio import ParseError, parse_abox

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
