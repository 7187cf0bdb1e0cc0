"""Line-oriented text format for TBoxes, ABoxes and queries.

Grammar (UTF-8, one statement per line, ``#`` starts a comment)::

    tbox-line   ::= 'CI:' concept '[=' concept
                  | 'CI:' concept '==' concept        (expands to both CIs)
                  | 'RI:' NAME '[=' NAME
    abox-line   ::= 'A:' NAME '(' NAME ')'
                  | 'A:' NAME '(' NAME ',' NAME ')'
                  | 'IND:' NAME                       (declare a bare individual)
    query-line  ::= 'Q: AQ' NAME '(' NAME [',' NAME] ')'
                  | 'Q: IQ' NAME '(' NAME ',' NAME ')'
                  | 'Q: IQ' NAME ':' concept
                  | 'Q: CQ' [inds] ';' 'exists' [vars] ';' atom {',' atom}

    concept     ::= unit {'and' unit}
    unit        ::= 'top' | NAME | 'some' NAME '.' unit | '(' concept ')'

``some`` binds tighter than ``and``: ``some r. A and B`` is the conjunction
of ``some r. A`` with ``B``; a conjunctive filler needs parentheses.  In a
CQ line the terms listed after ``exists`` are variables, all other terms are
individuals.  A concept nests at most ``syntax.MAX_NESTING`` levels of ``some``
and parentheses, and a CQ has at most that many variables; deeper or
larger input is a ``ParseError``, and a deeper concept is not written
either (``StructuralError``).  ``NAME`` is ``syntax.NAME``
everywhere, and an inclusion needs a name (or ``top``) on one side.  The
parsers raise no error but ``ParseError``, which gives the line and the
column of the offending character.  Inclusions with one name on the left
are merged into one, as ``syntax.terminology`` does.
"""

from __future__ import annotations

import json
import re

from .syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    Concept,
    ConceptAtom,
    ConceptQuery,
    ConjunctiveQuery,
    Exists,
    Query,
    RI,
    RoleAtom,
    RoleQuery,
    TBox,
    TOP,
    Term,
    Top,
    And,
    MAX_NESTING,
    NAME,
    NAME_RE,
    Var,
    conj,
    normalize,
    terminology,
)
from .syntax import ElhError, StructuralError


class ParseError(ElhError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


def parse_json(text: str, line: int = 0):
    """``json.loads``, with a ``ParseError`` at the failing position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON: {exc.msg}", line or exc.lineno, exc.colno) from None


def json_field(obj, key: str, kind: type, line: int = 0):
    """``obj[key]`` of a JSON object, checked to be a ``kind``."""
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line, 1)
    if key not in obj:
        raise ParseError(f"missing key {key!r}", line, 1)
    if not isinstance(obj[key], kind):
        raise ParseError(f"key {key!r} must be of type {kind.__name__}", line, 1)
    return obj[key]


_TOKEN = re.compile(rf"\s*(\[=|==|{NAME}|[().,;:])")


class _Tokens:
    """The tokens of ``text[start:]``, each with its column in ``text``."""

    def __init__(self, text: str, line: int, start: int = 0):
        self.line = line
        self.items: list[tuple[str, int]] = []
        pos = start
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                rest = text[pos:].lstrip()
                if rest:
                    bad = len(text) - len(rest)
                    raise ParseError(f"unexpected character {text[bad]!r}", line, bad + 1)
                break
            self.items.append((m.group(1), m.start(1) + 1))
            pos = m.end()
        self.text = text
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.items[self.i][0] if self.i < len(self.items) else None

    def col(self) -> int:
        """Column of the next token, or just past the line's end."""
        if self.i < len(self.items):
            return self.items[self.i][1]
        return len(self.text.rstrip()) + 1

    def next(self) -> str:
        if self.i >= len(self.items):
            raise ParseError("unexpected end of line", self.line, self.col())
        tok, _ = self.items[self.i]
        self.i += 1
        return tok

    def expect(self, want: str) -> str:
        tok = self.peek()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", self.line, self.col())
        return self.next()

    def name(self) -> str:
        tok = self.next()
        if not NAME_RE.match(tok):
            raise ParseError(f"expected a name, found {tok!r}", self.line, self.last_col())
        return tok

    def last_col(self) -> int:
        """Column of the token ``next`` returned last."""
        return self.items[self.i - 1][1]

    def done(self) -> None:
        if self.i < len(self.items):
            tok, col = self.items[self.i]
            raise ParseError(f"trailing input {tok!r}", self.line, col)


def _parse_unit(ts: _Tokens) -> Concept:
    tok = ts.peek()
    if tok == "top":
        ts.next()
        return TOP
    if tok in ("some", "("):
        if ts.depth == MAX_NESTING:
            raise ParseError(f"concept nested deeper than {MAX_NESTING} levels", ts.line, ts.col())
        ts.depth += 1
        ts.next()
        if tok == "some":
            role = ts.name()
            ts.expect(".")
            inner = Exists(role, _parse_unit(ts))
        else:
            inner = _parse_concept(ts)
            ts.expect(")")
        ts.depth -= 1
        return inner
    if tok is None:
        raise ParseError("expected a concept", ts.line, ts.col())
    return Atom(ts.name())


def _parse_concept(ts: _Tokens) -> Concept:
    parts = [_parse_unit(ts)]
    while ts.peek() == "and":
        ts.next()
        parts.append(_parse_unit(ts))
    return conj(*parts)


def parse_concept(text: str) -> Concept:
    """The concept ``text`` holds; error columns count from its start."""
    ts = _Tokens(text, 0)
    c = _parse_concept(ts)
    ts.done()
    return c


def serialize_concept(c: Concept) -> str:
    """``c`` in the text format; ``StructuralError`` where ``parse_concept`` would refuse it."""
    return _written(c, 0)


def _written(c: Concept, depth: int, unit: bool = False) -> str:
    """``c`` inside ``depth`` levels of ``some`` and of parentheses, which a
    conjunction gets where the grammar wants a ``unit`` (as ``_parse_unit`` counts)."""
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Atom):
        return c.name
    if isinstance(c, Exists) or unit:
        if depth == MAX_NESTING:
            raise StructuralError(f"concept nested deeper than {MAX_NESTING} levels")
        depth += 1
    if isinstance(c, Exists):
        return f"some {c.role}. {_written(c.filler, depth, True)}"
    if isinstance(c, And):
        text = " and ".join(_written(a, depth, True) for a in c.args)
        return f"({text})" if unit else text
    raise TypeError(f"not a concept: {c!r}")


def _statement(raw: str) -> tuple[str, str]:
    """The line up to its comment, and that part without surrounding blanks.

    The parsers tokenize the first, so that error columns are line columns.
    """
    code = raw.split("#", 1)[0]
    return code, code.strip()


def _unknown_statement(code: str, body: str, lineno: int) -> ParseError:
    return ParseError(f"unknown statement {body.split(':')[0]!r}", lineno, code.index(body) + 1)


def parse_tbox(text: str) -> TBox:
    cis: list[CI] = []
    ris: list[RI] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code, body = _statement(raw)
        if not body:
            continue
        if body.startswith("CI:"):
            ts = _Tokens(code, lineno, code.index(":") + 1)
            lhs = _parse_concept(ts)
            op = ts.next()
            if op not in ("[=", "=="):
                raise ParseError(f"expected '[=' or '==', found {op!r}", lineno, ts.last_col())
            rhs = _parse_concept(ts)
            ts.done()
            # the terminology restriction, checked here to give its position
            if not any(isinstance(normalize(c), (Atom, Top)) for c in (lhs, rhs)):
                raise ParseError("inclusion needs a concept name on one side", lineno, ts.items[0][1])
            cis.append(CI(lhs, rhs))
            if op == "==":
                cis.append(CI(rhs, lhs))
        elif body.startswith("RI:"):
            ts = _Tokens(code, lineno, code.index(":") + 1)
            lhs = ts.name()
            ts.expect("[=")
            rhs = ts.name()
            ts.done()
            ris.append(RI(lhs, rhs))
        else:
            raise _unknown_statement(code, body, lineno)
    return terminology(cis, ris)


def serialize_tbox(t: TBox) -> str:
    from .syntax import canonical

    lines = [
        f"CI: {serialize_concept(ci.lhs)} [= {serialize_concept(ci.rhs)}"
        for ci in sorted(t.cis, key=lambda ci: (canonical(ci.lhs), canonical(ci.rhs)))
    ]
    lines += [f"RI: {ri.lhs} [= {ri.rhs}" for ri in sorted(t.ris, key=lambda ri: (ri.lhs, ri.rhs))]
    return "\n".join(lines) + ("\n" if lines else "")


# An ordinary assertion line, with the tokenizer's names and blanks and an
# optional comment.  It accepts only lines that ``_Tokens`` accepts, with the
# same result; every other line, and every error, goes through ``_Tokens``.
_NAME = rf"({NAME})"
_ASSERTION = re.compile(rf"\s*A:\s*{_NAME}\s*\(\s*{_NAME}\s*(?:,\s*{_NAME}\s*)?\)\s*(?:#.*)?")


def parse_abox(text: str) -> ABox:
    concepts: set[tuple[str, str]] = set()
    roles: set[tuple[str, str, str]] = set()
    declared: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _ASSERTION.fullmatch(raw)
        if m:
            pred, first, second = m.groups()
        else:
            code, body = _statement(raw)
            if not body:
                continue
            if not body.startswith(("IND:", "A:")):
                raise _unknown_statement(code, body, lineno)
            ts = _Tokens(code, lineno, code.index(":") + 1)
            if body.startswith("IND:"):
                declared.add(ts.name())
                ts.done()
                continue
            pred, first, second = _atom(ts)
        if second is None:
            concepts.add((pred, first))
        else:
            roles.add((pred, first, second))
    return ABox(frozenset(concepts), frozenset(roles), frozenset(declared))


def _atom(ts: _Tokens) -> tuple[str, str, str | None]:
    """``NAME '(' NAME [',' NAME] ')'`` up to the line's end."""
    pred = ts.name()
    ts.expect("(")
    first = ts.name()
    second = None
    if ts.peek() == ",":
        ts.next()
        second = ts.name()
    ts.expect(")")
    ts.done()
    return pred, first, second


def serialize_abox(a: ABox) -> str:
    lines = [f"A: {n}({i})" for n, i in sorted(a.concept_assertions)]
    lines += [f"A: {r}({x},{y})" for r, x, y in sorted(a.role_assertions)]
    # ``declared`` holds only the individuals no assertion mentions
    lines += [f"IND: {i}" for i in sorted(a.declared)]
    return "\n".join(lines) + ("\n" if lines else "")


_QUERY_PREFIX = re.compile(r"Q:\s*")
# An ``AQ`` or role ``IQ`` query line, read as ``_ASSERTION`` reads an ``A:``
# line: it accepts only lines that ``_Tokens`` accepts, with the same result.
_QUERY_LINE = re.compile(
    rf"\s*Q:\s*(?:AQ\s*{_NAME}\s*\(\s*{_NAME}\s*(?:,\s*{_NAME}\s*)?\)"
    rf"|IQ\s*{_NAME}\s*\(\s*{_NAME}\s*,\s*{_NAME}\s*\))\s*(?:#.*)?"
)
_CQ_ATOM = re.compile(rf"{_NAME}\(\s*{_NAME}\s*(?:,\s*{_NAME}\s*)?\)")
_NOT_SEPARATOR = re.compile(r"[^\s,]")


def parse_query(body: str, lineno: int = 0, start: int = 0) -> Query:
    """The query at ``body[start:]``; error columns count from ``body``'s start."""
    if not body.startswith("Q:", start):
        raise ParseError("query line must start with 'Q:'", lineno, start + 1)
    at = _QUERY_PREFIX.match(body, start).end()
    kind = body[at : at + 2]
    pos = at + 2
    if kind == "AQ":
        pred, first, second = _atom(_Tokens(body, lineno, pos))
        return AtomicQuery(pred, (first,) if second is None else (first, second))
    if kind == "IQ":
        ts = _Tokens(body, lineno, pos)
        first = ts.name()
        if ts.peek() == ":":
            ts.next()
            concept = _parse_concept(ts)
            ts.done()
            return ConceptQuery(concept, first)
        role = first
        ts.expect("(")
        subj = ts.name()
        ts.expect(",")
        obj = ts.name()
        ts.expect(")")
        ts.done()
        return RoleQuery(role, subj, obj)
    if kind == "CQ":
        pieces = body[pos:].split(";")
        if len(pieces) != 3:
            raise ParseError("CQ needs 'answers ; exists vars ; atoms'", lineno, at + 1)
        inds_end = pos + len(pieces[0])
        atoms_at = inds_end + len(pieces[1]) + 2
        answer_inds = tuple(_names(body, pos, inds_end, lineno))
        exists_at = inds_end + 1 + len(pieces[1]) - len(pieces[1].lstrip())
        if not body.startswith("exists", exists_at):
            raise ParseError("second CQ section must start with 'exists'", lineno, exists_at + 1)
        variables = set(_names(body, exists_at + len("exists"), atoms_at - 1, lineno))
        if len(variables) > MAX_NESTING:
            raise ParseError(f"CQ has more than {MAX_NESTING} variables", lineno, exists_at + 1)
        return _parse_cq_atoms(body, atoms_at, answer_inds, variables, lineno)
    raise ParseError(f"unknown query language in {body[at:].rstrip()!r}", lineno, at + 1)


_LIST_ITEM = re.compile(r"[^,]+")


def _names(text: str, start: int, end: int, lineno: int) -> list[str]:
    """The names listed in ``text[start:end]``, comma-separated; blank items are skipped.

    An item that is not a name between blanks goes through ``_Tokens``,
    which gives its error.
    """
    out = []
    for m in _LIST_ITEM.finditer(text, start, end):
        name = m.group().strip()
        if not name:
            continue
        if NAME_RE.fullmatch(name):
            out.append(name)
        else:
            ts = _Tokens(text[: m.end()], lineno, m.start())
            out.append(ts.name())
            ts.done()
    return out


def _parse_cq_atoms(
    text: str, start: int, answer_inds: tuple[str, ...], variables: set[str], lineno: int
) -> ConjunctiveQuery:
    """The atoms at ``text[start:]``: separated by commas and blanks, nothing else."""
    atoms: set = set()

    def term(tok: str) -> Term:
        return Var(tok) if tok in variables else tok

    def only_separators(pos: int, end: int) -> None:
        bad = _NOT_SEPARATOR.search(text, pos, end)
        if bad:
            near = text[bad.start() : end].strip()
            raise ParseError(f"bad CQ atoms near {near!r}", lineno, bad.start() + 1)

    pos = start
    for m in _CQ_ATOM.finditer(text, start):
        only_separators(pos, m.start())
        pred, first, second = m.group(1), m.group(2), m.group(3)
        if second is None:
            atoms.add(ConceptAtom(pred, term(first)))
        else:
            atoms.add(RoleAtom(pred, term(first), term(second)))
        pos = m.end()
    only_separators(pos, len(text))
    if not atoms:
        raise ParseError("CQ needs at least one atom", lineno, start + 1)
    return ConjunctiveQuery(answer_inds, frozenset(Var(v) for v in variables), frozenset(atoms))


def parse_queries(text: str) -> list[Query]:
    out: list[Query] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _QUERY_LINE.fullmatch(raw)
        if m:
            pred, first, second, role, subj, obj = m.groups()
            if role is None:
                out.append(AtomicQuery(pred, (first,) if second is None else (first, second)))
            else:
                out.append(RoleQuery(role, subj, obj))
            continue
        code, body = _statement(raw)
        if body:
            out.append(parse_query(code, lineno, code.index(body)))
    return out


def serialize_query(q: Query) -> str:
    if isinstance(q, AtomicQuery):
        return f"Q: AQ {q.pred}({','.join(q.args)})"
    if isinstance(q, ConceptQuery):
        return f"Q: IQ {q.ind} : {serialize_concept(q.concept)}"
    if isinstance(q, RoleQuery):
        return f"Q: IQ {q.role}({q.subj},{q.obj})"
    if isinstance(q, ConjunctiveQuery):
        def tname(t: Term) -> str:
            return t.name if isinstance(t, Var) else t

        def akey(a) -> tuple:
            if isinstance(a, ConceptAtom):
                return (0, a.name, tname(a.term), "")
            return (1, a.role, tname(a.subj), tname(a.obj))

        rendered = []
        for a in sorted(q.atoms, key=akey):
            if isinstance(a, ConceptAtom):
                rendered.append(f"{a.name}({tname(a.term)})")
            else:
                rendered.append(f"{a.role}({tname(a.subj)},{tname(a.obj)})")
        inds = ", ".join(q.answer_inds)
        variables = ", ".join(sorted(v.name for v in q.exist_vars))
        return f"Q: CQ {inds} ; exists {variables} ; {', '.join(rendered)}"
    raise TypeError(f"not a query: {q!r}")
