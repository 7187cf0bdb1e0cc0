"""Reference copies of the ABox and query parsers that tokenize every line.

``parse_abox`` is the version before the compiled ``A:`` line pattern,
verbatim apart from imports: every line goes through ``_Tokens``, and an
``IND:`` line with a bad name raises ``StructuralError`` without a position.
``parse_queries``, ``parse_query`` and ``_names`` are the versions before the
compiled ``AQ`` and role ``IQ`` line pattern and the ``NAME_RE`` check of CQ
list items, verbatim apart from imports: every line, and every name listed in
a CQ, goes through ``_Tokens``.
``check_name`` moved here from ``elhlearn.syntax`` once the text parsers
stopped using it.  ``check_disjoint_namespaces`` and ``check_disjoint_names``
moved here from ``elhlearn.syntax``, verbatim, once ``syntax.check_namespaces``
read the TBoxes and ABoxes themselves: the namespace check over signatures
and individuals that it must agree with.
"""

from __future__ import annotations

import re
from typing import Iterable

from elhlearn.syntax import (
    ABox,
    AtomicQuery,
    ConceptQuery,
    MAX_NESTING,
    NAME_RE,
    Query,
    RoleQuery,
    Signature,
    StructuralError,
)
from elhlearn.textio import (
    ParseError,
    _QUERY_PREFIX,
    _Tokens,
    _atom,
    _parse_concept,
    _parse_cq_atoms,
    _statement,
    _unknown_statement,
)


def check_name(name: str) -> str:
    if not NAME_RE.match(name):
        raise StructuralError(f"invalid name: {name!r}")
    return name


def check_disjoint_namespaces(sigs: Iterable[Signature], individuals: Iterable[str] = ()) -> None:
    """Concept, role and individual name spaces must not overlap."""
    concepts: set[str] = set()
    roles: set[str] = set()
    for sig in sigs:
        concepts |= sig.concept_names
        roles |= sig.role_names
    check_disjoint_names(concepts, roles, set(individuals))


def check_disjoint_names(concepts: set[str], roles: set[str], inds: set[str]) -> None:
    """No name is in two of the three sets."""
    for clash in (concepts & roles, concepts & inds, roles & inds):
        if clash:
            raise StructuralError(f"name used in two namespaces: {sorted(clash)}")


def parse_abox(text: str) -> ABox:
    concepts: set[tuple[str, str]] = set()
    roles: set[tuple[str, str, str]] = set()
    declared: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code, body = _statement(raw)
        if not body:
            continue
        if body.startswith("IND:"):
            declared.add(check_name(body[4:].strip()))
            continue
        if not body.startswith("A:"):
            raise _unknown_statement(code, body, lineno)
        ts = _Tokens(code, lineno, code.index(":") + 1)
        pred = ts.name()
        ts.expect("(")
        first = ts.name()
        if ts.peek() == ",":
            ts.next()
            second = ts.name()
            ts.expect(")")
            ts.done()
            roles.add((pred, first, second))
        else:
            ts.expect(")")
            ts.done()
            concepts.add((pred, first))
    return ABox(frozenset(concepts), frozenset(roles), frozenset(declared))



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
    """The names listed in ``text[start:end]``, comma-separated; blank items are skipped."""
    out = []
    for m in _LIST_ITEM.finditer(text, start, end):
        if not m.group().isspace():
            ts = _Tokens(text[: m.end()], lineno, m.start())
            out.append(ts.name())
            ts.done()
    return out


def parse_queries(text: str) -> list[Query]:
    out: list[Query] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code, body = _statement(raw)
        if body:
            out.append(parse_query(code, lineno, code.index(body)))
    return out
