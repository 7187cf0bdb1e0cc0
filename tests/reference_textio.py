"""Reference copy of the ABox parser that tokenizes every line.

``parse_abox`` is the version before the compiled ``A:`` line pattern,
verbatim apart from imports: every line goes through ``_Tokens``, and an
``IND:`` line with a bad name raises ``StructuralError`` without a position.
"""

from __future__ import annotations

from elhlearn.syntax import ABox, check_name
from elhlearn.textio import _Tokens, _statement, _unknown_statement


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

