"""Normal forms as they were before they shared their unchanged parts.

``normalize`` built a fresh ``Exists`` and a fresh conjunction at every
level, ``terminology`` a fresh ``CI`` for every inclusion, and
``RoleClasses.rewrite`` a fresh concept even when no role changed.  They
are kept verbatim, apart from the imports and ``rewrite`` taking the role
classes as an argument, as the reference that
``tests/test_normal_sharing.py`` compares ``elhlearn`` against.
"""

from __future__ import annotations

from typing import Iterable

from elhlearn.syntax import (
    CI,
    RI,
    And,
    Atom,
    Concept,
    Exists,
    TBox,
    TerminologyError,
    Top,
    canonical,
    conj,
)


def normalize(concept: Concept) -> Concept:
    """Flatten, drop redundant top, deduplicate and sort conjuncts."""
    if isinstance(concept, (Top, Atom)):
        return concept
    if isinstance(concept, Exists):
        return Exists(concept.role, normalize(concept.filler))
    if isinstance(concept, And):
        parts: list[Concept] = []
        for a in concept.args:
            n = normalize(a)
            if isinstance(n, Top):
                continue
            parts.append(n)
        seen: dict[str, Concept] = {}
        for p in parts:
            seen.setdefault(canonical(p), p)
        ordered = [seen[k] for k in sorted(seen)]
        return conj(*ordered)
    raise TypeError(f"not a concept: {concept!r}")


def terminology(cis: Iterable[CI], ris: Iterable[RI] = ()) -> TBox:
    """Build a terminology, merging inclusions with one name on the left.

    Two inclusions ``A [= C`` and ``A [= D``, one of them with a complex
    right side, combine into ``A [= C and D``.
    """
    simple: list[CI] = []
    by_name: dict[str, list[Concept]] = {}
    for ci in cis:
        lhs = normalize(ci.lhs)
        rhs = normalize(ci.rhs)
        if not isinstance(lhs, (Atom, Top)) and not isinstance(rhs, (Atom, Top)):
            raise TerminologyError(
                f"inclusion needs a concept name on one side: {canonical(lhs)} [= {canonical(rhs)}"
            )
        if isinstance(lhs, Atom):
            by_name.setdefault(lhs.name, []).append(rhs)
        else:
            simple.append(CI(lhs, rhs))
    merged: list[CI] = []
    for name in sorted(by_name):
        rhss = by_name[name]
        uniq: list[Concept] = []
        seen: set[str] = set()
        for r in rhss:
            k = canonical(r)
            if k not in seen:
                seen.add(k)
                uniq.append(r)
        complex_rhss = [r for r in uniq if not isinstance(r, (Atom, Top))]
        if len(complex_rhss) > 1 or (complex_rhss and len(uniq) > 1):
            merged.append(CI(Atom(name), normalize(conj(*uniq))))
        else:
            merged.extend(CI(Atom(name), r) for r in uniq)
    return TBox(frozenset(simple + merged), frozenset(ris))


def rewrite(classes, c: Concept) -> Concept:
    """``learn_iq.RoleClasses.rewrite`` of ``classes``."""
    if isinstance(c, Exists):
        return Exists(classes.rep(c.role), rewrite(classes, c.filler))
    if isinstance(c, And):
        return normalize(conj(*(rewrite(classes, a) for a in c.args)))
    return c
