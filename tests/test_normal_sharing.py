"""Normal forms that share their unchanged parts, against the fresh-copy reference.

``reference_normal`` keeps ``normalize``, ``terminology`` and
``RoleClasses.rewrite`` as they were when they rebuilt every part.  On
drawn concepts (depth up to 4, up to 4 conjuncts, ``top``, duplicates and
unsorted conjuncts inside), on drawn inclusions and on genkb terminologies,
the package must give values equal to the reference's, and:

* ``normalize(n) is n`` for every ``n`` the reference returns;
* ``terminology`` keeps the very ``CI`` object of each inclusion that is
  already normal and merges with no other;
* ``rewrite(c) is c`` for a normal ``c`` none of whose roles has another
  representative.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_normal as ref
from genkb import random_terminology
from elhlearn.learn_iq import role_classes
from elhlearn.syntax import (
    CI,
    RI,
    TOP,
    Atom,
    Exists,
    TerminologyError,
    Top,
    conj,
    normalize,
    subconcepts,
    terminology,
)

NAMES = ["A", "B", "C"]
ROLES = ["r", "s", "t"]
R_IS_S = role_classes(frozenset({RI("r", "s"), RI("s", "r")}), frozenset(ROLES))
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def concepts(draw, depth: int = 4):
    """A concept as written: conjunctions unsorted, with duplicates and ``top``."""
    kind = draw(st.sampled_from(["top", "name", "some", "and"] if depth else ["top", "name"]))
    if kind == "top":
        return TOP
    if kind == "name":
        return Atom(draw(st.sampled_from(NAMES)))
    if kind == "some":
        return Exists(draw(st.sampled_from(ROLES)), draw(concepts(depth - 1)))
    return conj(*draw(st.lists(concepts(depth - 1), min_size=2, max_size=4)))


names = st.builds(Atom, st.sampled_from(NAMES))
inclusions = st.lists(
    st.builds(CI, st.one_of(names, concepts(2)), st.one_of(names, concepts(3))), max_size=6
)
# each inclusion drawn with its converse half of the time, so that roles share a class
role_inclusions = st.lists(
    st.tuples(st.sampled_from(ROLES), st.sampled_from(ROLES), st.booleans()), max_size=3
).map(lambda drawn: [RI(*p) for r, s, both in drawn for p in ([(r, s), (s, r)] if both else [(r, s)])])


def kept_as_is(cis: list[CI]) -> list[CI]:
    """The inputs the reference outputs unchanged: normal, first of their value, not merged."""
    first: dict[CI, CI] = {}
    for ci in cis:
        first.setdefault(CI(ref.normalize(ci.lhs), ref.normalize(ci.rhs)), ci)

    def merged(n: CI) -> bool:
        if not isinstance(n.lhs, Atom):
            return False
        group = [m for m in first if m.lhs == n.lhs]
        complex_rhss = [m for m in group if not isinstance(m.rhs, (Atom, Top))]
        return len(complex_rhss) > 1 or bool(complex_rhss and len(group) > 1)

    return [ci for n, ci in first.items() if ci == n and not merged(n)]


def assert_same_terminology(cis: list[CI], ris: list[RI] = ()) -> None:
    try:
        expected = ref.terminology(cis, ris)
    except TerminologyError:
        with pytest.raises(TerminologyError):
            terminology(cis, ris)
        return
    got = terminology(cis, ris)
    assert got == expected
    for ci in kept_as_is(cis):
        assert any(out is ci for out in got.cis), ci
    for out in got.cis:
        assert normalize(out.lhs) is out.lhs and normalize(out.rhs) is out.rhs


@SETTINGS
@given(concepts())
def test_normalize_equals_the_reference_and_keeps_normal_forms(c):
    n = ref.normalize(c)
    assert normalize(c) == n
    assert normalize(n) is n
    for part in subconcepts(n):
        assert normalize(part) is part


@SETTINGS
@given(inclusions, role_inclusions)
def test_terminology_equals_the_reference_and_keeps_unchanged_inclusions(cis, ris):
    assert_same_terminology(cis, ris)


def test_terminology_keeps_every_inclusion_of_a_genkb_terminology():
    for seed in range(200):
        t = random_terminology(seed, max_depth=3)
        cis = sorted(t.cis, key=repr)
        random.Random(seed).shuffle(cis)
        got = terminology(cis, t.ris)
        assert got == t
        assert all(any(out is ci for out in got.cis) for ci in cis)
        # with written copies of the same inclusions after them
        assert_same_terminology(cis + [CI(conj(ci.lhs, TOP), ci.rhs) for ci in cis], list(t.ris))


@SETTINGS
@given(concepts(), role_inclusions)
def test_rewrite_equals_the_reference_and_keeps_a_concept_without_other_representatives(c, ris):
    n = normalize(c)
    roles = {part.role for part in subconcepts(n) if isinstance(part, Exists)}
    # the drawn classes, and ``r`` and ``s`` in one class, which renames every ``s``
    for classes in (role_classes(frozenset(ris), frozenset(ROLES)), R_IS_S):
        assert classes.rewrite(c) == ref.rewrite(classes, c)
        assert classes.rewrite(n) == ref.rewrite(classes, n)
        if all(classes.rep(r) == r for r in roles):
            assert classes.rewrite(n) is n
