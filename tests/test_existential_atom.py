"""The boolean CQ ``exists w ; A(w)``: the early-exit walk against the old sort.

``reference_reasoner.existential_atom_holds`` sorts every element reachable
from the named part and then looks for the name.  The walk in
``reasoner._existential_atom_holds`` stops at the first element it finds
with the name; both must agree on every name, one absent from the model
included.
"""

from __future__ import annotations

from hypothesis import given

from genkb import random_abox, random_terminology
from elhlearn.reasoner import _existential_atom_holds, answers_query, build_model
from elhlearn.syntax import (
    ABox,
    Atom,
    CI,
    ConceptAtom,
    ConjunctiveQuery,
    Exists,
    Var,
    abox,
    terminology,
)
from reference_reasoner import existential_atom_holds as reference_holds
from test_saturation import CONCEPTS, SETTINGS, aboxes, terminologies

ABSENT = "Absent"


def boolean_cq(name: str) -> ConjunctiveQuery:
    w = Var("w")
    return ConjunctiveQuery((), frozenset({w}), frozenset({ConceptAtom(name, w)}))


def assert_walk_matches_reference(t, a) -> None:
    model = build_model(t, a)
    names = set(CONCEPTS) | {n for label in model.labels.values() for n in label}
    for name in sorted(names) + [ABSENT]:
        expected = reference_holds(model, name)
        assert _existential_atom_holds(model, name) == expected, name
        assert answers_query(t, a, boolean_cq(name)) == expected, name


@SETTINGS
@given(terminologies(), aboxes())
def test_walk_matches_reference_on_generated_models(t, a):
    assert_walk_matches_reference(t, a)


def test_walk_matches_reference_on_genkb_models():
    for seed in range(60):
        t = random_terminology(seed)
        assert_walk_matches_reference(t, random_abox(seed, t))
        assert_walk_matches_reference(t, ABox())


def test_an_element_no_individual_reaches_does_not_count():
    t = terminology([CI(Atom("A"), Exists("r", Atom("B"))), CI(Atom("C"), Exists("s", Atom("D")))])
    a = abox(concepts=[("A", "x")])
    model = build_model(t, a)
    assert ("a", "D") in model.labels  # the filler of C's existential is there ...
    assert not _existential_atom_holds(model, "D")  # ... but nothing reaches it
    assert _existential_atom_holds(model, "B")
    assert not _existential_atom_holds(model, ABSENT)


def test_a_name_held_only_by_anonymous_elements():
    t = terminology([CI(Atom("A"), Exists("r", Atom("E")))])
    reached = abox(concepts=[("A", "x")])
    unreached = abox(concepts=[("B", "x")])
    named = [label for (kind, _), label in build_model(t, reached).labels.items() if kind == "n"]
    assert not any("E" in label for label in named)  # only ("a", "E") has E ...
    assert answers_query(t, reached, boolean_cq("E"))  # ... and x reaches it
    assert ("a", "E") in build_model(t, unreached).labels  # E is there, but no A
    assert not answers_query(t, unreached, boolean_cq("E"))
    assert not answers_query(t, reached, boolean_cq(ABSENT))
    assert not answers_query(terminology([]), ABox(), boolean_cq(ABSENT))
