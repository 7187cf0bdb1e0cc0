"""Differential tests of the single refinement engine against the old sweeps.

``reference_simulation`` keeps the four fixpoint loops that ``_refine`` in
``elhlearn.reasoner`` replaced.  On random ABox interpretations and random
pairs of least models (both from ``genkb``) the engine must give the same
greatest simulations and bisimulations, the same ``is_simulation`` verdicts,
the same witness for every removed pair, and the same inseparability gaps.
On models, ``separating_witness`` seeded with the pairs reachable from its
anchors must give the witnesses of a refinement of the full product, and
``_read`` must sort elements as ``repr`` does.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

import reference_simulation as ref
from reference_simulation import abox_interpretation
from genkb import random_abox, random_terminology
from elhlearn.reasoner import (
    LANG_AQ,
    LANG_CQR,
    LANG_IQ,
    _read,
    _refine,
    _witness,
    bisimilar,
    build_model,
    inseparability_gap,
    is_simulation,
    separating_witness,
    simulation,
)
from elhlearn.syntax import TBox, terminology

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 10**6)


@st.composite
def interpretation_pairs(draw):
    """Interpretations of two random ABoxes over one random signature."""
    t = random_terminology(draw(seeds), max_concepts=3, max_roles=3)
    size = draw(st.integers(2, 10)), draw(st.integers(2, 30))
    a1 = random_abox(draw(seeds), t, *size)
    a2 = random_abox(draw(seeds), t, *size)
    return abox_interpretation(a1), abox_interpretation(a2)


@st.composite
def kbs(draw):
    """Two random terminologies and a random ABox over their joint signature."""
    t = random_terminology(draw(seeds))
    h = random_terminology(draw(seeds))
    both = terminology(t.cis | h.cis, t.ris | h.ris)
    a = random_abox(draw(seeds), both, draw(st.integers(1, 5)), draw(st.integers(2, 10)))
    return t, h, a


@st.composite
def model_pairs(draw):
    t, h, a = draw(kbs())
    return build_model(t, a), build_model(h, a)


graph_pairs = st.one_of(interpretation_pairs(), model_pairs())


def pairs_of(gi, gj) -> list[tuple]:
    return sorted(itertools.product(gi.elements(), gj.elements()), key=repr)


@SETTINGS
@given(graph_pairs, st.booleans())
def test_greatest_simulation_matches_reference(graphs, bundles):
    gi, gj = graphs
    assert simulation(gi, gj, bundles) == frozenset(ref._greatest_simulation(gi, gj, bundles))


@SETTINGS
@given(interpretation_pairs())
def test_greatest_bisimulation_matches_reference(graphs):
    gi, gj = graphs
    rel = bisimilar(gi, gj)
    for d, e in pairs_of(gi, gj):
        expected = ref.bisimilar(gi, d, gj, e)
        assert ((d, e) in rel) == (expected is not None)
        if expected is not None:
            assert rel == expected


@SETTINGS
@given(graph_pairs, st.data())
def test_is_simulation_verdicts_match_reference(graphs, data):
    gi, gj = graphs
    greatest = sorted(simulation(gi, gj), key=repr)
    candidates = [
        greatest,
        data.draw(st.lists(st.sampled_from(pairs_of(gi, gj)), max_size=8)),
    ]
    if greatest:
        candidates.append(data.draw(st.lists(st.sampled_from(greatest), max_size=8)))
    for rel in candidates:
        assert is_simulation(rel, gi, gj) == ref.is_simulation(rel, gi, gj)


def assert_same_witnesses(gi, gj, bundles: bool) -> None:
    rounds = ref._elimination_rounds(gi, gj, bundles)
    _, reason = _refine(gi, gj, bundles)
    assert reason.keys() == rounds.reason.keys()
    memo, ref_memo = {}, {}
    for pair in sorted(reason, key=repr):
        assert _witness(reason, pair, memo) == ref._witness(rounds, pair, ref_memo)


@SETTINGS
@given(graph_pairs, st.booleans())
def test_witness_of_every_removed_pair_matches_reference(graphs, bundles):
    assert_same_witnesses(*graphs, bundles)


def test_witnesses_on_fixed_genkb_interpretations():
    # a fixed sweep as well: a removal order that differs from the reference
    # shows in only a few percent of random pairs
    for seed in range(150):
        t = random_terminology(seed, max_concepts=3, max_roles=3)
        gi = abox_interpretation(random_abox(seed, t, 10, 30))
        gj = abox_interpretation(random_abox(seed + 1000, t, 10, 30))
        for bundles in (False, True):
            assert_same_witnesses(gi, gj, bundles)


@SETTINGS
@given(model_pairs(), st.booleans())
def test_anchored_witnesses_match_reference(models, bundles):
    gi, gj = models
    anchors = sorted((el for el in gi.elements() if el[0] == "n"), key=repr)
    found = separating_witness(gi, anchors, gj, bundles)
    for d in anchors:
        assert found.get(d) == ref.separating_witness(gi, d, gj, d, bundles)


def assert_same_as_product(gi, gj) -> None:
    """The reachable seed gives the full product's witness at every anchor.

    Every element of either graph is an anchor, and so is an individual of
    neither: an anchor missing from one graph has no witness.
    """
    anchors = sorted(set(gi.elements()) | set(gj.elements()) | {("n", "nobody")})
    for bundles in (False, True):
        found = separating_witness(gi, anchors, gj, bundles)
        assert found == ref.product_separating_witness(gi, anchors, gj, bundles)
        assert all(d in gi.labels and d in gj.labels for d in found)


def assert_read_as_by_repr(model) -> None:
    for bundles in (False, True):
        assert _read(model, bundles) == ref.repr_read(model, bundles)


@SETTINGS
@given(model_pairs())
def test_reachable_seed_witnesses_match_product(models):
    assert_same_as_product(*models)
    for model in models:
        assert_read_as_by_repr(model)


def test_reachable_seed_on_fixed_genkb_models():
    for seed in range(100):
        t, h = random_terminology(seed), random_terminology(seed + 1000)
        a = random_abox(seed, terminology(t.cis | h.cis, t.ris | h.ris))
        for first, second in ((t, h), (t, TBox()), (TBox(), t)):
            gi, gj = build_model(first, a), build_model(second, a)
            assert_same_as_product(gi, gj)
            for model in (gi, gj):
                assert_read_as_by_repr(model)


@SETTINGS
@given(kbs(), st.sampled_from([LANG_AQ, LANG_IQ, LANG_CQR]), st.sampled_from([None, 1, 2]))
def test_inseparability_gap_matches_reference(kb, lang, limit):
    t, h, a = kb
    assert inseparability_gap(t, h, a, lang, limit=limit) == ref.inseparability_gap(
        t, h, a, lang, limit=limit
    )


def test_gap_against_empty_tbox_matches_reference():
    for seed in range(40):
        t = random_terminology(seed)
        a = random_abox(seed, t)
        for lang in (LANG_IQ, LANG_CQR):
            for first, second in ((t, TBox()), (TBox(), t)):
                assert inseparability_gap(first, second, a, lang) == ref.inseparability_gap(
                    first, second, a, lang
                )
