import pytest

from bruteforce import abox_homomorphism
from genkb import covering_abox, random_terminology
from elhlearn.batch import BatchItem, build_batch, dump_batch, learn_from_batch, load_batch
from elhlearn.reasoner import LANG_AQ, LANG_CQR, LANG_IQ, inseparable
from elhlearn.syntax import (
    Atom,
    AtomicQuery,
    CI,
    ConfigurationError,
    Exists,
    RI,
    StructuralError,
    TBox,
    abox,
    terminology,
)


def ex1():
    t = terminology(
        [CI(Atom("B"), Exists("s", Atom("B"))), CI(Exists("r", Exists("s", Atom("B"))), Atom("A"))]
    )
    a0 = abox(concepts=[("B", "b"), ("A", "q")], roles=[("r", "a", "b"), ("s", "c", "c")])
    return t, a0


def test_atomic_target_batch_contains_the_example():
    t = terminology([CI(Atom("A"), Atom("B"))])
    a0 = abox(concepts=[("A", "a"), ("B", "a")])
    items = build_batch(t, a0, LANG_AQ)
    assert any(
        i.kind == "ci" and i.query == AtomicQuery("B", ("p0",)) for i in items
    )


def test_signature_requirement():
    t = terminology([CI(Atom("A"), Exists("r", Atom("B")))])
    with pytest.raises(ConfigurationError):
        build_batch(t, abox(concepts=[("A", "a")]), LANG_AQ)


def test_tree_examples_map_into_the_fixed_abox():
    t, a0 = ex1()
    for lang in (LANG_AQ, LANG_IQ, LANG_CQR):
        for item in build_batch(t, a0, lang):
            assert item.label == 1
            assert abox_homomorphism(item.abox, a0) is not None, (lang, item)


def test_replay_reproduces_inseparable_hypothesis():
    t, a0 = ex1()
    for lang in (LANG_AQ, LANG_IQ, LANG_CQR):
        items = build_batch(t, a0, lang)
        h = learn_from_batch(items, a0, lang)
        assert inseparable(t, h, a0, lang) is None


def test_replay_makes_no_oracle_calls():
    t, a0 = ex1()
    items = build_batch(t, a0, LANG_IQ)
    # reconstruction gets only the serialized items, there is no session at all
    text = dump_batch(items)
    h = learn_from_batch(load_batch(text), a0, LANG_IQ)
    assert inseparable(t, h, a0, LANG_IQ) is None


def test_empty_batch_gives_empty_hypothesis():
    assert learn_from_batch([], abox(concepts=[("A", "a")]), LANG_AQ) == TBox()


def test_malformed_tree_item_rejected():
    bad = BatchItem(
        "tree",
        abox(roles=[("r", "a", "b"), ("r", "b", "a")]),
        AtomicQuery("A", ("a",)),
    )
    with pytest.raises(StructuralError):
        learn_from_batch([bad], abox(), LANG_AQ)


def test_negative_labels_rejected():
    bad = BatchItem("ci", abox(concepts=[("A", "p0")]), AtomicQuery("B", ("p0",)), label=0)
    with pytest.raises(StructuralError):
        learn_from_batch([bad], abox(), LANG_AQ)


def test_file_round_trip():
    t, a0 = ex1()
    items = build_batch(t, a0, LANG_IQ)
    assert load_batch(dump_batch(items)) == items


def test_batch_size_stays_polynomial():
    from elhlearn.syntax import size_of

    for seed in range(25):
        t = random_terminology(seed)
        a0 = covering_abox(seed, t)
        for lang in (LANG_AQ, LANG_IQ):
            items = build_batch(t, a0, lang, seed=seed)
            budget = 40 * (size_of(t) + size_of(a0) + 10) ** 2
            assert sum(size_of(i.abox) + size_of(i.query) for i in items) <= budget


def test_random_targets_replay():
    for seed in range(25):
        t = random_terminology(seed)
        a0 = covering_abox(seed, t)
        for lang in (LANG_AQ, LANG_IQ, LANG_CQR):
            items = build_batch(t, a0, lang, seed=seed)
            h = learn_from_batch(items, a0, lang)
            assert inseparable(t, h, a0, lang) is None
