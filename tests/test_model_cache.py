"""What ``ModelCache`` computes, and how often.

``kb_key`` runs once per distinct ``TBox`` value per process, equal but
distinct objects and separate caches included, and its memo stays bounded;
a full cache drops its least recently used model; and every model it
returns equals a fresh ``build_model``.  Asked again for the objects it was
asked for last, the cache answers without key or store work; over any
sequence of gets it keeps and evicts exactly what
``reference_reasoner.ModelCache`` does, which looks up both keys and the
store every time.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from genkb import random_abox, random_terminology
from elhlearn import reasoner
from elhlearn.reasoner import LANG_IQ, ModelCache, answers_query, build_model, inseparable, kb_key
from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    ConceptQuery,
    Exists,
    TBox,
    abox,
    terminology,
)
from elhlearn.teacher import OracleSession, framework_for
import reference_reasoner

T = terminology([CI(Atom("A"), Exists("r", Atom("B"))), CI(Exists("r", Atom("B")), Atom("C"))])


def copy_tbox(t: TBox) -> TBox:
    return TBox(frozenset(set(t.cis)), frozenset(set(t.ris)))


def copy_abox(a: ABox) -> ABox:
    return ABox(frozenset(set(a.concept_assertions)), frozenset(set(a.role_assertions)),
                frozenset(set(a.declared)))


def chain(n: int) -> ABox:
    return abox(
        concepts=[("A" if i % 3 else "B", f"v{i}") for i in range(n)],
        roles=[("r", f"v{i}", f"v{i + 1}") for i in range(n - 1)],
    )


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``kb_key``, ``abox_key`` and ``build_model``, with their arguments.

    ``kb_key``'s memo starts empty, so its misses do not depend on test order.
    """
    kb_key.cache_clear()
    seen: dict[str, list] = {"kb_key": [], "abox_key": [], "build_model": []}
    for name in seen:
        orig = getattr(reasoner, name)

        def counted(*args, _orig=orig, _name=name):
            seen[_name].append(args)
            return _orig(*args)

        monkeypatch.setattr(reasoner, name, counted)
    return seen


def test_each_tbox_is_keyed_once_per_value_across_caches(counts):
    a1, a2 = abox(concepts=[("A", "x")]), abox(concepts=[("B", "y")])
    for cache in (ModelCache(), ModelCache()):
        for _ in range(3):
            for t in (T, copy_tbox(T), TBox()):
                for a in (a1, copy_abox(a1), a2):
                    cache.get(t, a)
    assert kb_key.cache_info().misses == 2
    assert len(counts["build_model"]) == 8


def test_a_session_leaves_nothing_for_inseparable_to_key(counts):
    h = terminology([CI(Atom("A"), Atom("C"))])
    a0 = abox(concepts=[("A", "a")], roles=[("r", "a", "b")])
    session = OracleSession(T, framework_for(T, a0, LANG_IQ))
    assert session.inseparability(h) is not None
    misses = kb_key.cache_info().misses
    assert misses == 2
    assert inseparable(T, h, a0, LANG_IQ) is not None
    assert inseparable(T, copy_tbox(h), a0, LANG_IQ) is not None
    assert kb_key.cache_info().misses == misses


def test_twelve_queries_on_a_large_abox_sort_it_once(counts):
    big = chain(400)
    cache = ModelCache()
    queries = [ConceptQuery(Atom(n), f"v{i}") for n in "ABC" for i in (0, 1, 200, 398)]
    assert len(queries) == 12
    verdicts = [answers_query(T, big, q, cache) for q in queries]
    assert verdicts == [answers_query(T, big, q) for q in queries]
    assert [args for args in counts["abox_key"] if args[0] is big] == [(big,)]
    assert len(counts["kb_key"]) == 1


def test_abox_key_is_equal_exactly_for_equal_aboxes():
    concepts = [("A", f"v{i}") for i in range(30)] + [("B", "v3")]
    roles = [("r", f"v{i}", f"v{i + 1}") for i in range(29)] + [("s", "v3", "v0")]
    forward = abox(concepts, roles, declared=["w", "u"])
    backward = abox(reversed(concepts), reversed(roles), declared=["u", "w", "v1"])
    assert forward == backward
    assert reasoner.abox_key(forward) == reasoner.abox_key(backward)
    assert hash(reasoner.abox_key(forward)) == hash(reasoner.abox_key(backward))
    fewer = abox(concepts, roles, declared=["w"])
    assert reasoner.abox_key(fewer) != reasoner.abox_key(forward)
    assert reasoner.abox_key(abox(concepts, roles)) != reasoner.abox_key(fewer)


def test_a_full_cache_drops_the_least_recently_used_model(counts):
    cache = ModelCache(limit=2)
    a1, a2, a3 = (abox(concepts=[("A", f"x{i}")]) for i in range(3))
    cache.get(T, a1)
    cache.get(T, a2)
    cache.get(T, a1)  # a hit makes a1 the most recently used
    cache.get(T, a3)  # evicts a2
    assert [args[1] for args in counts["build_model"]] == [a1, a2, a3]
    cache.get(T, a1)
    cache.get(T, a3)
    assert len(counts["build_model"]) == 3
    cache.get(T, a2)
    assert [args[1] for args in counts["build_model"]] == [a1, a2, a3, a2]


def test_the_key_memo_stays_bounded():
    cache = ModelCache(limit=4)
    for i in range(50):
        cache.get(T if i % 2 else TBox(), abox(concepts=[("A", f"x{i}")]))
        assert len(cache._store) <= cache.limit
    for i in range(1100):
        kb_key(terminology([CI(Atom(f"A{i}"), Atom("B"))]))
    info = kb_key.cache_info()
    assert info.maxsize == 1024 and info.currsize <= 1024


def test_every_model_equals_a_fresh_build():
    cache = ModelCache(limit=5)
    kbs = []
    for seed in range(12):
        t = random_terminology(seed)
        kbs += [(t, random_abox(seed, t)), (copy_tbox(t), random_abox(seed + 100, t))]
    for round_ in range(3):
        for k, (t, a) in enumerate(kbs):
            if (k + round_) % 3:
                assert cache.get(t, a) == build_model(t, a)
    assert answers_query(T, abox(concepts=[("A", "x")]), AtomicQuery("C", ("x",)), cache)


class CountingDict(OrderedDict):
    """An ``OrderedDict`` that records every lookup and change made to it."""

    def __init__(self, items):
        self.ops: list[str] = []
        super().__init__(items)
        self.ops.clear()  # the copy is not recorded

    def get(self, key, default=None):
        self.ops.append("get")
        return super().get(key, default)

    def move_to_end(self, key, last=True):
        self.ops.append("move_to_end")
        super().move_to_end(key, last)

    def __setitem__(self, key, value):
        self.ops.append("set")
        super().__setitem__(key, value)

    def popitem(self, last=True):
        self.ops.append("popitem")
        return super().popitem(last)


def test_a_repeated_get_does_no_key_or_store_work(counts):
    cache = ModelCache()
    a = chain(50)
    model = cache.get(T, a)
    cache._store = CountingDict(cache._store)
    for _ in range(5):
        assert cache.get(T, a) is model
    assert cache._store.ops == []
    assert len(counts["kb_key"]) == len(counts["abox_key"]) == len(counts["build_model"]) == 1
    # an equal but distinct object takes the keyed path, and finds the model
    assert cache.get(T, copy_abox(a)) is model
    assert cache._store.ops == ["get", "move_to_end"]
    assert len(counts["build_model"]) == 1


def test_gets_keep_and_evict_what_the_reference_cache_does():
    rng = random.Random(7)
    tboxes = [T, TBox(), random_terminology(3)]
    aboxes = [chain(3), chain(4), abox(concepts=[("A", "x")]), random_abox(5, tboxes[2])]
    tboxes += [copy_tbox(t) for t in tboxes]
    aboxes += [copy_abox(a) for a in aboxes]
    for limit in (1, 2, 3, 5):
        fast, slow = ModelCache(limit), reference_reasoner.ModelCache(limit)
        t, a = tboxes[0], aboxes[0]
        for _ in range(400):
            # most gets repeat the last objects, as answering several
            # queries over one knowledge base does
            if rng.random() < 0.5:
                t = rng.choice(tboxes)
            if rng.random() < 0.5:
                a = rng.choice(aboxes)
            assert fast.get(t, a) == slow.get(t, a)
            assert list(fast._store) == list(slow._store)
