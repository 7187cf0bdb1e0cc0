"""What ``ModelCache`` computes, and how often.

Each key is computed once per distinct ``TBox`` or ``ABox`` value in one
cache, equal but distinct objects included; a full cache drops its least
recently used model; the key memo stays bounded; and every model it returns
equals a fresh ``build_model``.
"""

from __future__ import annotations

import pytest

from genkb import random_abox, random_terminology
from elhlearn import reasoner
from elhlearn.reasoner import ModelCache, answers_query, build_model
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
    """Calls of ``kb_key``, ``abox_key`` and ``build_model``, with their arguments."""
    seen: dict[str, list] = {"kb_key": [], "abox_key": [], "build_model": []}
    for name in seen:
        orig = getattr(reasoner, name)

        def counted(*args, _orig=orig, _name=name):
            seen[_name].append(args)
            return _orig(*args)

        monkeypatch.setattr(reasoner, name, counted)
    return seen


def test_each_key_is_computed_once_per_value(counts):
    cache = ModelCache()
    a1, a2 = abox(concepts=[("A", "x")]), abox(concepts=[("B", "y")])
    for _ in range(3):
        for t in (T, copy_tbox(T), TBox()):
            for a in (a1, copy_abox(a1), a2):
                cache.get(t, a)
    assert counts["kb_key"] == [(T,), (TBox(),)]
    assert counts["abox_key"] == [(a1,), (a2,)]
    assert len(counts["build_model"]) == 4


def test_twelve_queries_on_a_large_abox_sort_it_once(counts):
    big = chain(400)
    cache = ModelCache()
    queries = [ConceptQuery(Atom(n), f"v{i}") for n in "ABC" for i in (0, 1, 200, 398)]
    assert len(queries) == 12
    verdicts = [answers_query(T, big, q, cache) for q in queries]
    assert verdicts == [answers_query(T, big, q) for q in queries]
    assert [args for args in counts["abox_key"] if args[0] is big] == [(big,)]
    assert len(counts["kb_key"]) == 1


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
        assert len(cache._keys) <= 2 * cache.limit
        assert len(cache._store) <= cache.limit


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
