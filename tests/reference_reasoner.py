"""Reasoner inner loops as they were before the last-pair cache path and the early-exit walk.

Kept verbatim as differential references for ``elhlearn.reasoner``:

* ``ModelCache`` looks up both keys and the store on every ``get``; the fast
  cache must keep the same store and key memo, in the same order, after
  every call, so that it evicts exactly the same models.
* ``existential_atom_holds`` sorts every element reachable from the named
  part and then looks for the name; the early-exit walk must give the same
  verdict.
* ``role_assertion_holds`` scans every role assertion for one between the
  pair whose superroles hold the role; the lookup of each role below it
  must give the same verdict.
"""

from __future__ import annotations

from collections import OrderedDict

from elhlearn.reasoner import Element, RegularModel, abox_key, build_model, kb_key, role_closure
from elhlearn.syntax import ABox, TBox


class ModelCache:
    """At most ``limit`` models, the least recently used dropped first.

    The key memo holds two keys per model, each computed once per value.
    """

    def __init__(self, limit: int = 512):
        self.limit = limit
        self._store: OrderedDict[tuple, RegularModel] = OrderedDict()
        self._keys: OrderedDict[TBox | ABox, tuple] = OrderedDict()

    def get(self, t: TBox, a: ABox) -> RegularModel:
        key = (self._key(t, kb_key), self._key(a, abox_key))
        model = self._store.get(key)
        if model is None:
            model = build_model(t, a)
            _put(self._store, key, model, self.limit)
        else:
            self._store.move_to_end(key)
        return model

    def _key(self, value: TBox | ABox, key_of) -> tuple:
        key = self._keys.get(value)
        if key is None:
            key = key_of(value)
            _put(self._keys, value, key, 2 * self.limit)
        else:
            self._keys.move_to_end(value)
        return key


def _put(lru: OrderedDict, key, value, limit: int) -> None:
    if len(lru) >= limit:
        lru.popitem(last=False)
    lru[key] = value


def reachable(model: RegularModel) -> list[Element]:
    """Elements reachable from the named part, named part included."""
    frontier = [e for e in model.labels if e[0] == "n"]
    seen = set(frontier)
    while frontier:
        el = frontier.pop()
        for _, tgt in model.edges[el]:
            if tgt not in seen:
                seen.add(tgt)
                frontier.append(tgt)
    return sorted(seen)


def existential_atom_holds(model: RegularModel, name: str) -> bool:
    return any(name in model.labels[el] for el in reachable(model))


def role_assertion_holds(t: TBox, a: ABox, role: str, x: str, y: str) -> bool:
    up = role_closure(t.ris)
    return any(sx == x and sy == y and role in up[s] for s, sx, sy in a.role_assertions)
