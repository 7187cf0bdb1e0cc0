"""Cycle search and unfolding as they were before ``find_cycle`` returned a pair.

``find_cycle`` walked the shortest undirected cycle as a list of
``(start_node, assertion, forward)`` steps, rotated it (reversing it when
every step ran backwards) so that it began with a forward step, and
``unfold_cycle`` validated that list before it opened the first step.  They
are kept verbatim, apart from the imports, as the reference that
``tests/test_learn_aq.py`` compares ``elhlearn.learn_aq`` against.
"""

from __future__ import annotations

from elhlearn.learn_aq import _is_forest
from elhlearn.syntax import ABox, StructuralError

Cycle = list[tuple[str, tuple[str, str, str], bool]]
"""Steps ``(start_node, assertion, forward)`` walking an undirected cycle."""


def find_cycle(a: ABox) -> Cycle | None:
    """Shortest undirected cycle through distinct assertions, if any.

    Every cycle contains some assertion e, and the shortest one through e is
    the shortest path between e's endpoints that avoids e, closed by e.
    There is none exactly when the assertions form a forest, which one pass
    checks first; a self-loop or a second assertion between the same two
    individuals, in either direction, is a cycle.
    """
    if _is_forest(a.role_assertions):
        return None
    edges: list[tuple[str, str, str]] = sorted(a.role_assertions)
    adj: dict[str, list[tuple[tuple[str, str, str], str, bool]]] = {}
    for e in edges:
        r, x, y = e
        adj.setdefault(x, []).append((e, y, True))
        adj.setdefault(y, []).append((e, x, False))
    for node in adj:
        adj[node].sort()

    def shortest_path(src: str, dst: str, banned) -> Cycle | None:
        if src == dst:
            return []
        parent: dict[str, tuple[str, tuple[str, str, str], bool]] = {}
        queue = [src]
        seen = {src}
        while queue:
            node = queue.pop(0)
            for e, nxt, fwd in adj.get(node, []):
                if e == banned or nxt in seen:
                    continue
                parent[nxt] = (node, e, fwd)
                if nxt == dst:
                    steps: Cycle = []
                    cur = dst
                    while cur != src:
                        prev, pe, pfwd = parent[cur]
                        steps.append((prev, pe, pfwd))
                        cur = prev
                    return steps[::-1]
                seen.add(nxt)
                queue.append(nxt)
        return None

    best: Cycle | None = None
    for e in edges:
        r, x, y = e
        path = shortest_path(x, y, banned=e)
        if path is None:
            continue
        cand = path + [(y, e, False)] if path else [(x, e, True)]
        if x == y:
            cand = [(x, e, True)]
        if best is None or len(cand) < len(best) or (len(cand) == len(best) and cand < best):
            best = cand
    if best is None:
        return None
    # rotate so the first step is a forward assertion leaving the start node
    for i, (_, e, fwd) in enumerate(best):
        if fwd:
            return best[i:] + best[:i]
    # all steps are backwards: walk the cycle in the other direction
    rev: Cycle = []
    n = len(best)
    for i in range(n - 1, -1, -1):
        node, e, fwd = best[i]
        nxt = best[(i + 1) % n][0]
        rev.append((nxt, e, not fwd))
    for i, (_, e, fwd) in enumerate(rev):
        if fwd:
            return rev[i:] + rev[:i]
    raise StructuralError("cycle with no usable orientation")


def cycle_nodes(cycle: Cycle) -> list[str]:
    return [step[0] for step in cycle]


def _validate_cycle(a: ABox, cycle: Cycle) -> None:
    if not cycle:
        raise StructuralError("empty cycle")
    assertions = [e for _, e, _ in cycle]
    if len(set(assertions)) != len(assertions):
        raise StructuralError("cycle repeats an assertion")
    for i, (node, e, fwd) in enumerate(cycle):
        r, x, y = e
        if e not in a.role_assertions:
            raise StructuralError(f"assertion {e} not in ABox")
        here, there = (x, y) if fwd else (y, x)
        if here != node:
            raise StructuralError("cycle step does not start at its node")
        nxt = cycle[(i + 1) % len(cycle)][0]
        if there != nxt:
            raise StructuralError("cycle steps do not chain")
    first = cycle[0]
    if not first[2]:
        raise StructuralError("first cycle step must be a forward assertion")


def unfold_cycle(a: ABox, cycle: Cycle) -> ABox:
    """Double one undirected cycle; see the module docstring for the steps."""
    _validate_cycle(a, cycle)
    nodes = set(cycle_nodes(cycle))
    existing = a.individuals()

    def copy_name(b: str) -> str:
        cand = f"{b}_hat"
        while cand in existing:
            cand += "x"
        return cand

    hat = {b: copy_name(b) for b in sorted(nodes)}

    opened = set(a.role_assertions)
    r1, a0, a1 = cycle[0][1]
    opened.discard((r1, a0, a1))

    concepts = set(a.concept_assertions)
    for name, ind in a.concept_assertions:
        if ind in nodes:
            concepts.add((name, hat[ind]))
    roles = set(opened)
    for r, x, y in opened:
        if x in nodes and y in nodes:
            roles.add((r, hat[x], hat[y]))
        elif x in nodes:
            roles.add((r, hat[x], y))
    roles.add((r1, a0, hat[a1]))
    roles.add((r1, hat[a0], a1))
    declared = set(a.declared) | {hat[b] for b in nodes if b in a.declared}
    return ABox(frozenset(concepts), frozenset(roles), frozenset(declared))
