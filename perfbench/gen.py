"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its seed arguments, so one seed
always yields the same inputs.  The generators are the benchmark's own:
the corpus shape follows the acceptance corpus (at most 6 concept and 3
role names, TBox size at most 25, at most 10 assertions) but editing the
test suite cannot change what the benchmark runs.

The reason-stream data is a growing r-tree with a fixed TBox whose
consequences are known in closed form, so every expected verdict is
derived from the tree itself, never from the reasoner under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    ConceptQuery,
    Exists,
    RI,
    TBox,
    TOP,
    abox,
    conj,
    normalize,
    signature_of_abox,
    signature_of_tbox,
    size_of,
    terminology,
)

CONCEPT_POOL = ["A1", "A2", "A3", "A4", "A5", "A6"]
ROLE_POOL = ["r1", "r2", "r3"]
IND_POOL = [f"i{k}" for k in range(10)]
# The fixed shape of the acceptance corpus: a TBox draws 2..4 concept and
# 1..2 role names, concepts nest to depth 2, a TBox has size at most 25
# and an ABox at most 6 individuals.
TBOX_CONCEPTS = 4
TBOX_ROLES = 2
TBOX_MAX_SIZE = 25
CONCEPT_DEPTH = 2
ABOX_INDS = 6
POOL_DRAWS = 60  # query draws per PAC example pool, before duplicates go
QUERIES_PER_KIND = 2  # reason-stream queries of each non-boolean kind


def rng_for(*parts) -> random.Random:
    """Independent stream per purpose; string seeds hash the same in every process."""
    return random.Random(":".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# Corpus-shaped knowledge bases
# ---------------------------------------------------------------------------


def random_concept(rng: random.Random, concepts, roles, depth: int):
    if depth <= 0 or rng.random() < 0.45:
        if rng.random() < 0.06:
            return TOP
        return Atom(rng.choice(concepts))
    if rng.random() < 0.55:
        return Exists(rng.choice(roles), random_concept(rng, concepts, roles, depth - 1))
    parts = [random_concept(rng, concepts, roles, depth - 1) for _ in range(rng.randint(2, 3))]
    return normalize(conj(*parts))


def corpus_tbox(rng: random.Random) -> TBox:
    """Terminology of size at most ``TBOX_MAX_SIZE`` over the first pool names."""
    concepts = CONCEPT_POOL[: rng.randint(2, TBOX_CONCEPTS)]
    roles = ROLE_POOL[: rng.randint(1, TBOX_ROLES)]
    cis: list[CI] = []
    ris: list[RI] = []
    rhs_used: set[str] = set()
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.40:
            lhs = random_concept(rng, concepts, roles, CONCEPT_DEPTH)
            if isinstance(lhs, Atom) and rng.random() < 0.5:
                lhs = Exists(rng.choice(roles), lhs)
            cis.append(CI(lhs, Atom(rng.choice(concepts))))
        elif kind < 0.75:
            name = rng.choice(concepts)
            if name in rhs_used:
                continue
            rhs_used.add(name)
            cis.append(CI(Atom(name), random_concept(rng, concepts, roles, CONCEPT_DEPTH)))
        else:
            cis.append(CI(Atom(rng.choice(concepts)), Atom(rng.choice(concepts))))
    if len(roles) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(roles, 2)
        ris.append(RI(a, b))
        if rng.random() < 0.2:
            ris.append(RI(b, a))
    t = terminology(cis, ris)
    while size_of(t) > TBOX_MAX_SIZE and t.cis:
        drop = sorted(t.cis, key=lambda ci: -size_of(ci))[0]
        t = terminology(set(t.cis) - {drop}, t.ris)
    return t


def _names(t: TBox) -> tuple[list[str], list[str]]:
    sig = signature_of_tbox(t)
    return sorted(sig.concept_names) or ["A1"], sorted(sig.role_names) or ["r1"]


def corpus_abox(rng: random.Random, t: TBox, max_assertions: int = 10) -> ABox:
    concepts, roles = _names(t)
    inds = IND_POOL[: rng.randint(1, ABOX_INDS)]
    cas, ras = set(), set()
    for _ in range(rng.randint(1, max_assertions)):
        if rng.random() < 0.55:
            cas.add((rng.choice(concepts), rng.choice(inds)))
        else:
            ras.add((rng.choice(roles), rng.choice(inds), rng.choice(inds)))
    return abox(concepts=cas, roles=ras)


def covering_abox(rng: random.Random, t: TBox) -> ABox:
    """Small ABox whose signature contains the whole TBox signature."""
    base = corpus_abox(rng, t, max_assertions=4)
    sig = signature_of_tbox(t)
    cas, ras = set(base.concept_assertions), set(base.role_assertions)
    inds = sorted(base.individuals()) or ["i0"]
    for name in sorted(sig.concept_names):
        if not any(n == name for n, _ in cas):
            cas.add((name, rng.choice(inds)))
    for role in sorted(sig.role_names):
        if not any(r == role for r, _, _ in ras):
            ras.add((role, rng.choice(inds), rng.choice(inds)))
    return abox(concepts=cas, roles=ras)


def query_pool(rng: random.Random, t: TBox, a0: ABox) -> list:
    """Distinct atomic and instance queries over the joint signature."""
    sig = signature_of_tbox(t).union(signature_of_abox(a0))
    concepts = sorted(sig.concept_names) or ["A1"]
    roles = sorted(sig.role_names) or ["r1"]
    inds = sorted(a0.individuals())
    uniq = {}
    for _ in range(POOL_DRAWS):
        ind = rng.choice(inds)
        if rng.random() < 0.3:
            q = AtomicQuery(rng.choice(concepts), (ind,))
        else:
            q = ConceptQuery(random_concept(rng, concepts, roles, CONCEPT_DEPTH), ind)
        uniq[repr(q)] = q
    return list(uniq.values())


def renamed_copy(a0: ABox, suffix: str) -> ABox:
    """``a0`` plus a disjoint copy of all of it under renamed individuals."""
    ren = {i: f"{i}{suffix}" for i in a0.individuals()}
    copy = abox(
        concepts={(n, ren[i]) for n, i in a0.concept_assertions},
        roles={(r, ren[x], ren[y]) for r, x, y in a0.role_assertions},
        declared={ren[i] for i in a0.declared},
    )
    return a0.union(copy)


@dataclass(frozen=True)
class CorpusCase:
    tbox: TBox
    abox: ABox  # random data, for the six learner runs and PAC
    covering: ABox  # holds the TBox signature, for updates and batch
    pool: tuple  # PAC example queries over ``abox``


def corpus_case(seed, k: int) -> CorpusCase:
    t = corpus_tbox(rng_for("corpus-tbox", seed, k))
    a0 = corpus_abox(rng_for("corpus-abox", seed, k), t)
    cover = covering_abox(rng_for("corpus-cover", seed, k), t)
    pool = query_pool(rng_for("corpus-pool", seed, k), t, a0)
    return CorpusCase(t, a0, cover, tuple(pool))


# ---------------------------------------------------------------------------
# Reason stream: growing r-trees under a fixed TBox
# ---------------------------------------------------------------------------

# `some r. A [= A` carries A from any node up to all its r-ancestors, B
# nodes own an anonymous s-chain C -> D whose first element also gets H,
# r-edges are t-edges, and K marks the parents of B nodes.
STREAM_TBOX = """\
CI: some r. A [= A
CI: B [= some s. (C and some s. D)
CI: some s. D [= H
CI: some t. B [= K
RI: r [= t
"""

MISSING = "ghost"


@dataclass(frozen=True)
class StreamTree:
    parent: tuple  # parent[i] is node i's r-predecessor, -1 for the root
    labels: tuple  # labels[i] is node i's set of asserted concept names

    def name(self, i: int) -> str:
        return f"v{i}"


def stream_tree(seed, n: int, chain_bias: float = 0.8) -> StreamTree:
    """Node i hangs under i-1 with probability ``chain_bias``, else anywhere.

    The tree of size n is a prefix of the tree of any larger size from the
    same seed, so successive snapshots extend each other.
    """
    rng = rng_for("stream-tree", seed)
    parent, labels = [-1], []
    for i in range(n):
        if i > 0:
            parent.append(i - 1 if rng.random() < chain_bias else rng.randrange(i))
        lab = set()
        if rng.random() < 0.02:
            lab.add("A")
        if rng.random() < 0.12:
            lab.add("B")
        if rng.random() < 0.03:
            lab.add("D")
        labels.append(frozenset(lab))
    return StreamTree(tuple(parent), tuple(labels))


def prefix(tree: StreamTree, n: int) -> StreamTree:
    return StreamTree(tree.parent[:n], tree.labels[:n])


def stream_abox_text(tree: StreamTree) -> str:
    lines = []
    for i, lab in enumerate(tree.labels):
        lines += [f"A: {name}({tree.name(i)})" for name in sorted(lab)]
        if tree.parent[i] >= 0:
            lines.append(f"A: r({tree.name(tree.parent[i])},{tree.name(i)})")
    return "\n".join(lines) + "\n"


def stream_abox(tree: StreamTree) -> ABox:
    return abox(
        concepts={(name, tree.name(i)) for i, lab in enumerate(tree.labels) for name in lab},
        roles={("r", tree.name(p), tree.name(i)) for i, p in enumerate(tree.parent) if p >= 0},
        declared={tree.name(i) for i in range(len(tree.labels))},
    )


class StreamFacts:
    """The consequences of ``STREAM_TBOX`` over one tree, in closed form."""

    def __init__(self, tree: StreamTree):
        n = len(tree.labels)
        self.tree = tree
        self.children = [[] for _ in range(n)]
        for i, p in enumerate(tree.parent):
            if p >= 0:
                self.children[p].append(i)
        self.has_a = [("A" in lab) for lab in tree.labels]
        # a child always has a larger index than its parent
        for i in range(n - 1, 0, -1):
            if self.has_a[i]:
                self.has_a[tree.parent[i]] = True
        self.has_b = [("B" in lab) for lab in tree.labels]
        self.has_k = [any(self.has_b[c] for c in self.children[i]) for i in range(n)]

    def index(self, ind: str) -> int | None:
        if not ind.startswith("v"):
            return None
        i = int(ind[1:])
        return i if i < len(self.tree.labels) else None

    def any_d(self) -> bool:
        return any(self.has_b) or any("D" in lab for lab in self.tree.labels)


# Query kinds: (text template, verdict over (facts, x, y)).  ``x`` is a node
# index or None for the missing individual; ``y`` a second node for role
# queries.  CQ atoms are listed in the order ``elh reason`` echoes them.
def _child_with(f: StreamFacts, x, pred) -> bool:
    return x is not None and any(pred(c) for c in f.children[x])


STREAM_QUERIES = {
    "aq-A": ("AQ A({x})", lambda f, x, y: x is not None and f.has_a[x]),
    "aq-B": ("AQ B({x})", lambda f, x, y: x is not None and f.has_b[x]),
    "aq-K": ("AQ K({x})", lambda f, x, y: x is not None and f.has_k[x]),
    "iq-sCH": ("IQ {x} : some s. (C and H)", lambda f, x, y: x is not None and f.has_b[x]),
    "iq-ssD": ("IQ {x} : some s. some s. D", lambda f, x, y: x is not None and f.has_b[x]),
    "iq-tA": ("IQ {x} : some t. A", lambda f, x, y: _child_with(f, x, lambda c: f.has_a[c])),
    "iq-rAK": (
        "IQ {x} : some r. (A and K)",
        lambda f, x, y: _child_with(f, x, lambda c: f.has_a[c] and f.has_k[c]),
    ),
    "role-t": ("IQ t({x},{y})", lambda f, x, y: x is not None and f.tree.parent[y] == x),
    "aq-r": ("AQ r({x},{y})", lambda f, x, y: x is not None and f.tree.parent[y] == x),
    "cq-rAsC": (
        "CQ {x} ; exists y, z ; A(y), C(z), r({x},y), s(y,z)",
        lambda f, x, y: _child_with(f, x, lambda c: f.has_a[c] and f.has_b[c]),
    ),
    "cq-rtK": (
        "CQ {x} ; exists y ; K(y), r({x},y), t({x},y)",
        lambda f, x, y: _child_with(f, x, lambda c: f.has_k[c]),
    ),
    "bcq-D": ("CQ ; exists w ; D(w)", lambda f, x, y: f.any_d()),
    "bcq-E": ("CQ ; exists w ; E(w)", lambda f, x, y: False),
}


@dataclass(frozen=True)
class StreamQuery:
    kind: str
    x: str
    y: str

    def text(self) -> str:
        return "Q: " + STREAM_QUERIES[self.kind][0].format(x=self.x, y=self.y)


def stream_queries(seed, tree: StreamTree) -> list[StreamQuery]:
    """Queries over nodes of ``tree`` plus two on an individual it lacks."""
    rng = rng_for("stream-queries", seed)
    n = len(tree.labels)
    out = []
    for kind in sorted(STREAM_QUERIES):
        if kind.startswith("bcq"):
            out.append(StreamQuery(kind, "", ""))
            continue
        for _ in range(QUERIES_PER_KIND):
            if kind in ("role-t", "aq-r"):
                y = rng.randrange(1, n)
                # half the role queries ask about a real edge
                x = tree.parent[y] if rng.random() < 0.5 else rng.randrange(n)
                out.append(StreamQuery(kind, tree.name(x), tree.name(y)))
            else:
                out.append(StreamQuery(kind, tree.name(rng.randrange(n)), ""))
    out.append(StreamQuery("aq-A", MISSING, ""))
    out.append(StreamQuery("iq-tA", MISSING, ""))
    return out


def expected_verdict(f: StreamFacts, q: StreamQuery) -> bool:
    y = f.index(q.y) if q.y else None
    return STREAM_QUERIES[q.kind][1](f, f.index(q.x) if q.x else None, y)
