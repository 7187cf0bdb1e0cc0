"""The package's trees as they were before ``syntax.Tree`` replaced them.

Four encodings of the same trees, each with its own converters, kept
verbatim apart from the imports and the section comments:

* ``ConceptTree`` with ``tree_of_concept`` and ``concept_of_tree``, and on
  top of them ``abox_of_concept``, ``concept_query_as_cq``,
  ``tree_concept`` (a tree-shaped ABox read as a concept) and
  ``duplicate_variables`` (the ``adversarial-cq`` inflation);
* ``variable_subquery_concept``, which read a CQ below a variable as a
  concept;
* ``BundleTree``, the separating witness with role-set edges;
* ``_Node``, the mutable tree of the four reductions of ``learn_iq``, and
  those reductions (``concept_saturate``, ``role_saturate``,
  ``sibling_merge``, ``decompose_right``), which edited a node in place and
  restored it when the oracle rejected the candidate.

``tests/test_tree.py`` compares ``syntax.Tree``'s constructors and emitters
with the converters, and the learners with the old reductions swapped in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from elhlearn.learn_aq import CachedOracle
from elhlearn.learn_iq import RoleClasses, _positive
from elhlearn.syntax import (
    ABox,
    And,
    Atom,
    Concept,
    ConceptAtom,
    ConceptQuery,
    ConjunctiveQuery,
    Exists,
    QueryAtom,
    RoleAtom,
    StructuralError,
    TBox,
    Term,
    Top,
    Var,
    conj,
    normalize,
)


# --- elhlearn.syntax


@dataclass(frozen=True)
class ConceptTree:
    """Rooted labelled tree encoding of a concept.

    Nodes are ``0 .. len(labels)-1`` with the root at index ``root``;
    ``edges`` are ``(parent, child, role)`` triples.
    """

    labels: tuple[frozenset[str], ...]
    edges: tuple[tuple[int, int, str], ...]
    root: int = 0

    def node_count(self) -> int:
        return len(self.labels)

    def children(self, node: int) -> list[tuple[int, str]]:
        return [(c, r) for p, c, r in self.edges if p == node]


def tree_of_concept(concept: Concept) -> ConceptTree:
    """Inductive tree encoding; duplicate conjuncts keep separate subtrees."""
    labels: list[set[str]] = []
    edges: list[tuple[int, int, str]] = []

    def build(c: Concept) -> int:
        node = len(labels)
        labels.append(set())
        _fill(c, node)
        return node

    def _fill(c: Concept, node: int) -> None:
        if isinstance(c, Top):
            return
        if isinstance(c, Atom):
            labels[node].add(c.name)
            return
        if isinstance(c, Exists):
            child = build(c.filler)
            edges.append((node, child, c.role))
            return
        if isinstance(c, And):
            for a in c.args:
                _fill(a, node)
            return
        raise TypeError(f"not a concept: {c!r}")

    root = build(concept)
    return ConceptTree(tuple(frozenset(s) for s in labels), tuple(edges), root)


def concept_of_tree(tree: ConceptTree) -> Concept:
    """Decode a tree back into a normalized concept.

    Raises StructuralError for cyclic, multi-rooted or disconnected input.
    """
    n = tree.node_count()
    indeg = [0] * n
    for p, c, _ in tree.edges:
        if not (0 <= p < n and 0 <= c < n):
            raise StructuralError("edge endpoint out of range")
        indeg[c] += 1
    roots = [v for v in range(n) if indeg[v] == 0]
    if indeg[tree.root] != 0 or len(roots) != 1:
        raise StructuralError("tree must have exactly one root")
    if any(d > 1 for d in indeg):
        raise StructuralError("node with two parents")

    seen: set[int] = set()

    def decode(node: int) -> Concept:
        if node in seen:
            raise StructuralError("cycle in tree")
        seen.add(node)
        parts: list[Concept] = [Atom(a) for a in sorted(tree.labels[node])]
        for child, role in tree.children(node):
            parts.append(Exists(role, decode(child)))
        return conj(*parts)

    concept = decode(tree.root)
    if len(seen) != n:
        raise StructuralError("disconnected tree")
    return normalize(concept)


def abox_of_concept(concept: Concept) -> tuple[ABox, str]:
    """Tree-shaped ABox encoding with fresh individuals ``x0, x1, ...``, plus its root.

    A bare ``top`` yields an assertion-free ABox whose root is only declared.
    """
    tree = tree_of_concept(concept)
    names = {v: f"x{v}" for v in range(tree.node_count())}
    cas = {(a, names[v]) for v in range(tree.node_count()) for a in tree.labels[v]}
    ras = {(r, names[p], names[c]) for p, c, r in tree.edges}
    root = names[tree.root]
    return ABox(frozenset(cas), frozenset(ras), frozenset({root})), root


def concept_query_as_cq(q: ConceptQuery) -> ConjunctiveQuery:
    """Unfold a tree-shaped instance query into atoms over fresh variables."""
    tree = tree_of_concept(q.concept)
    term_of: dict[int, Term] = {tree.root: q.ind}
    variables: list[Var] = []
    for v in range(tree.node_count()):
        if v != tree.root:
            var = Var(f"x{len(variables)}")
            variables.append(var)
            term_of[v] = var
    atoms: set[QueryAtom] = set()
    for v in range(tree.node_count()):
        for a in tree.labels[v]:
            atoms.add(ConceptAtom(a, term_of[v]))
        for child, role in tree.children(v):
            atoms.add(RoleAtom(role, term_of[v], term_of[child]))
    return ConjunctiveQuery((q.ind,), frozenset(variables), frozenset(atoms))


# --- elhlearn.learn_aq


def tree_concept(a: ABox, root: str) -> Concept:
    """Read a tree-shaped ABox off as the concept rooted at ``root``."""
    inds = sorted(a.individuals())
    index = {ind: i for i, ind in enumerate(inds)}
    labels = []
    for ind in inds:
        labels.append(frozenset(n for n, i in a.concept_assertions if i == ind))
    edges = tuple((index[x], index[y], r) for r, x, y in sorted(a.role_assertions))
    tree = ConceptTree(tuple(labels), edges, index[root])
    return concept_of_tree(tree)


# --- elhlearn.learn_cqr


def variable_subquery_concept(q: ConjunctiveQuery, x: Var) -> Concept:
    """Concept read off the tree below ``x``; fails if it is not a tree."""
    succ: dict[Var, list[tuple[str, Var]]] = {}
    for atom in q.atoms:
        if isinstance(atom, RoleAtom) and isinstance(atom.subj, Var):
            if isinstance(atom.obj, Var):
                succ.setdefault(atom.subj, []).append((atom.role, atom.obj))
            else:
                raise StructuralError("variable with an individual successor")
    labels: dict[Var, set[str]] = {}
    for atom in q.atoms:
        if isinstance(atom, ConceptAtom) and isinstance(atom.term, Var):
            labels.setdefault(atom.term, set()).add(atom.name)

    on_path: set[Var] = set()

    def build(v: Var) -> Concept:
        if v in on_path:
            raise StructuralError("variable subquery has a cycle")
        on_path.add(v)
        parts: list[Concept] = [Atom(n) for n in sorted(labels.get(v, ()))]
        for role, w in sorted(succ.get(v, ()), key=lambda p: (p[0], p[1].name)):
            parts.append(Exists(role, build(w)))
        on_path.discard(v)
        return conj(*parts)

    return normalize(build(x))


# --- elhlearn.reasoner


@dataclass(frozen=True)
class BundleTree:
    """Tree query with role-set labelled edges; singleton sets give a concept."""

    labels: frozenset[str]
    children: tuple[tuple[frozenset[str], "BundleTree"], ...] = ()

    def as_concept(self) -> Concept | None:
        parts: list[Concept] = [Atom(a) for a in sorted(self.labels)]
        for roles, sub in self.children:
            if len(roles) != 1:
                return None
            inner = sub.as_concept()
            if inner is None:
                return None
            (role,) = roles
            parts.append(Exists(role, inner))
        return normalize(conj(*parts))

    def as_cq(self, ind: str) -> ConjunctiveQuery:
        counter = itertools.count()
        atoms: set[QueryAtom] = set()
        variables: set[Var] = set()

        def emit(node: "BundleTree", term: Term) -> None:
            for a in sorted(node.labels):
                atoms.add(ConceptAtom(a, term))
            for roles, sub in node.children:
                v = Var(f"x{next(counter)}")
                variables.add(v)
                for r in sorted(roles):
                    atoms.add(RoleAtom(r, term, v))
                emit(sub, v)

        emit(self, ind)
        return ConjunctiveQuery((ind,), frozenset(variables), frozenset(atoms))


# --- elhlearn.teacher


def duplicate_variables(q: ConceptQuery) -> ConjunctiveQuery:
    """Inflate a tree-shaped instance query into a merged rooted CQ.

    A node at depth d is copied d+1 times and copy j of a parent points at
    copies j and j+1 of each child, so the result collapses back onto the
    original chain and stays equivalent to it.
    """
    tree = tree_of_concept(q.concept)
    depth: dict[int, int] = {tree.root: 0}
    order = [tree.root]
    i = 0
    while i < len(order):
        node = order[i]
        i += 1
        for child, _ in tree.children(node):
            depth[child] = depth[node] + 1
            order.append(child)

    copies: dict[int, list] = {tree.root: [q.ind]}
    variables: list[Var] = []
    counter = [0]

    def var() -> Var:
        counter[0] += 1
        v = Var(f"x{counter[0]}")
        variables.append(v)
        return v

    atoms: set[QueryAtom] = set()
    for node in order:
        if node != tree.root:
            copies[node] = [var() for _ in range(depth[node] + 1)]
        for a in tree.labels[node]:
            for c in copies[node]:
                atoms.add(ConceptAtom(a, c))
    for parent, child, role in tree.edges:
        for j, pc in enumerate(copies[parent]):
            atoms.add(RoleAtom(role, pc, copies[child][j]))
            atoms.add(RoleAtom(role, pc, copies[child][j + 1]))
    return ConjunctiveQuery((q.ind,), frozenset(variables), frozenset(atoms))


# --- elhlearn.learn_iq


class _Node:
    __slots__ = ("label", "children")

    def __init__(self, label: set[str] | None = None, children: list | None = None):
        self.label: set[str] = set(label or ())
        self.children: list[tuple[str, _Node]] = list(children or ())

    @staticmethod
    def of(c: Concept) -> "_Node":
        node = _Node()
        node._add(c)
        return node

    def _add(self, c: Concept) -> None:
        if isinstance(c, Top):
            return
        if isinstance(c, Atom):
            self.label.add(c.name)
        elif isinstance(c, Exists):
            self.children.append((c.role, _Node.of(c.filler)))
        elif isinstance(c, And):
            for a in c.args:
                self._add(a)
        else:
            raise TypeError(f"not a concept: {c!r}")

    def concept(self) -> Concept:
        parts: list[Concept] = [Atom(a) for a in sorted(self.label)]
        parts += [Exists(r, ch.concept()) for r, ch in self.children]
        return normalize(conj(*parts))

    def nodes(self) -> list["_Node"]:
        out = [self]
        for _, ch in self.children:
            out.extend(ch.nodes())
        return out


def tree_node_count(c: Concept) -> int:
    return tree_of_concept(c).node_count()


def concept_saturate(oracle: CachedOracle, lhs: str, c: Concept) -> Concept:
    """Largest label extension that keeps ``lhs [= c`` target-entailed."""
    sig = oracle.framework.signature
    root = _Node.of(c)
    for node in root.nodes():
        for name in sorted(sig.concept_names):
            if name in node.label:
                continue
            node.label.add(name)
            if not _positive(oracle, lhs, root.concept()):
                node.label.discard(name)
    return root.concept()


def role_saturate(oracle: CachedOracle, classes: RoleClasses, lhs: str, c: Concept) -> Concept:
    root = _Node.of(c)

    def visit(node: _Node) -> None:
        for i, (role, child) in enumerate(node.children):
            current = role
            changed = True
            while changed:
                changed = False
                for cand in classes.strict_subroles(current):
                    node.children[i] = (cand, child)
                    if _positive(oracle, lhs, root.concept()):
                        current = cand
                        changed = True
                        break
                    node.children[i] = (current, child)
            visit(child)

    visit(root)
    return root.concept()


def sibling_merge(oracle: CachedOracle, lhs: str, c: Concept) -> Concept:
    root = _Node.of(c)
    merged = True
    while merged:
        merged = False
        for node in root.nodes():
            pairs = [
                (i, j)
                for i in range(len(node.children))
                for j in range(i + 1, len(node.children))
                if node.children[i][0] == node.children[j][0]
            ]
            for i, j in pairs:
                role, ci_node = node.children[i]
                _, cj_node = node.children[j]
                combined = _Node(
                    ci_node.label | cj_node.label, ci_node.children + cj_node.children
                )
                saved = list(node.children)
                node.children[i] = (role, combined)
                del node.children[j]
                if _positive(oracle, lhs, root.concept()):
                    merged = True
                    break
                node.children[:] = saved
            if merged:
                break
    return root.concept()


def decompose_right(
    oracle: CachedOracle,
    h: TBox,
    equivalent_names,
    lhs: str,
    c: Concept,
) -> tuple[str, Concept] | None:
    """One decomposition step, or None when none applies."""
    root = _Node.of(c)

    def scan(node: _Node, at_root: bool):
        for name in sorted(node.label):
            for role, child in node.children:
                if at_root and equivalent_names(name, lhs):
                    continue
                sub = Exists(role, child.concept())
                if not _positive(oracle, name, sub):
                    continue
                if not oracle.holds_locally(
                    h,
                    ABox(frozenset({(name, "e0")}), frozenset(), frozenset()),
                    ConceptQuery(sub, "e0"),
                ):
                    return ("split", name, sub, child)
                return ("drop", name, sub, child)
        for _, child in node.children:
            hit = scan(child, False)
            if hit:
                return hit
        return None

    hit = scan(root, True)
    if hit is None:
        return None
    kind, name, sub, child = hit

    if kind == "split":
        return name, normalize(sub)

    def drop(node: _Node) -> bool:
        for i, (_, ch) in enumerate(node.children):
            if ch is child:
                del node.children[i]
                return True
            if drop(ch):
                return True
        return False

    drop(root)
    return lhs, root.concept()


