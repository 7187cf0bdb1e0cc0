"""Independent depth-bounded oracle for entailment checks.

Builds the least model the slow literal way: start from the ABox (role
assertions closed under role inclusions), then repeatedly pick an element
that satisfies the left side of an inclusion but not its right side and
graft a fresh copy of the right side's existential trees below it, up to a
depth cap.  No element types, no sharing; concept evaluation is a plain
recursive walk.  For inclusion left/right sides and queried concepts of
nesting depth at most d, a cap of 2d is exact.
"""

from __future__ import annotations

from elhlearn.syntax import (
    ABox,
    And,
    Atom,
    Concept,
    ConceptAtom,
    ConjunctiveQuery,
    Exists,
    TBox,
    Term,
    Top,
    normalize,
    top_atoms,
    top_existentials,
)
import reference_tree
from reference_roles import superroles


class BruteModel:
    def __init__(self) -> None:
        self.labels: list[set[str]] = []
        self.edges: list[list[tuple[str, int]]] = []
        self.depth: list[int] = []
        self.of_ind: dict[str, int] = {}

    def new_node(self, depth: int) -> int:
        self.labels.append(set())
        self.edges.append([])
        self.depth.append(depth)
        return len(self.labels) - 1

    def satisfies(self, node: int, c: Concept) -> bool:
        if isinstance(c, Top):
            return True
        if isinstance(c, Atom):
            return c.name in self.labels[node]
        if isinstance(c, And):
            return all(self.satisfies(node, p) for p in c.args)
        if isinstance(c, Exists):
            return any(
                r == c.role and self.satisfies(dst, c.filler)
                for r, dst in self.edges[node]
            )
        raise TypeError(c)


def brute_model(t: TBox, a: ABox, max_depth: int = 6) -> BruteModel:
    m = BruteModel()
    for ind in sorted(a.individuals()):
        m.of_ind[ind] = m.new_node(0)
    for name, ind in a.concept_assertions:
        m.labels[m.of_ind[ind]].add(name)
    for role, x, y in a.role_assertions:
        for r in superroles(t, role):
            edge = (r, m.of_ind[y])
            if edge not in m.edges[m.of_ind[x]]:
                m.edges[m.of_ind[x]].append(edge)

    def graft(node: int, c: Concept) -> None:
        for name in top_atoms(c):
            m.labels[node].add(name)
        if m.depth[node] >= max_depth:
            return
        for ex in top_existentials(c):
            child = m.new_node(m.depth[node] + 1)
            for r in superroles(t, ex.role):
                m.edges[node].append((r, child))
            graft(child, ex.filler)

    cis = sorted(t.cis, key=repr)
    fired: set[tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for node in range(len(m.labels)):
            for k, ci in enumerate(cis):
                if (node, k) in fired:
                    continue
                if m.satisfies(node, ci.lhs) and not m.satisfies(node, ci.rhs):
                    graft(node, ci.rhs)
                    fired.add((node, k))
                    changed = True
    return m


def brute_instance(t: TBox, a: ABox, concept: Concept, ind: str, max_depth: int = 6) -> bool:
    m = brute_model(t, a, max_depth)
    return m.satisfies(m.of_ind[ind], normalize(concept))


def brute_subsumes(t: TBox, c: Concept, d: Concept, max_depth: int = 6) -> bool:
    # the encoding as it was written before ``syntax.Tree``, kept apart from src
    a, root = reference_tree.abox_of_concept(normalize(c))
    return brute_instance(t, a, d, root, max_depth)


def _terms(atom) -> tuple:
    return (atom.term,) if isinstance(atom, ConceptAtom) else (atom.subj, atom.obj)


def brute_cq(t: TBox, a: ABox, q: ConjunctiveQuery, max_depth: int) -> bool:
    """Is there a homomorphism from ``q`` into the model grown to ``max_depth``?

    A match of a rooted query with n variables stays within n edges of the
    named part, so a cap of n plus twice the nesting depth of the TBox is
    exact.  Every variable ranges over every node.  A variable that shares
    an atom with a placed term is placed first, and each atom is checked as
    soon as its terms are placed.
    """
    m = brute_model(t, a, max_depth)
    if not q.individuals() <= m.of_ind.keys():
        return False
    image: dict[Term, int] = {ind: m.of_ind[ind] for ind in q.individuals()}
    order: list[Term] = list(image)
    while len(order) < len(image) + len(q.exist_vars):
        rest = sorted((v for v in q.exist_vars if v not in order), key=repr)
        near = [
            v for v in rest
            if any(v in _terms(at) and set(_terms(at)) & set(order) for at in q.atoms)
        ]
        order.append((near or rest)[0])

    def holds(atom) -> bool:
        if isinstance(atom, ConceptAtom):
            return atom.name in m.labels[image[atom.term]]
        return (atom.role, image[atom.obj]) in m.edges[image[atom.subj]]

    def ready(atom, k: int) -> bool:
        """Are the terms of ``atom`` placed once ``order[k]`` is?"""
        return all(order.index(t) <= k for t in _terms(atom))

    def search(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        due = [at for at in q.atoms if ready(at, k) and (k == 0 or not ready(at, k - 1))]
        for node in [image[v]] if isinstance(v, str) else range(len(m.labels)):
            image[v] = node
            if all(holds(at) for at in due) and search(k + 1):
                return True
        return False

    return search(0)


def abox_homomorphism(src: ABox, dst: ABox) -> dict[str, str] | None:
    """Assertion-preserving map between individual sets, or None.

    Backtracking over individuals in sorted order, candidates in sorted
    order, so the returned map is deterministic.
    """
    src_inds = sorted(src.individuals())
    dst_inds = sorted(dst.individuals())
    if src_inds and not dst_inds:
        return None
    concepts_of: dict[str, set[str]] = {i: set() for i in src_inds}
    for name, i in src.concept_assertions:
        concepts_of[i].add(name)
    mapping: dict[str, str] = {}

    def consistent(i: str, target: str) -> bool:
        for name in concepts_of[i]:
            if (name, target) not in dst.concept_assertions:
                return False
        for r, x, y in src.role_assertions:
            if x == i and y in mapping and (r, target, mapping[y]) not in dst.role_assertions:
                return False
            if y == i and x in mapping and (r, mapping[x], target) not in dst.role_assertions:
                return False
            if x == i and y == i and (r, target, target) not in dst.role_assertions:
                return False
        return True

    def search(k: int) -> bool:
        if k == len(src_inds):
            return True
        i = src_inds[k]
        for target in dst_inds:
            if consistent(i, target):
                mapping[i] = target
                if search(k + 1):
                    return True
                del mapping[i]
        return False

    return dict(mapping) if search(0) else None
