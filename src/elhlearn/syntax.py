"""Core ELH syntax: concepts, inclusions, ABoxes, queries, trees and sizes.

Concepts are built from ``top``, concept names, flattened conjunctions and
existential restrictions.  A TBox holds concept inclusions (CIs) and role
inclusions (RIs); an ABox holds concept and role assertions over named
individuals (individuals may also be declared without assertions, which is
what the encoding of a bare ``top`` concept produces).

``Tree`` is the one tree value: names at each node, a set of roles on each
edge.  It is read from a concept, from a tree-shaped ABox below a root and
from a CQ below a variable, and written out as a concept, as an ABox over
``x0, x1, ...`` (root ``x0``) and as a CQ over ``x0, x1, ...`` below an
individual, both named in preorder.

Everything here is an immutable value.  ``normalize`` flattens, deduplicates
and sorts conjunctions; the canonical serialization of a normalized concept
fixes the symbol counts reported by ``size_of``:

* names (concept, role, individual) count 1,
* ``top``, the conjunction symbol, the subsumption symbol, the existential
  quantifier, the filler dot, parentheses and commas count 1 each,
* an existential whose filler is a conjunction is written with parentheses
  in place of the dot, e.g. ``Er(AnB)`` has size 7 while ``A[=Er.B`` has
  size 6.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Union


class ElhError(Exception):
    """Base class for all library errors."""


class StructuralError(ElhError):
    """Malformed structural input (bad tree, bad cycle, bad batch item)."""


class TerminologyError(ElhError):
    """TBox violates the terminology restrictions."""


class UnsupportedQueryError(ElhError):
    """Query shape outside the supported languages."""


class BudgetExceededError(ElhError):
    """A monitored step or query budget was exhausted.

    ``partial`` carries whatever hypothesis the aborted run had built.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ContractViolationError(ElhError):
    """A documented precondition did not hold."""


class ConfigurationError(ElhError):
    """Invalid run configuration (framework, distribution, arguments)."""


class RejectedQueryError(ElhError):
    """Oracle refused a query outside the allowed signature."""


# the one pattern of concept, role and individual names
NAME = "[A-Za-z][A-Za-z0-9_]*"
NAME_RE = re.compile(f"^{NAME}$")

# The parsers, the reasoner and the trees read from ABoxes recurse once per
# level of a concept, and the reasoner once per variable of a CQ; past this
# many the input is rejected instead of exhausting the stack.
MAX_NESTING = 200


# ---------------------------------------------------------------------------
# Concepts
# ---------------------------------------------------------------------------


class Concept:
    """Marker base class; concrete concepts are Top, Atom, Exists, And."""

    __slots__ = ()


@dataclass(frozen=True, repr=False)
class Top(Concept):
    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


TOP = Top()


@dataclass(frozen=True, repr=False)
class Atom(Concept):
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name})"


@dataclass(frozen=True, repr=False)
class Exists(Concept):
    role: str
    filler: Concept

    def __repr__(self) -> str:
        return f"Exists({self.role}, {self.filler!r})"


@dataclass(frozen=True, repr=False)
class And(Concept):
    """Flattened conjunction with at least two arguments.

    Construction flattens nested conjunctions but preserves written order
    and duplicates; ``normalize`` produces the canonical ordered,
    duplicate-free form.
    """

    args: tuple[Concept, ...]

    def __post_init__(self) -> None:
        if len(self.args) < 2:
            raise StructuralError("And needs at least two arguments")
        if any(isinstance(x, And) for x in self.args):
            raise StructuralError("And arguments must be flattened")

    def __repr__(self) -> str:
        return "And(%s)" % ", ".join(repr(a) for a in self.args)


def conj(*parts: Concept) -> Concept:
    """Conjunction of ``parts``, flattened, without normalization."""
    flat: list[Concept] = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.args)
        else:
            flat.append(p)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def canonical(concept: Concept) -> str:
    """Canonical serialization; one character per counted symbol plus names."""
    if isinstance(concept, Top):
        return "⊤"
    if isinstance(concept, Atom):
        return concept.name
    if isinstance(concept, Exists):
        inner = canonical(concept.filler)
        if isinstance(concept.filler, And):
            return f"∃{concept.role}({inner})"
        return f"∃{concept.role}.{inner}"
    if isinstance(concept, And):
        return "⊓".join(canonical(a) for a in concept.args)
    raise TypeError(f"not a concept: {concept!r}")


def normalize(concept: Concept) -> Concept:
    """Flatten, drop redundant top, deduplicate and sort conjuncts."""
    if isinstance(concept, (Top, Atom)):
        return concept
    if isinstance(concept, Exists):
        return Exists(concept.role, normalize(concept.filler))
    if isinstance(concept, And):
        parts: list[Concept] = []
        for a in concept.args:
            n = normalize(a)
            if isinstance(n, Top):
                continue
            parts.append(n)
        seen: dict[str, Concept] = {}
        for p in parts:
            seen.setdefault(canonical(p), p)
        ordered = [seen[k] for k in sorted(seen)]
        return conj(*ordered)
    raise TypeError(f"not a concept: {concept!r}")


def top_atoms(concept: Concept) -> frozenset[str]:
    """Concept names occurring as top-level conjuncts."""
    if isinstance(concept, Atom):
        return frozenset({concept.name})
    if isinstance(concept, And):
        return frozenset(a.name for a in concept.args if isinstance(a, Atom))
    return frozenset()


def top_existentials(concept: Concept) -> tuple[Exists, ...]:
    """Existential restrictions occurring as top-level conjuncts."""
    if isinstance(concept, Exists):
        return (concept,)
    if isinstance(concept, And):
        return tuple(a for a in concept.args if isinstance(a, Exists))
    return ()


def subconcepts(concept: Concept) -> Iterable[Concept]:
    yield concept
    if isinstance(concept, Exists):
        yield from subconcepts(concept.filler)
    elif isinstance(concept, And):
        for a in concept.args:
            yield from subconcepts(a)


def concept_depth(concept: Concept) -> int:
    if isinstance(concept, Exists):
        return 1 + concept_depth(concept.filler)
    if isinstance(concept, And):
        return max(concept_depth(a) for a in concept.args)
    return 0


# ---------------------------------------------------------------------------
# ABoxes, inclusions, TBoxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ABox:
    """Assertions ``(name, ind)`` and ``(role, x, y)``, and declared individuals.

    ``declared`` is normalised to a frozenset that holds only individuals no
    assertion mentions, so two ABoxes with the same assertions and the same
    individuals are equal.  An empty ``declared`` of any type becomes
    ``frozenset()`` without a look at the assertions.
    """

    concept_assertions: frozenset[tuple[str, str]] = frozenset()
    role_assertions: frozenset[tuple[str, str, str]] = frozenset()
    declared: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.declared:
            object.__setattr__(self, "declared", frozenset())
            return
        mentioned = {a for _, a in self.concept_assertions}
        for _, x, y in self.role_assertions:
            mentioned.update((x, y))
        object.__setattr__(self, "declared", frozenset(self.declared) - mentioned)

    def individuals(self) -> frozenset[str]:
        inds = set(self.declared)
        for _, a in self.concept_assertions:
            inds.add(a)
        for _, a, b in self.role_assertions:
            inds.add(a)
            inds.add(b)
        return frozenset(inds)

    def union(self, other: "ABox") -> "ABox":
        return ABox(
            self.concept_assertions | other.concept_assertions,
            self.role_assertions | other.role_assertions,
            self.declared | other.declared,
        )

    def without_individual(self, ind: str) -> "ABox":
        return ABox(
            frozenset(x for x in self.concept_assertions if x[1] != ind),
            frozenset(x for x in self.role_assertions if ind not in (x[1], x[2])),
            self.declared - {ind},
        )

    def without_role_assertion(self, ra: tuple[str, str, str]) -> "ABox":
        return ABox(
            self.concept_assertions,
            self.role_assertions - {ra},
            # keep endpoints alive so the query individual never vanishes
            self.declared | {ra[1], ra[2]},
        )


def abox(
    concepts: Iterable[tuple[str, str]] = (),
    roles: Iterable[tuple[str, str, str]] = (),
    declared: Iterable[str] = (),
) -> ABox:
    return ABox(frozenset(concepts), frozenset(roles), frozenset(declared))


@dataclass(frozen=True)
class CI:
    lhs: Concept
    rhs: Concept


@dataclass(frozen=True)
class RI:
    lhs: str
    rhs: str


@dataclass(frozen=True)
class TBox:
    cis: frozenset[CI] = frozenset()
    ris: frozenset[RI] = frozenset()


def is_terminology(t: TBox) -> bool:
    per_name: set[str] = set()
    for ci in t.cis:
        lhs_atomic = isinstance(ci.lhs, (Atom, Top))
        rhs_atomic = isinstance(ci.rhs, (Atom, Top))
        if not (lhs_atomic or rhs_atomic):
            return False
        if isinstance(ci.lhs, Atom) and not rhs_atomic:
            if ci.lhs.name in per_name:
                return False
            per_name.add(ci.lhs.name)
    return True


def terminology(cis: Iterable[CI], ris: Iterable[RI] = ()) -> TBox:
    """Build a terminology, merging inclusions with one name on the left.

    Two inclusions ``A [= C`` and ``A [= D``, one of them with a complex
    right side, combine into ``A [= C and D``.
    """
    simple: list[CI] = []
    by_name: dict[str, list[Concept]] = {}
    for ci in cis:
        lhs = normalize(ci.lhs)
        rhs = normalize(ci.rhs)
        if not isinstance(lhs, (Atom, Top)) and not isinstance(rhs, (Atom, Top)):
            raise TerminologyError(
                f"inclusion needs a concept name on one side: {canonical(lhs)} [= {canonical(rhs)}"
            )
        if isinstance(lhs, Atom):
            by_name.setdefault(lhs.name, []).append(rhs)
        else:
            simple.append(CI(lhs, rhs))
    merged: list[CI] = []
    for name in sorted(by_name):
        rhss = by_name[name]
        uniq: list[Concept] = []
        seen: set[str] = set()
        for r in rhss:
            k = canonical(r)
            if k not in seen:
                seen.add(k)
                uniq.append(r)
        complex_rhss = [r for r in uniq if not isinstance(r, (Atom, Top))]
        if len(complex_rhss) > 1 or (complex_rhss and len(uniq) > 1):
            merged.append(CI(Atom(name), normalize(conj(*uniq))))
        else:
            merged.extend(CI(Atom(name), r) for r in uniq)
    return TBox(frozenset(simple + merged), frozenset(ris))


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


Term = Union[str, Var]


@dataclass(frozen=True)
class ConceptAtom:
    name: str
    term: Term


@dataclass(frozen=True)
class RoleAtom:
    role: str
    subj: Term
    obj: Term


QueryAtom = Union[ConceptAtom, RoleAtom]


@dataclass(frozen=True)
class AtomicQuery:
    """Assertion-shaped query: ``pred`` over one individual or two."""

    pred: str
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.args) not in (1, 2):
            raise StructuralError("atomic query takes one or two individuals")


@dataclass(frozen=True)
class ConceptQuery:
    concept: Concept
    ind: str


@dataclass(frozen=True)
class RoleQuery:
    role: str
    subj: str
    obj: str


@dataclass(frozen=True)
class ConjunctiveQuery:
    answer_inds: tuple[str, ...] = ()
    exist_vars: frozenset[Var] = frozenset()
    atoms: frozenset[QueryAtom] = frozenset()

    def __post_init__(self) -> None:
        declared = set(self.exist_vars)
        for atom in self.atoms:
            for t in _atom_terms(atom):
                if isinstance(t, Var) and t not in declared:
                    raise StructuralError(f"undeclared variable {t.name}")

    def terms(self) -> set[Term]:
        out: set[Term] = set(self.answer_inds)
        for atom in self.atoms:
            out.update(_atom_terms(atom))
        return out

    def individuals(self) -> set[str]:
        return {t for t in self.terms() if isinstance(t, str)}


Query = Union[AtomicQuery, ConceptQuery, RoleQuery, ConjunctiveQuery]


def _atom_terms(atom: QueryAtom) -> tuple[Term, ...]:
    if isinstance(atom, ConceptAtom):
        return (atom.term,)
    return (atom.subj, atom.obj)


def is_rooted(q: ConjunctiveQuery) -> bool:
    """Every variable reachable from an individual along directed role atoms."""
    succ: dict[Term, set[Term]] = {}
    for atom in q.atoms:
        if isinstance(atom, RoleAtom):
            succ.setdefault(atom.subj, set()).add(atom.obj)
    frontier = list(q.individuals())
    reached: set[Term] = set(frontier)
    while frontier:
        t = frontier.pop()
        for u in succ.get(t, ()):
            if u not in reached:
                reached.add(u)
                frontier.append(u)
    return all(v in reached for v in q.exist_vars)


def is_existential_atom_query(q: ConjunctiveQuery) -> bool:
    """The one supported non-rooted shape: a single concept atom on one variable."""
    if q.answer_inds or len(q.exist_vars) != 1 or len(q.atoms) != 1:
        return False
    (atom,) = q.atoms
    return isinstance(atom, ConceptAtom) and isinstance(atom.term, Var)


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """A rooted tree with a set of names at each node and a set of roles on each edge.

    The one tree value of the package: concepts, tree-shaped ABoxes, the
    part of a CQ below a variable and the separating witnesses are all read
    into it and written out of it.  A tree whose every edge carries one role
    is a concept.  Children keep their order: the conjunct order of a
    concept, the sorted role assertions of an ABox, the role atoms of a CQ
    sorted by role and variable name.  Equal subtrees are equal values, so
    a node is named by its path of child positions, not by identity.
    """

    labels: frozenset[str]
    children: tuple[tuple[frozenset[str], Tree], ...] = ()

    @classmethod
    def of_concept(cls, c: Concept) -> Tree:
        """One node per existential; duplicate conjuncts keep separate subtrees."""
        labels: set[str] = set()
        children: list[tuple[frozenset[str], Tree]] = []
        for part in c.args if isinstance(c, And) else (c,):
            if isinstance(part, Atom):
                labels.add(part.name)
            elif isinstance(part, Exists):
                children.append((frozenset({part.role}), cls.of_concept(part.filler)))
            elif not isinstance(part, Top):
                raise TypeError(f"not a concept: {part!r}")
        return cls(frozenset(labels), tuple(children))

    @classmethod
    def of_abox(cls, a: ABox, root: str) -> Tree:
        """The tree-shaped ABox ``a`` below ``root``, one edge per role assertion.

        Raises StructuralError unless ``root`` is the only individual without
        a parent, no individual has two, every individual lies below ``root``,
        and no individual lies more than ``MAX_NESTING`` edges below it.  The
        checks walk the ABox without recursion, and the tree is built bottom
        up, so a deep ABox is rejected rather than exhausting the stack.
        """
        indegree = dict.fromkeys(a.individuals(), 0)
        below: dict[str, list[tuple[str, str]]] = {}
        for r, x, y in sorted(a.role_assertions):
            indegree[y] += 1
            below.setdefault(x, []).append((r, y))
        if indegree[root] or sum(d == 0 for d in indegree.values()) != 1:
            raise StructuralError("tree must have exactly one root")
        if max(indegree.values()) > 1:
            raise StructuralError("node with two parents")
        depth = {root: 0}
        order = [root]
        for x in order:
            for _, y in below.get(x, ()):
                depth[y] = depth[x] + 1
                if depth[y] > MAX_NESTING:
                    raise StructuralError(f"tree nested deeper than {MAX_NESTING} levels")
                order.append(y)
        if len(order) != len(indegree):
            raise StructuralError("disconnected tree")
        labels: dict[str, set[str]] = {}
        for name, x in a.concept_assertions:
            labels.setdefault(x, set()).add(name)
        node: dict[str, Tree] = {}
        for x in reversed(order):
            kids = tuple((frozenset({r}), node[y]) for r, y in below.get(x, ()))
            node[x] = cls(frozenset(labels.get(x, ())), kids)
        return node[root]

    @classmethod
    def of_cq(cls, q: ConjunctiveQuery, x: Var) -> Tree:
        """The part of ``q`` below ``x``, unfolded; one edge per role atom.

        Raises StructuralError for a cycle below ``x`` and for a role atom
        from a variable to an individual anywhere in ``q``.
        """
        below: dict[Var, list[tuple[str, Var]]] = {}
        labels: dict[Var, set[str]] = {}
        for atom in q.atoms:
            if isinstance(atom, RoleAtom) and isinstance(atom.subj, Var):
                if not isinstance(atom.obj, Var):
                    raise StructuralError("variable with an individual successor")
                below.setdefault(atom.subj, []).append((atom.role, atom.obj))
            elif isinstance(atom, ConceptAtom) and isinstance(atom.term, Var):
                labels.setdefault(atom.term, set()).add(atom.name)
        on_path: set[Var] = set()

        def build(v: Var) -> Tree:
            if v in on_path:
                raise StructuralError("variable subquery has a cycle")
            on_path.add(v)
            kids = sorted(below.get(v, ()), key=lambda p: (p[0], p[1].name))
            tree = cls(
                frozenset(labels.get(v, ())),
                tuple((frozenset({r}), build(w)) for r, w in kids),
            )
            on_path.discard(v)
            return tree

        return build(x)

    def concept(self) -> Concept | None:
        """The normalized concept; None when some edge carries several roles."""

        def build(node: Tree) -> Concept | None:
            parts: list[Concept] = [Atom(a) for a in node.labels]
            for roles, child in node.children:
                inner = build(child) if len(roles) == 1 else None
                if inner is None:
                    return None
                (role,) = roles
                parts.append(Exists(role, inner))
            return conj(*parts)

        c = build(self)
        return None if c is None else normalize(c)

    def abox(self) -> tuple[ABox, str]:
        """The tree as an ABox over ``x0, x1, ...`` in preorder, and its root ``x0``.

        The root is declared, so a bare ``top`` gives one individual.
        """
        count = itertools.count(1)
        labels, edges, _ = self._facts("x0", lambda: f"x{next(count)}")
        return ABox(frozenset(labels), frozenset(edges), frozenset({"x0"})), "x0"

    def cq(self, ind: str) -> ConjunctiveQuery:
        """The tree as a CQ rooted at ``ind``, over ``x0, x1, ...`` in preorder."""
        count = itertools.count()
        labels, edges, variables = self._facts(ind, lambda: Var(f"x{next(count)}"))
        atoms: set[QueryAtom] = {ConceptAtom(a, t) for a, t in labels}
        atoms |= {RoleAtom(r, s, o) for r, s, o in edges}
        return ConjunctiveQuery((ind,), frozenset(variables), frozenset(atoms))

    def _facts(self, root: Term, fresh) -> tuple[list, list, list]:
        """Labels, edges and the terms below the root: ``root``, then ``fresh()`` in preorder."""
        labels: list[tuple[str, Term]] = []
        edges: list[tuple[str, Term, Term]] = []
        terms: list[Term] = []

        def walk(node: Tree, term: Term) -> None:
            labels.extend((a, term) for a in node.labels)
            for roles, child in node.children:
                sub = fresh()
                terms.append(sub)
                edges.extend((r, term, sub) for r in roles)
                walk(child, sub)

        walk(self, root)
        return labels, edges, terms

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for _, child in self.children)

# ---------------------------------------------------------------------------
# Signatures and sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    concept_names: frozenset[str] = frozenset()
    role_names: frozenset[str] = frozenset()

    def union(self, other: "Signature") -> "Signature":
        return Signature(
            self.concept_names | other.concept_names,
            self.role_names | other.role_names,
        )

    def covers(self, other: "Signature") -> bool:
        return other.concept_names <= self.concept_names and other.role_names <= self.role_names


def signature_of_concept(c: Concept) -> Signature:
    cn: set[str] = set()
    rn: set[str] = set()
    for s in subconcepts(c):
        if isinstance(s, Atom):
            cn.add(s.name)
        elif isinstance(s, Exists):
            rn.add(s.role)
    return Signature(frozenset(cn), frozenset(rn))


@functools.lru_cache(maxsize=128)
def signature_of_tbox(t: TBox) -> Signature:
    sig = Signature()
    for ci in t.cis:
        sig = sig.union(signature_of_concept(ci.lhs)).union(signature_of_concept(ci.rhs))
    roles = {r for ri in t.ris for r in (ri.lhs, ri.rhs)}
    return sig.union(Signature(frozenset(), frozenset(roles)))


def signature_of_abox(a: ABox) -> Signature:
    return Signature(
        frozenset(n for n, _ in a.concept_assertions),
        frozenset(r for r, _, _ in a.role_assertions),
    )


def signature_of_query(q: Query) -> Signature:
    if isinstance(q, AtomicQuery):
        if len(q.args) == 1:
            return Signature(frozenset({q.pred}), frozenset())
        return Signature(frozenset(), frozenset({q.pred}))
    if isinstance(q, ConceptQuery):
        return signature_of_concept(q.concept)
    if isinstance(q, RoleQuery):
        return Signature(frozenset(), frozenset({q.role}))
    cn = {a.name for a in q.atoms if isinstance(a, ConceptAtom)}
    rn = {a.role for a in q.atoms if isinstance(a, RoleAtom)}
    return Signature(frozenset(cn), frozenset(rn))


def concept_size(c: Concept) -> int:
    if isinstance(c, (Top, Atom)):
        return 1
    if isinstance(c, Exists):
        inner = concept_size(c.filler)
        if isinstance(c.filler, And):
            return 4 + inner  # quantifier, role, two parentheses
        return 3 + inner  # quantifier, role, dot
    if isinstance(c, And):
        return sum(concept_size(a) for a in c.args) + len(c.args) - 1
    raise TypeError(f"not a concept: {c!r}")


def size_of(obj) -> int:
    """Symbol count of the canonical serialization (names count 1)."""
    if isinstance(obj, Concept):
        return concept_size(obj)
    if isinstance(obj, CI):
        return concept_size(obj.lhs) + 1 + concept_size(obj.rhs)
    if isinstance(obj, RI):
        return 3
    if isinstance(obj, TBox):
        return sum(size_of(ci) for ci in obj.cis) + sum(size_of(ri) for ri in obj.ris)
    if isinstance(obj, ABox):
        # ``declared`` holds only the individuals no assertion mentions
        return 4 * len(obj.concept_assertions) + 6 * len(obj.role_assertions) + len(obj.declared)
    if isinstance(obj, AtomicQuery):
        return 4 if len(obj.args) == 1 else 6
    if isinstance(obj, ConceptQuery):
        return concept_size(obj.concept) + 3
    if isinstance(obj, RoleQuery):
        return 6
    if isinstance(obj, ConjunctiveQuery):
        atoms = sorted(4 if isinstance(a, ConceptAtom) else 6 for a in obj.atoms)
        total = sum(atoms) + max(0, len(atoms) - 1)
        if obj.exist_vars:
            total += 1 + len(obj.exist_vars)
        return total
    raise TypeError(f"size_of not defined for {type(obj).__name__}")


def check_namespaces(tboxes: Iterable[TBox], aboxes: Iterable[ABox]) -> Signature:
    """The signature of the inputs, which share one vocabulary: no name is of two kinds.

    Each ABox is read in one walk, for its names and its individuals alike.
    """
    concepts: set[str] = set()
    roles: set[str] = set()
    inds: set[str] = set()
    for t in tboxes:
        sig = signature_of_tbox(t)
        concepts |= sig.concept_names
        roles |= sig.role_names
    for a in aboxes:
        inds |= a.declared
        for name, ind in a.concept_assertions:
            concepts.add(name)
            inds.add(ind)
        for role, x, y in a.role_assertions:
            roles.add(role)
            inds.add(x)
            inds.add(y)
    for clash in (concepts & roles, concepts & inds, roles & inds):
        if clash:
            raise StructuralError(f"name used in two namespaces: {sorted(clash)}")
    return Signature(frozenset(concepts), frozenset(roles))
