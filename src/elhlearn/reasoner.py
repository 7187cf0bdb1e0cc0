"""Entailment, canonical models, simulations and inseparability for ELH.

The least model of a knowledge base is generally infinite, but its anonymous
part realizes only finitely many element types: one per filler of an
existential occurring (at any depth) on the right-hand side of an inclusion
with a concept name on the left.  ``build_model`` computes this finite
presentation.  Named individuals keep their asserted structure, closed under
role inclusions; each anonymous type carries a saturated label and a list of
outgoing edges.  Every edge records the full set of roles it carries (the
closure of the role that introduced it), because conjunctive queries can
constrain several roles between the same pair of elements while instance
queries cannot.

Saturation works from a compiled form of the TBox (``_compile``, cached per
TBox): the inclusions with a name or ``top`` on the left, in sorted order,
with their right-hand names and edges (role closures applied, targets
resolved); the inclusions with a complex left side; the largest existential
depth of those left sides; and the initial label and edges of every
anonymous element.  ``C [= top`` with a complex ``C`` is dropped.  The
firing order is fixed: each step fires all rules, in order, at the smallest
element (in sorted order) that they still change.  This is what a rescan
from the first element after every change would do, and it fixes the order
of each element's edges.  A heap of candidate elements finds that element
without the rescan.  It holds every element that might still change: after
a change at an element, the element itself and every element at most
``depth`` edges before it, since a left side of depth d reads labels at
most d edges away, and name rules read only the element's own label.

``ModelCache`` keeps models by ``(kb_key(t), abox_key(a))``.  It computes
each key once per distinct ``TBox`` or ``ABox`` value and, when full, drops
the least recently used model.

Unravelling the presentation from the named individuals reproduces the least
model, so instance checking is plain recursive concept evaluation on the
finite graph, rooted conjunctive queries match into a depth-bounded
unravelling (a match moves at most one step away from the named part per
query term), and query inseparability reduces to label agreement plus mutual
(bundle) simulations anchored at each individual.

All simulations come from one refinement, ``_refine``: it removes pairs
from a relation between two graphs until the rest is a (bundle) simulation,
or with ``back`` a bisimulation, and records why each pair went.
``simulation``, ``bisimilar`` and ``is_simulation`` read the pairs kept;
``separating_witness`` turns the reasons of removed anchor pairs into the
distinguishing tree queries, and ``inseparability_gap`` asks it once per
direction between the two models.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Literal, Union

from .syntax import (
    ABox,
    And,
    Atom,
    AtomicQuery,
    Concept,
    ConceptAtom,
    ConceptQuery,
    ConjunctiveQuery,
    Exists,
    Query,
    QueryAtom,
    RoleAtom,
    RoleQuery,
    Signature,
    TBox,
    Term,
    Top,
    UnsupportedQueryError,
    Var,
    abox_of_concept,
    canonical,
    concept_depth,
    conj,
    is_existential_atom_query,
    is_rooted,
    is_terminology,
    normalize,
    signature_of_abox,
    signature_of_tbox,
    top_atoms,
    top_existentials,
)
from .syntax import ContractViolationError

# ---------------------------------------------------------------------------
# Role hierarchy
# ---------------------------------------------------------------------------


def superroles(t: TBox, role: str) -> frozenset[str]:
    """Reflexive-transitive closure of the role inclusions above ``role``."""
    out = {role}
    frontier = [role]
    while frontier:
        r = frontier.pop()
        for ri in t.ris:
            if ri.lhs == r and ri.rhs not in out:
                out.add(ri.rhs)
                frontier.append(ri.rhs)
    return frozenset(out)


def entails_ri(t: TBox, sub: str, sup: str) -> bool:
    return sup in superroles(t, sub)


# ---------------------------------------------------------------------------
# Interpretations (finite, explicit)
# ---------------------------------------------------------------------------


@dataclass
class Interpretation:
    """Explicit finite interpretation with an individual assignment."""

    domain: frozenset
    concept_ext: dict[str, frozenset]
    role_ext: dict[str, frozenset]
    ind_map: dict[str, object] = field(default_factory=dict)

    def elements(self) -> Iterable:
        return self.domain

    def label_of(self, el) -> frozenset[str]:
        return frozenset(a for a, ext in self.concept_ext.items() if el in ext)

    def successors(self, el) -> list[tuple[frozenset[str], object]]:
        per_target: dict[object, set[str]] = {}
        for r, ext in self.role_ext.items():
            for d, e in ext:
                if d == el:
                    per_target.setdefault(e, set()).add(r)
        return sorted(
            ((frozenset(rs), tgt) for tgt, rs in per_target.items()),
            key=lambda it: (sorted(it[0]), repr(it[1])),
        )


def abox_interpretation(a: ABox) -> Interpretation:
    concept_ext: dict[str, set] = {}
    for name, ind in a.concept_assertions:
        concept_ext.setdefault(name, set()).add(ind)
    role_ext: dict[str, set] = {}
    for role, x, y in a.role_assertions:
        role_ext.setdefault(role, set()).add((x, y))
    inds = a.individuals()
    return Interpretation(
        frozenset(inds),
        {k: frozenset(v) for k, v in concept_ext.items()},
        {k: frozenset(v) for k, v in role_ext.items()},
        {i: i for i in inds},
    )


# ---------------------------------------------------------------------------
# Regular presentation of the least model
# ---------------------------------------------------------------------------

NamedEl = tuple[Literal["n"], str]
AnonEl = tuple[Literal["a"], str]  # keyed by canonical filler serialization
Element = Union[NamedEl, AnonEl]
Edge = tuple[frozenset[str], Element]


@dataclass
class RegularModel:
    """Finite presentation of the least model of ``(tbox, abox)``.

    ``labels`` maps every element to its saturated set of concept names and
    ``edges`` lists outgoing ``(role set, target)`` bundles.  Anonymous
    elements stand for whole families of elements of the least model, one
    per path that reaches them from the named part.
    """

    tbox: TBox
    abox: ABox
    labels: dict[Element, frozenset[str]]
    edges: dict[Element, tuple[Edge, ...]]
    fillers: dict[str, Concept]

    def named(self, ind: str) -> NamedEl:
        return ("n", ind)

    def has_individual(self, ind: str) -> bool:
        return ("n", ind) in self.labels

    def elements(self) -> Iterable[Element]:
        return self.labels.keys()

    def label_of(self, el: Element) -> frozenset[str]:
        return self.labels[el]

    def successors(self, el: Element) -> tuple[Edge, ...]:
        return self.edges[el]

    def reachable(self) -> list[Element]:
        """Elements reachable from the named part, named part included."""
        frontier = [e for e in self.labels if e[0] == "n"]
        seen = set(frontier)
        while frontier:
            el = frontier.pop()
            for _, tgt in self.edges[el]:
                if tgt not in seen:
                    seen.add(tgt)
                    frontier.append(tgt)
        return sorted(seen)


def _existential_fillers(t: TBox) -> dict[str, Concept]:
    """Fillers of existentials nested in right-hand sides of name-lhs CIs."""
    out: dict[str, Concept] = {}

    def walk(c: Concept) -> None:
        if isinstance(c, Exists):
            key = canonical(c.filler)
            if key not in out:
                out[key] = c.filler
                walk(c.filler)
        elif isinstance(c, And):
            for a in c.args:
                walk(a)

    for ci in t.cis:
        if isinstance(ci.lhs, (Atom, Top)):
            walk(ci.rhs)
    return out


def _eval_concept(labels, edges, el, c: Concept) -> bool:
    """Does ``c`` hold at ``el``?

    ``labels[el]`` holds the names of ``el`` and ``edges[el]`` its
    ``(role set, target)`` edges: dicts keyed by element on a model, lists
    indexed by position during saturation.
    """
    if isinstance(c, Top):
        return True
    if isinstance(c, Atom):
        return c.name in labels[el]
    if isinstance(c, And):
        return all(_eval_concept(labels, edges, el, a) for a in c.args)
    if isinstance(c, Exists):
        for roles, tgt in edges[el]:
            if c.role in roles and _eval_concept(labels, edges, tgt, c.filler):
                return True
        return False
    raise TypeError(f"not a concept: {c!r}")


# An edge during saturation: its role set and the index of its target.
_IndexEdge = tuple[frozenset[str], int]


@dataclass(frozen=True)
class _Compiled:
    """What ``build_model`` needs from a TBox, computed once per TBox.

    Anonymous elements sort before named ones, so the index of an anonymous
    element in the saturation order is the rank of its key among the
    filler keys, whatever the ABox.
    """

    fillers: dict[str, Concept]
    anon_keys: tuple[str, ...]  # sorted
    # per filler, in ``fillers`` order: index, initial label, initial edges
    templates: tuple[tuple[int, frozenset[str], tuple[_IndexEdge, ...]], ...]
    # inclusions with a name (None for top) on the left, in firing order:
    # left name, right-hand names, right-hand edges
    name_rules: tuple[tuple[str | None, tuple[str, ...], tuple[_IndexEdge, ...]], ...]
    # inclusions with a complex left side, in firing order: right name, left side
    complex_rules: tuple[tuple[str, Concept], ...]
    depth: int  # largest existential depth of a complex left side
    closure: dict[str, frozenset[str]]  # superroles of every role of the TBox


def _rule_order(ci) -> tuple[str, str]:
    return canonical(ci.lhs), canonical(ci.rhs)


# bounded: the learners make a new hypothesis TBox at nearly every step
@functools.lru_cache(maxsize=128)
def _compile(t: TBox) -> _Compiled:
    if not is_terminology(t):
        raise ContractViolationError("model construction expects a terminology")
    closure = {r: superroles(t, r) for r in signature_of_tbox(t).role_names}
    fillers = _existential_fillers(t)
    anon_keys = tuple(sorted(fillers))
    index = {key: i for i, key in enumerate(anon_keys)}

    def rule_edges(c: Concept) -> tuple[_IndexEdge, ...]:
        return tuple(
            (closure[ex.role], index[canonical(ex.filler)]) for ex in top_existentials(c)
        )

    name_cis = sorted((ci for ci in t.cis if isinstance(ci.lhs, (Atom, Top))), key=_rule_order)
    # a complex left side has a name or top on the right; ``C [= top`` says
    # nothing and is dropped
    complex_cis = sorted(
        (ci for ci in t.cis if not isinstance(ci.lhs, (Atom, Top)) and isinstance(ci.rhs, Atom)),
        key=_rule_order,
    )
    return _Compiled(
        fillers,
        anon_keys,
        tuple((index[key], top_atoms(f), rule_edges(f)) for key, f in fillers.items()),
        tuple(
            (
                ci.lhs.name if isinstance(ci.lhs, Atom) else None,
                tuple(top_atoms(ci.rhs)),
                rule_edges(ci.rhs),
            )
            for ci in name_cis
        ),
        tuple((ci.rhs.name, ci.lhs) for ci in complex_cis),
        max((concept_depth(ci.lhs) for ci in complex_cis), default=0),
        closure,
    )


def build_model(t: TBox, a: ABox) -> RegularModel:
    """Saturate the regular presentation of the least model of ``(t, a)``."""
    comp = _compile(t)
    n_anon = len(comp.anon_keys)

    concepts_of: dict[str, set[str]] = {}
    for name, ind in a.concept_assertions:
        concepts_of.setdefault(ind, set()).add(name)
    pair_roles: dict[tuple[str, str], set[str]] = {}
    for role, x, y in a.role_assertions:
        # a role the TBox does not mention has no role above it
        roles = comp.closure.get(role) or frozenset((role,))
        pair_roles.setdefault((x, y), set()).update(roles)
    inds = set(a.declared)
    inds.update(concepts_of)
    for x, y in pair_roles:
        inds.add(x)
        inds.add(y)
    named = {ind: n_anon + k for k, ind in enumerate(sorted(inds))}
    keys: list[Element] = [("a", key) for key in comp.anon_keys]
    keys.extend(("n", ind) for ind in named)
    size = len(keys)

    # elements are indices into ``keys``, which is sorted; edges[i] lists
    # (role set, target index) pairs, and preds[j] lists every i with an
    # edge to j
    labels: list[set[str]] = [set() for _ in range(size)]
    edges: list[list[_IndexEdge]] = [[] for _ in range(size)]
    preds: list[list[int]] = [[] for _ in range(size)]

    def add_edge(i: int, edge: _IndexEdge) -> bool:
        if edge in edges[i]:
            return False
        edges[i].append(edge)
        preds[edge[1]].append(i)
        return True

    for i, atoms, rule_edges in comp.templates:
        labels[i] = set(atoms)
        for edge in rule_edges:
            add_edge(i, edge)
    for ind, i in named.items():
        if ind in concepts_of:
            labels[i] = concepts_of[ind]
    for (x, y), roles in sorted(pair_roles.items()):
        add_edge(named[x], (frozenset(roles), named[y]))

    name_rules = comp.name_rules
    complex_rules = comp.complex_rules

    def fire(i: int) -> bool:
        lab = labels[i]
        changed = False
        for lhs, atoms, rule_edges in name_rules:
            if lhs is not None and lhs not in lab:
                continue
            for name in atoms:
                if name not in lab:
                    lab.add(name)
                    changed = True
            for edge in rule_edges:
                changed |= add_edge(i, edge)
        for name, lhs in complex_rules:
            if name not in lab and _eval_concept(labels, edges, i, lhs):
                lab.add(name)
                changed = True
        return changed

    # The heap holds every element that a firing may still change, so its
    # smallest member that changes is the one the full rescan would fire.
    # A firing at i can unsaturate only i and the elements whose complex
    # left sides reach i: those at most ``depth`` edges before it.
    heap = list(range(size))
    queued = [True] * size
    while heap:
        i = heapq.heappop(heap)
        queued[i] = False
        if not fire(i):
            continue
        woken = {i}
        frontier = [i]
        for _ in range(comp.depth):
            frontier = [p for j in frontier for p in preds[j] if p not in woken]
            woken.update(frontier)
        for j in woken:
            if not queued[j]:
                queued[j] = True
                heapq.heappush(heap, j)

    order = [i for i, _, _ in comp.templates] + list(range(n_anon, size))
    return RegularModel(
        t,
        a,
        {keys[i]: frozenset(labels[i]) for i in order},
        {keys[i]: tuple((roles, keys[j]) for roles, j in edges[i]) for i in order},
        comp.fillers,
    )


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


def kb_key(t: TBox) -> tuple:
    return (
        tuple(sorted(f"{canonical(ci.lhs)}|{canonical(ci.rhs)}" for ci in t.cis)),
        tuple(sorted((ri.lhs, ri.rhs) for ri in t.ris)),
    )


def abox_key(a: ABox) -> tuple:
    # the assertions fix the mentioned individuals, and ``declared`` holds
    # exactly the others
    return (
        tuple(sorted(a.concept_assertions)),
        tuple(sorted(a.role_assertions)),
        tuple(sorted(a.declared)),
    )


# ---------------------------------------------------------------------------
# Entailment and query answering
# ---------------------------------------------------------------------------


def concept_holds(model: RegularModel, ind: str, c: Concept) -> bool:
    return _eval_concept(model.labels, model.edges, model.named(ind), c)


def entails_ci(t: TBox, c: Concept, d: Concept, cache: ModelCache | None = None) -> bool:
    """Subsumption via evaluation at the root of the encoding of ``c``."""
    a, root = abox_of_concept(normalize(c))
    model = cache.get(t, a) if cache else build_model(t, a)
    return concept_holds(model, root, d)


def role_assertion_holds(t: TBox, a: ABox, role: str, x: str, y: str) -> bool:
    return any(
        sx == x and sy == y and entails_ri(t, s, role) for s, sx, sy in a.role_assertions
    )


def _existential_atom_holds(model: RegularModel, name: str) -> bool:
    return any(name in model.labels[el] for el in model.reachable())


def _cq_bound(q: ConjunctiveQuery) -> int:
    return max(1, len(q.terms()))


def _cq_holds(model: RegularModel, q: ConjunctiveQuery) -> bool:
    """Backtracking match into the depth-bounded unravelling.

    Elements are either named individuals or anonymous paths anchored at a
    named individual; a rooted query only ever needs paths no longer than
    its number of terms.
    """
    bound = _cq_bound(q)

    for ind in q.individuals():
        if not model.has_individual(ind):
            return False

    # unravelled elements: ("n", a) or ("p", a, ((roles, type), ...)); the
    # edge bundle is part of the path so that distinct existentials with the
    # same filler stay distinct, as they are in the least model
    PathEl = tuple

    def label_of(el: PathEl) -> frozenset[str]:
        if el[0] == "n":
            return model.labels[("n", el[1])]
        return model.labels[("a", el[2][-1][1])]

    def successors(el: PathEl) -> list[tuple[frozenset[str], PathEl]]:
        out: list[tuple[frozenset[str], PathEl]] = []
        if el[0] == "n":
            for roles, tgt in model.edges[("n", el[1])]:
                if tgt[0] == "n":
                    out.append((roles, ("n", tgt[1])))
                else:
                    out.append((roles, ("p", el[1], ((roles, tgt[1]),))))
        else:
            path = el[2]
            if len(path) < bound:
                for roles, tgt in model.edges[("a", path[-1][1])]:
                    out.append((roles, ("p", el[1], path + ((roles, tgt[1]),))))
        return out

    # order variables so each one is introduced through an in-edge from an
    # already assigned term (rootedness guarantees such an order exists)
    role_atoms = [a for a in q.atoms if isinstance(a, RoleAtom)]
    concept_atoms = [a for a in q.atoms if isinstance(a, ConceptAtom)]
    assignment: dict[Term, PathEl] = {i: ("n", i) for i in q.individuals()}
    ordered_vars: list[Var] = []
    intro_atom: dict[Var, RoleAtom] = {}
    placed: set[Term] = set(assignment)
    pending = set(q.exist_vars)
    while pending:
        progressed = False
        for atom in role_atoms:
            if atom.subj in placed and isinstance(atom.obj, Var) and atom.obj in pending:
                ordered_vars.append(atom.obj)
                intro_atom[atom.obj] = atom
                placed.add(atom.obj)
                pending.remove(atom.obj)
                progressed = True
        if not progressed:
            raise UnsupportedQueryError("query is not rooted")

    def consistent(partial: dict[Term, PathEl]) -> bool:
        for atom in role_atoms:
            if atom.subj in partial and atom.obj in partial:
                ok = any(
                    atom.role in roles and tgt == partial[atom.obj]
                    for roles, tgt in successors(partial[atom.subj])
                )
                if not ok:
                    return False
        for atom in concept_atoms:
            if atom.term in partial and atom.name not in label_of(partial[atom.term]):
                return False
        return True

    if not consistent(assignment):
        return False

    def search(i: int) -> bool:
        if i == len(ordered_vars):
            return True
        var = ordered_vars[i]
        src = assignment[intro_atom[var].subj]
        want = intro_atom[var].role
        for roles, tgt in successors(src):
            if want not in roles:
                continue
            assignment[var] = tgt
            if consistent(assignment) and search(i + 1):
                return True
            del assignment[var]
        return False

    return search(0)


def answers_query(t: TBox, a: ABox, q: Query, cache: ModelCache | None = None) -> bool:
    """Certain-answer check for AQ, IQ, rooted CQs and the one boolean CQ."""
    if isinstance(q, AtomicQuery):
        if len(q.args) == 2:
            return role_assertion_holds(t, a, q.pred, *q.args)
        q = ConceptQuery(Atom(q.pred), q.args[0])
    if isinstance(q, RoleQuery):
        return role_assertion_holds(t, a, q.role, q.subj, q.obj)
    if isinstance(q, ConceptQuery):
        model = cache.get(t, a) if cache else build_model(t, a)
        if not model.has_individual(q.ind):
            # an individual without assertions is connected to nothing, so
            # the data cannot change what holds at it
            alone = ABox(declared=frozenset({q.ind}))
            model = cache.get(t, alone) if cache else build_model(t, alone)
        return concept_holds(model, q.ind, q.concept)
    if isinstance(q, ConjunctiveQuery):
        model = cache.get(t, a) if cache else build_model(t, a)
        if is_existential_atom_query(q):
            (atom,) = q.atoms
            return _existential_atom_holds(model, atom.name)
        if not is_rooted(q):
            raise UnsupportedQueryError(
                "only rooted conjunctive queries and a single existential "
                "concept atom are supported"
            )
        return _cq_holds(model, q)
    raise TypeError(f"not a query: {q!r}")


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


# ---------------------------------------------------------------------------
# Simulations, bisimulations and distinguishing witnesses
# ---------------------------------------------------------------------------


def _read(view, bundles: bool) -> tuple[list, dict, dict, dict]:
    """Sorted elements, labels, edges and the edges to match, read once.

    Without bundles an edge is matched role by role, so it is split into one
    singleton edge per role, in sorted role order.
    """
    els = sorted(view.elements(), key=repr)
    labels = {x: view.label_of(x) for x in els}
    edges = {x: tuple(view.successors(x)) for x in els}
    if bundles:
        return els, labels, edges, edges
    wants = {
        x: tuple((frozenset({r}), x1) for roles, x1 in out for r in sorted(roles))
        for x, out in edges.items()
    }
    return els, labels, edges, wants


def _refine(
    gi, gj, bundles: bool = False, back: bool = False, start: Iterable[tuple] | None = None
) -> tuple[set[tuple], dict[tuple, tuple]]:
    """The greatest (bi)simulation inside a seed relation, and why the rest went.

    The seed is ``start``, or every pair of elements of ``gi`` and ``gj``;
    ``start`` may only pair elements of ``gi`` with elements of ``gj``.
    A pair ``(d, e)`` is removed when ``d`` has a name that ``e`` lacks, or
    an edge (without ``bundles``: a role of an edge) that no edge of ``e``
    matches inside the relation; with ``back`` also when the same holds
    the other way round.  Sweeps visit the surviving pairs in ``repr`` order
    and remove in place, until a sweep removes nothing.  Returns the pairs
    kept and, for every removed pair, its reason: ``("atom", name)`` or
    ``("edge", roles, d1, targets)``, where ``d1`` is reached from ``d`` by
    the unmatched ``roles`` and ``targets`` lists every element that ``e``
    reaches by them.  ``_witness`` turns a reason into a query.
    """
    ei, li, si, wi = _read(gi, bundles)
    ej, lj, sj, wj = _read(gj, bundles)
    reason: dict[tuple, tuple] = {}
    order = []
    for d, e in sorted(itertools.product(ei, ej) if start is None else start, key=repr):
        missing = li[d] - lj[e]
        if back and not missing:
            missing = lj[e] - li[d]
        if missing:
            reason[(d, e)] = ("atom", min(missing))
        else:
            order.append((d, e))
    kept = set(order)
    flipped = {(e, d) for d, e in order} if back else set()

    def unmatched(wants, cands, rel) -> tuple | None:
        for roles, x1 in wants:
            if not any(roles <= roles2 and (x1, y1) in rel for roles2, y1 in cands):
                return ("edge", roles, x1, tuple(y1 for roles2, y1 in cands if roles <= roles2))
        return None

    changed = True
    while changed:
        changed = False
        for d, e in order:
            if (d, e) not in kept:
                continue
            why = unmatched(wi[d], sj[e], kept)
            if why is None and back:
                why = unmatched(wj[e], si[d], flipped)
            if why is not None:
                reason[(d, e)] = why
                kept.discard((d, e))
                flipped.discard((e, d))
                changed = True
    return kept, reason


def simulation(gi, gj, bundles: bool = False) -> frozenset:
    """The greatest (bundle) simulation from ``gi`` to ``gj``."""
    return frozenset(_refine(gi, gj, bundles)[0])


def bisimilar(gi, gj) -> frozenset:
    """The greatest bisimulation between ``gi`` and ``gj``."""
    return frozenset(_refine(gi, gj, back=True)[0])


def is_simulation(rel: Iterable[tuple], gi, gj) -> bool:
    """Is the non-empty relation ``rel``, between elements of ``gi`` and ``gj``, a simulation?"""
    rel = set(rel)
    return bool(rel) and not _refine(gi, gj, start=rel)[1]


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

        for a in sorted(self.labels):
            atoms.add(ConceptAtom(a, ind))
        for roles, sub in self.children:
            v = Var(f"x{next(counter)}")
            variables.add(v)
            for r in sorted(roles):
                atoms.add(RoleAtom(r, ind, v))
            emit(sub, v)
        return ConjunctiveQuery((ind,), frozenset(variables), frozenset(atoms))


def _witness(reason: dict[tuple, tuple], pair: tuple, memo: dict) -> BundleTree:
    """The tree query that the removal of ``pair`` by ``_refine`` records."""
    if pair in memo:
        return memo[pair]
    kind = reason[pair]
    if kind[0] == "atom":
        tree = BundleTree(frozenset({kind[1]}))
    else:
        _, roles, d1, targets = kind
        merged_labels: set[str] = set()
        children: list[tuple[frozenset[str], BundleTree]] = []
        for e1 in targets:
            sub = _witness(reason, (d1, e1), memo)
            merged_labels |= sub.labels
            children.extend(sub.children)
        tree = BundleTree(
            frozenset(), ((roles, BundleTree(frozenset(merged_labels), tuple(children))),)
        )
    memo[pair] = tree
    return tree


def separating_witness(gi, anchors: Iterable, gj, bundles: bool = False) -> dict:
    """``{d: tree}`` for each anchor ``d`` at which ``gj`` does not simulate ``gi``.

    The tree query is true at ``d`` in ``gi`` but not at ``d`` in ``gj``.
    All witnesses are read from one refinement.
    """
    reason = _refine(gi, gj, bundles)[1]
    memo: dict = {}
    return {d: _witness(reason, (d, d), memo) for d in anchors if (d, d) in reason}


# ---------------------------------------------------------------------------
# Inseparability
# ---------------------------------------------------------------------------

LANG_AQ = "aq"
LANG_IQ = "iq"
LANG_CQR = "cqr"


@dataclass(frozen=True)
class Separation:
    query: Query
    first_entails: bool  # True when the first TBox entails the query


def _aq_closure(t: TBox, a: ABox, sig: Signature, cache: ModelCache | None):
    model = cache.get(t, a) if cache else build_model(t, a)
    inds = sorted(a.individuals())
    concept_facts = {
        (name, i)
        for name in sorted(sig.concept_names)
        for i in inds
        if name in model.labels[("n", i)]
    }
    role_facts = {
        (r, x, y)
        for (s, x, y) in a.role_assertions
        for r in superroles(t, s)
        if r in sig.role_names
    }
    return concept_facts, role_facts


def inseparability_gap(
    t: TBox,
    h: TBox,
    a: ABox,
    lang: str,
    cache: ModelCache | None = None,
    limit: int | None = None,
) -> list[Separation]:
    """Deterministically ordered separating queries; empty means inseparable.

    Instance-query separations are detected per individual via mutual
    simulations between the two regular models; rooted-CQ separations use
    bundle matching, which also catches several roles forced on one edge.
    """
    sig = signature_of_tbox(t).union(signature_of_tbox(h)).union(signature_of_abox(a))
    out: list[Separation] = []

    def push(sep: Separation) -> bool:
        out.append(sep)
        return limit is not None and len(out) >= limit

    tc, tr = _aq_closure(t, a, sig, cache)
    hc, hr = _aq_closure(h, a, sig, cache)
    for name, i in sorted(tc ^ hc):
        q: Query = AtomicQuery(name, (i,))
        if push(Separation(q, (name, i) in tc)):
            return out
    for role, x, y in sorted(tr ^ hr):
        q = AtomicQuery(role, (x, y))
        if push(Separation(q, (role, x, y) in tr)):
            return out
    if lang == LANG_AQ:
        return out

    bundles = lang == LANG_CQR
    mt = cache.get(t, a) if cache else build_model(t, a)
    mh = cache.get(h, a) if cache else build_model(h, a)
    anchors = [("n", ind) for ind in sorted(a.individuals())]
    # each direction is refined once, when the loop first needs it
    witnesses: dict[bool, dict] = {}
    for el in anchors:
        for first, gi, gj in ((True, mt, mh), (False, mh, mt)):
            if first not in witnesses:
                witnesses[first] = separating_witness(gi, anchors, gj, bundles=bundles)
            witness = witnesses[first].get(el)
            if witness is None:
                continue
            concept = witness.as_concept()
            if concept is not None:
                q = ConceptQuery(concept, el[1])
            else:
                q = witness.as_cq(el[1])
            if push(Separation(q, first)):
                return out
    return out


def inseparable(
    t: TBox, h: TBox, a: ABox, lang: str, cache: ModelCache | None = None
) -> Separation | None:
    """None when inseparable, else a verified separating query."""
    if lang not in (LANG_AQ, LANG_IQ, LANG_CQR):
        raise UnsupportedQueryError(f"inseparability undecided for language {lang!r}")
    gap = inseparability_gap(t, h, a, lang, cache=cache, limit=1)
    if not gap:
        return None
    sep = gap[0]
    if answers_query(t, a, sep.query, cache) == answers_query(h, a, sep.query, cache):
        raise ContractViolationError(f"separating query does not separate: {sep.query!r}")
    return sep
