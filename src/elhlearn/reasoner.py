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

Role hierarchy: ``role_closure`` is the one reflexive-transitive closure of
a set of role inclusions, memoised on the frozenset ``t.ris``.  Saturation,
role queries, ``superroles``, ``entails_ri`` and the learners all read it;
a role that no inclusion mentions is below itself only.  A role query
``r(x, y)`` is a lookup of ``s(x, y)`` in the assertions, for ``r`` and for
each role ``s`` whose closure holds ``r``.

Saturation works from a compiled form of the TBox (``_compile``, cached per
TBox): the inclusions with a name or ``top`` on the left, in sorted order,
with their right-hand names and edges (role closures applied, targets
resolved); the inclusions with a complex left side, where ``some r. A`` is
kept as its role and filler name and checked inline, every other left side
going to ``_eval_concept``; the largest existential depth of those left
sides; and the initial label and edges of every anonymous element.
``C [= top`` with a complex ``C`` is dropped.  An asserted pair takes the
closure's own role set, or the union of those of its assertions.  Each
pair's edge is appended in one walk over the pairs, and only an individual
with two or more edges sorts them by target index, which is name order.
The firing order is fixed: each step fires all rules, in order, at the
smallest element (in sorted order) that they still change.  This is what a
rescan from the first element after every change would do, and it fixes
the order of each element's edges.  A heap of candidate elements finds that
element without the rescan.  It holds every element that might still
change: after a change at an element, the element itself and every element
at most ``depth`` edges before it, since a left side of depth d reads
labels at most d edges away, and name rules read only the element's own
label.  The element goes straight back on the heap, and at depth 1 its
predecessors join it without a set being built.  The heap starts the same
way, from the elements a rule can change at the start: every labelled
element and every element at most ``depth`` edges before one.  An element
left out changes nothing when fired until a change within ``depth`` edges
of it wakes it.  A TBox with ``top`` on the left of a name rule, or a
complex left side that names no concept, can change an element without any
label near it, and then every element starts on the heap.  Every empty
label of the model is one shared ``frozenset``, and an element without
edges has ``()``.

``ModelCache`` is one LRU of models, keyed by ``(kb_key(t), abox_key(a))``;
when full it drops the least recently used model.  ``kb_key`` is memoised
once per process on the ``TBox`` value, as ``_compile`` is, so a fresh
cache keys no TBox already keyed.  ``abox_key`` is the ABox's own three
frozensets: two of them are equal exactly when their sorted tuples are, and
CPython caches a frozenset's hash, so the key sorts nothing.  A ``get`` for
the very objects of the last ``get`` returns the last model before any key
work, which leaves the cache as the full lookup would.

Unravelling the presentation from the named individuals reproduces the least
model, so instance checking is plain recursive concept evaluation on the
finite graph (``_eval_concept``, the one evaluator, which saturation uses
for complex left sides other than ``some r. A`` as well), the boolean query
``exists w ; A(w)`` is false at once when no label holds ``A``, and
otherwise a walk from the named part that stops at the first element
labelled ``A``,
and query inseparability reduces to label agreement plus mutual (bundle)
simulations anchored at each individual.  One matcher, ``_cq_holds``,
answers rooted conjunctive queries: a memoised bottom-up fit of the query's
tree part on the finite graph (Yannakakis' evaluation of acyclic queries)
decides queries whose variables form a forest below the individuals, and
otherwise prunes a backtracking search of the unravelling.  Its fit and its
search are module functions that take what they read as arguments; no
recursive helper of the package closes over itself.  A nested function
that calls itself holds a reference cycle through its own closure cell,
and the cell of the fit also held the model's labels and edges, so each
query's model stayed alive after the query until the cyclic collector
found it.

All simulations come from one refinement, ``_refine``: it removes pairs
from a relation between two graphs until the rest is a (bundle) simulation,
or with ``back`` a bisimulation, and records why each pair went.
``simulation``, ``bisimilar`` and ``is_simulation`` read the pairs kept;
``separating_witness`` turns the reasons of removed anchor pairs into the
distinguishing tree queries, ``syntax.Tree`` values whose edges carry role
sets, and ``inseparability_gap`` asks it once per direction between the two
models and emits each tree as a concept query, or as a CQ when an edge
carries several roles.  It refines only the pairs reachable
from the anchor pairs, which are all that the reasons of anchor pairs
read.  The graphs are ``RegularModel`` values, and each is read
(``_read``: elements sorted by value, labels, edges) once per bundle mode.
An ABox on its own is the model ``build_model(TBox(), a)``: over the empty
TBox that model is the ABox's labelled graph, one element ``("n", i)`` per
individual and one edge per pair of individuals, carrying every role
asserted between them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
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
    RI,
    RoleQuery,
    Signature,
    TBox,
    Term,
    Top,
    Tree,
    UnsupportedQueryError,
    Var,
    canonical,
    concept_depth,
    is_existential_atom_query,
    is_terminology,
    normalize,
    signature_of_abox,
    signature_of_tbox,
    subconcepts,
    top_atoms,
    top_existentials,
)
from .syntax import ContractViolationError

# ---------------------------------------------------------------------------
# Role hierarchy
# ---------------------------------------------------------------------------


class Closure(dict):
    """name -> the names at or above it; a name no pair mentions is only above itself."""

    def __missing__(self, name: str) -> frozenset[str]:
        return frozenset((name,))


def closure(pairs: Iterable[tuple[str, str]]) -> Closure:
    """The reflexive-transitive closure of the ``(sub, sup)`` pairs (Warshall's rule)."""
    up: dict[str, set[str]] = {}
    for sub, sup in pairs:
        up.setdefault(sub, {sub}).add(sup)
        up.setdefault(sup, {sup})
    for via in up:
        for above in up.values():
            if via in above:
                above |= up[via]
    return Closure((name, frozenset(above)) for name, above in up.items())


# keyed on ``t.ris``: a frozenset keeps its hash, a ``TBox`` rehashes every concept
@functools.lru_cache(maxsize=256)
def role_closure(ris: frozenset[RI]) -> Closure:
    """Every role -> its superroles under ``ris``: the one role hierarchy, shared, read only."""
    return closure((ri.lhs, ri.rhs) for ri in ris)


def superroles(t: TBox, role: str) -> frozenset[str]:
    """``role`` and every role above it under ``t``."""
    return role_closure(t.ris)[role]


def entails_ri(t: TBox, sub: str, sup: str) -> bool:
    return sup in role_closure(t.ris)[sub]


# ---------------------------------------------------------------------------
# Regular presentation of the least model
# ---------------------------------------------------------------------------

NamedEl = tuple[Literal["n"], str]
AnonEl = tuple[Literal["a"], str]  # keyed by canonical filler serialization
Element = Union[NamedEl, AnonEl]
Edge = tuple[frozenset[str], Element]


@dataclass(slots=True)
class RegularModel:
    """Finite presentation of the least model of a TBox and an ABox.

    ``labels`` maps every element to its saturated set of concept names and
    ``edges`` lists outgoing ``(role set, target)`` bundles.  Anonymous
    elements stand for whole families of elements of the least model, one
    per path that reaches them from the named part.  ``_reads`` keeps what
    ``_read`` makes of the model, per bundle mode.
    """

    labels: dict[Element, frozenset[str]]
    edges: dict[Element, tuple[Edge, ...]]
    _reads: dict[bool, tuple] = field(default_factory=dict, compare=False, repr=False)

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


def _existential_fillers(t: TBox) -> dict[str, Concept]:
    """Fillers of existentials nested in right-hand sides of name-lhs CIs."""
    out: dict[str, Concept] = {}
    for ci in t.cis:
        if isinstance(ci.lhs, (Atom, Top)):
            _add_fillers(ci.rhs, out)
    return out


def _add_fillers(c: Concept, out: dict[str, Concept]) -> None:
    """Add to ``out`` each existential filler in ``c`` not yet in it, and its own."""
    if isinstance(c, Exists):
        key = canonical(c.filler)
        if key not in out:
            out[key] = c.filler
            _add_fillers(c.filler, out)
    elif isinstance(c, And):
        for a in c.args:
            _add_fillers(a, out)


def _eval_concept(labels, edges, el, c: Concept) -> bool:
    """Does ``c`` hold at ``el``?

    ``labels[el]`` holds the names of ``el`` and ``edges[el]`` its
    ``(role set, target)`` edges: dicts keyed by element on a model, lists
    indexed by position during saturation.  Saturation and query answering
    both evaluate here, so the kinds are tried most frequent first, and an
    existential with a name as filler reads its targets' labels directly.
    """
    kind = type(c)
    if kind is Exists:
        role, filler = c.role, c.filler
        if type(filler) is Atom:
            name = filler.name
            for roles, tgt in edges[el]:
                if role in roles and name in labels[tgt]:
                    return True
            return False
        for roles, tgt in edges[el]:
            if role in roles and _eval_concept(labels, edges, tgt, filler):
                return True
        return False
    if kind is Atom:
        return c.name in labels[el]
    if kind is And:
        for arg in c.args:
            if not _eval_concept(labels, edges, el, arg):
                return False
        return True
    if kind is Top:
        return True
    raise TypeError(f"not a concept: {c!r}")


# An edge during saturation: its role set and the index of its target.
_IndexEdge = tuple[frozenset[str], int]
# the one label of every element without names in a built model
_NO_NAMES: frozenset[str] = frozenset()
_target = operator.itemgetter(1)


@dataclass(frozen=True, slots=True)
class _Compiled:
    """What ``build_model`` needs from a TBox, computed once per TBox.

    Anonymous elements sort before named ones, so the index of an anonymous
    element in the saturation order is the rank of its key among the
    filler keys, whatever the ABox.
    """

    anon_keys: tuple[str, ...]  # sorted
    # per filler, in ``_existential_fillers`` order: index, initial label,
    # initial edges
    templates: tuple[tuple[int, frozenset[str], tuple[_IndexEdge, ...]], ...]
    # inclusions with a name (None for top) on the left, in firing order:
    # left name, right-hand names, right-hand edges
    name_rules: tuple[tuple[str | None, tuple[str, ...], tuple[_IndexEdge, ...]], ...]
    # inclusions with a complex left side, in firing order: right name, left
    # side and, for a left side ``some r. A``, its role and filler name
    # (both None for any other left side)
    complex_rules: tuple[tuple[str, Concept, str | None, str | None], ...]
    depth: int  # largest existential depth of a complex left side
    # a rule may change an element with no label within ``depth`` edges:
    # ``top`` on the left of a name rule, or a complex left side without names
    fire_everywhere: bool


def _rule_order(ci) -> tuple[str, str]:
    return canonical(ci.lhs), canonical(ci.rhs)


def _exists_name(c: Concept) -> tuple[str | None, str | None]:
    """The role and filler name of ``some r. A``; ``(None, None)`` for any other concept."""
    if type(c) is Exists and type(c.filler) is Atom:
        return c.role, c.filler.name
    return None, None


# bounded: the learners make a new hypothesis TBox at nearly every step
@functools.lru_cache(maxsize=128)
def _compile(t: TBox) -> _Compiled:
    if not is_terminology(t):
        raise ContractViolationError("model construction expects a terminology")
    up = role_closure(t.ris)
    fillers = _existential_fillers(t)
    anon_keys = tuple(sorted(fillers))
    index = {key: i for i, key in enumerate(anon_keys)}

    def rule_edges(c: Concept) -> tuple[_IndexEdge, ...]:
        return tuple(
            (up[ex.role], index[canonical(ex.filler)]) for ex in top_existentials(c)
        )

    name_cis = sorted((ci for ci in t.cis if isinstance(ci.lhs, (Atom, Top))), key=_rule_order)
    # a complex left side has a name or top on the right; ``C [= top`` says
    # nothing and is dropped
    complex_cis = sorted(
        (ci for ci in t.cis if not isinstance(ci.lhs, (Atom, Top)) and isinstance(ci.rhs, Atom)),
        key=_rule_order,
    )
    return _Compiled(
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
        tuple((ci.rhs.name, ci.lhs, *_exists_name(ci.lhs)) for ci in complex_cis),
        max((concept_depth(ci.lhs) for ci in complex_cis), default=0),
        any(isinstance(ci.lhs, Top) for ci in name_cis)
        or any(
            not any(type(c) is Atom for c in subconcepts(ci.lhs)) for ci in complex_cis
        ),
    )


def build_model(t: TBox, a: ABox) -> RegularModel:
    """Saturate the regular presentation of the least model of ``(t, a)``."""
    comp = _compile(t)
    n_anon = len(comp.anon_keys)

    concepts_of: dict[str, set[str]] = {}
    for name, ind in a.concept_assertions:
        concepts_of.setdefault(ind, set()).add(name)
    # a pair's role set is the closure's own set for its one assertion, a
    # union only for a pair with several
    up = role_closure(t.ris)
    pair_roles: dict[tuple[str, str], frozenset[str]] = {}
    for role, x, y in a.role_assertions:
        roles = pair_roles.get((x, y))
        pair_roles[x, y] = up[role] if roles is None else roles | up[role]
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
    # named elements have no edges yet, and each pair gives one edge; an
    # element with several sorts them by target, which is name order
    several = []
    for (x, y), roles in pair_roles.items():
        i, j = named[x], named[y]
        out = edges[i]
        out.append((roles, j))
        if len(out) == 2:
            several.append(i)
        preds[j].append(i)
    for i in several:
        edges[i].sort(key=_target)

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
        for name, lhs, role, filler in complex_rules:
            if name in lab:
                continue
            if role is None:
                if not _eval_concept(labels, edges, i, lhs):
                    continue
            else:
                # ``_eval_concept`` on ``some role. filler``, inline
                for roles, j in edges[i]:
                    if role in roles and filler in labels[j]:
                        break
                else:
                    continue
            lab.add(name)
            changed = True
        return changed

    depth = comp.depth

    def before(found: set[int]) -> set[int]:
        """Add to ``found`` every element at most ``depth`` edges before one of it."""
        frontier = list(found)
        for _ in range(depth):
            frontier = [p for j in frontier for p in preds[j] if p not in found]
            found.update(frontier)
        return found

    # The heap holds every element that a firing may still change, so its
    # smallest member that changes is the one the full rescan would fire.
    # A firing at i can unsaturate only i and the elements whose complex
    # left sides reach i: those at most ``depth`` edges before it.  At the
    # start, a rule can change only a labelled element or one whose complex
    # left sides reach a label, unless ``fire_everywhere``.
    if comp.fire_everywhere:
        heap = list(range(size))
    else:
        heap = [i for i in range(size) if labels[i]]
        if depth:
            heap = sorted(before(set(heap)))
    queued = [False] * size
    for i in heap:
        queued[i] = True
    while heap:
        i = heapq.heappop(heap)
        if not fire(i):
            queued[i] = False
            continue
        # i stays queued; at depth 1 the elements before it are its preds
        heapq.heappush(heap, i)
        for j in preds[i] if depth == 1 else before({i}) if depth else ():
            if not queued[j]:
                queued[j] = True
                heapq.heappush(heap, j)

    order = [i for i, _, _ in comp.templates] + list(range(n_anon, size))
    return RegularModel(
        {keys[i]: frozenset(labels[i]) if labels[i] else _NO_NAMES for i in order},
        {
            keys[i]: tuple([(roles, keys[j]) for roles, j in edges[i]]) if edges[i] else ()
            for i in order
        },
    )


class ModelCache:
    """At most ``limit`` models, the least recently used dropped first.

    The pair of objects asked for last, and its model, are kept aside: asked
    for again, they are answered without any key work.  That pair is already
    the most recently used in the store, so skipping the lookup leaves the
    store as it would be.  A store made with a ``backing`` store takes its
    misses from it, so it holds only the models asked of it.
    """

    def __init__(self, limit: int = 512, backing: ModelCache | None = None):
        self.limit = limit
        self._backing = backing
        self._store: OrderedDict[tuple, RegularModel] = OrderedDict()
        self._last: tuple[TBox | None, ABox | None, RegularModel | None] = (None, None, None)

    def get(self, t: TBox, a: ABox) -> RegularModel:
        last_t, last_a, model = self._last
        if t is last_t and a is last_a:
            return model
        key = (kb_key(t), abox_key(a))
        model = self._store.get(key)
        if model is None:
            model = build_model(t, a) if self._backing is None else self._backing.get(t, a)
            if len(self._store) >= self.limit:
                self._store.popitem(last=False)
            self._store[key] = model
        else:
            self._store.move_to_end(key)
        self._last = (t, a, model)
        return model


@functools.lru_cache(maxsize=1024)
def kb_key(t: TBox) -> tuple:
    return (
        tuple(sorted(f"{canonical(ci.lhs)}|{canonical(ci.rhs)}" for ci in t.cis)),
        tuple(sorted((ri.lhs, ri.rhs) for ri in t.ris)),
    )


def abox_key(a: ABox) -> tuple:
    # the assertions fix the mentioned individuals, and ``declared`` holds
    # exactly the others
    return (a.concept_assertions, a.role_assertions, a.declared)


# ---------------------------------------------------------------------------
# Entailment and query answering
# ---------------------------------------------------------------------------


def concept_holds(model: RegularModel, ind: str, c: Concept) -> bool:
    return _eval_concept(model.labels, model.edges, model.named(ind), c)


def entails_ci(t: TBox, c: Concept, d: Concept, cache: ModelCache | None = None) -> bool:
    """Subsumption via evaluation at the root of the encoding of ``c``."""
    a, root = Tree.of_concept(normalize(c)).abox()
    model = cache.get(t, a) if cache else build_model(t, a)
    return concept_holds(model, root, d)


def role_assertion_holds(t: TBox, a: ABox, role: str, x: str, y: str) -> bool:
    """Is some ``s(x, y)`` asserted with ``role`` among the superroles of ``s``?

    The roles below ``role`` are ``role`` itself and every role whose
    closure holds it; each is looked up in the assertions.
    """
    assertions = a.role_assertions
    if (role, x, y) in assertions:
        return True
    return any(
        role in above and (s, x, y) in assertions for s, above in role_closure(t.ris).items()
    )


def _existential_atom_holds(model: RegularModel, name: str) -> bool:
    """Does some element reachable from the named part have ``name``?

    No element has the name when no label holds it.  Otherwise the walk
    starts at the named elements and stops at the first element found with
    the name.
    """
    labels, edges = model.labels, model.edges
    if not any(name in label for label in labels.values()):
        return False
    frontier = []
    for el, label in labels.items():
        if el[0] == "n":
            if name in label:
                return True
            frontier.append(el)
    seen = set(frontier)
    while frontier:
        for _, tgt in edges[frontier.pop()]:
            if tgt not in seen:
                if name in labels[tgt]:
                    return True
                seen.add(tgt)
                frontier.append(tgt)
    return False


def _cq_holds(model: RegularModel, q: ConjunctiveQuery) -> bool:
    """Does the rooted CQ ``q`` match into the least model?

    A breadth-first walk along role atoms from the individuals gives each
    variable a parent, the term it is first reached from.  ``_fits(t, el)``,
    memoised, holds when ``el`` has the names of ``t`` and, for each pair
    from ``t`` to an individual or a child, one edge carrying all the pair's
    roles to that individual or to an element where the child fits.  Every
    other pair (a second parent, a cycle, a self-loop) is left over; with
    none, ``q`` holds when each individual fits at itself.  Otherwise
    ``_search`` places the variables, parents first, into the unravelling,
    whose anonymous elements are linked paths ``(parent image, roles,
    type)`` with one in-edge, and each left-over pair is checked once, when
    its later term is placed.  A variable lies one edge below its parent,
    so no path is longer than the query has variables: no depth bound.
    """
    names: dict[Term, set[str]] = {}
    pairs: dict[Term, dict[Term, set[str]]] = {}
    for atom in q.atoms:
        if isinstance(atom, ConceptAtom):
            names.setdefault(atom.term, set()).add(atom.name)
        else:
            pairs.setdefault(atom.subj, {}).setdefault(atom.obj, set()).add(atom.role)
    inds = sorted(q.individuals())
    order: list[Term] = list(inds)
    parent: dict[Term, tuple[Term, frozenset[str]]] = {}
    below: dict[Term, list[tuple[Term, frozenset[str]]]] = {}
    leftover = []
    for s in order:  # grows while it is read
        for o, roles in pairs.get(s, {}).items():
            roles = frozenset(roles)
            if isinstance(o, str) or o not in parent:
                below.setdefault(s, []).append((o, roles))
                if isinstance(o, Var):
                    parent[o] = (s, roles)
                    order.append(o)
            else:
                leftover.append((s, o, roles))
    if len(parent) < len(q.exist_vars):
        raise UnsupportedQueryError(
            "only rooted conjunctive queries and a single existential concept atom are supported"
        )
    labels, edges = model.labels, model.edges
    if not all(model.has_individual(i) for i in inds):
        return False
    memo: dict[tuple[Term, Element], bool] = {}
    fit = (names, below, labels, edges, memo)
    if not all(_fits(i, ("n", i), *fit) for i in inds):
        return False
    if not leftover:
        return True
    rank = {t: k for k, t in enumerate(order)}
    checks: dict[Term, list] = {}
    for s, o, roles in leftover:
        checks.setdefault(max(s, o, key=rank.__getitem__), []).append((s, o, roles))
    # a named image is its model element, an anonymous one a linked path
    image: dict[Term, tuple] = {i: ("n", i) for i in inds}
    return _search(len(inds), order, parent, checks, image, fit)


def _fits(t: Term, el: Element, names, below, labels, edges, memo) -> bool:
    """Does the tree part of the query below ``t`` fit at ``el``?  See ``_cq_holds``."""
    # loops, not generators: one stack frame per level of the query
    hit = memo.get((t, el))
    if hit is None:
        hit = names.get(t, _NO_NAMES) <= labels[el]
        for u, roles in below.get(t, ()) if hit else ():
            for have, tgt in edges[el]:
                if roles <= have and (
                    tgt == ("n", u)
                    if isinstance(u, str)
                    else _fits(u, tgt, names, below, labels, edges, memo)
                ):
                    break
            else:
                hit = False
                break
        memo[(t, el)] = hit
    return hit


def _search(k: int, order: list, parent: dict, checks: dict, image: dict, fit: tuple) -> bool:
    """Place ``order[k:]`` into the unravelling, parents first; see ``_cq_holds``.

    ``fit`` holds the arguments of ``_fits`` after the term and the element.
    """
    if k == len(order):
        return True
    edges = fit[3]
    v = order[k]
    p, want = parent[v]
    src = image[p]
    for have, tgt in edges[src if len(src) == 2 else src[2]]:
        if want <= have and _fits(v, tgt, *fit):
            image[v] = tgt if tgt[0] == "n" else (src, have, tgt)
            if all(_linked(image[s], image[o], r, edges) for s, o, r in checks.get(v, ())):
                if _search(k + 1, order, parent, checks, image, fit):
                    return True
    return False


def _linked(src: tuple, dst: tuple, roles: frozenset[str], edges) -> bool:
    """Does an edge carrying ``roles`` join the images ``src`` and ``dst``?"""
    if len(dst) == 3:
        return dst[0] == src and roles <= dst[1]
    return len(src) == 2 and any(roles <= have and tgt == dst for have, tgt in edges[src])


def answers_query(t: TBox, a: ABox, q: Query, cache: ModelCache | None = None) -> bool:
    """Certain-answer check for AQ, IQ, rooted CQs and the one boolean CQ."""
    if isinstance(q, AtomicQuery):
        if len(q.args) == 2:
            return role_assertion_holds(t, a, q.pred, *q.args)
        (ind,) = q.args
        model = cache.get(t, a) if cache else build_model(t, a)
        label = model.labels.get(("n", ind))
        if label is None:
            # not in the data: read alone, as for a concept query below
            alone = ABox(declared=frozenset({ind}))
            model = cache.get(t, alone) if cache else build_model(t, alone)
            label = model.labels[("n", ind)]
        return q.pred in label
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
        return _cq_holds(model, q)
    raise TypeError(f"not a query: {q!r}")


# ---------------------------------------------------------------------------
# Simulations, bisimulations and distinguishing witnesses
# ---------------------------------------------------------------------------


def _read(view, bundles: bool) -> tuple[list, dict, dict, dict]:
    """Sorted elements, labels, edges and the edges to match.

    Elements sort by value.  For ``("n", name)`` and ``("a", canonical)``
    that is their ``repr`` order, since every character of a name or a
    canonical filler sorts above the quote that closes a ``repr``.  Without
    bundles an edge is matched role by role, so it is split into one
    singleton edge per role, in sorted role order.  A ``RegularModel`` is
    read once per bundle mode.
    """
    reads = view._reads if isinstance(view, RegularModel) else {}
    if bundles not in reads:
        els = sorted(view.elements())
        labels = {x: view.label_of(x) for x in els}
        edges = {x: tuple(view.successors(x)) for x in els}
        wants = edges
        if not bundles:
            wants = {
                x: tuple((frozenset({r}), x1) for roles, x1 in out for r in sorted(roles))
                for x, out in edges.items()
            }
        reads[bundles] = els, labels, edges, wants
    return reads[bundles]


def _refine(
    gi, gj, bundles: bool = False, back: bool = False, start: Iterable[tuple] | None = None
) -> tuple[set[tuple], dict[tuple, tuple]]:
    """The greatest (bi)simulation inside a seed relation, and why the rest went.

    The seed is ``start``, or every pair of elements of ``gi`` and ``gj``;
    ``start`` may only pair elements of ``gi`` with elements of ``gj``.
    A pair ``(d, e)`` is removed when ``d`` has a name that ``e`` lacks, or
    an edge (without ``bundles``: a role of an edge) that no edge of ``e``
    matches inside the relation; with ``back`` also when the same holds
    the other way round.  Sweeps visit the surviving pairs in sorted order
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
    # the product of two sorted lists is sorted
    for d, e in itertools.product(ei, ej) if start is None else sorted(start):
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


def _witness(reason: dict[tuple, tuple], pair: tuple, memo: dict) -> Tree:
    """The tree query that the removal of ``pair`` by ``_refine`` records."""
    if pair in memo:
        return memo[pair]
    kind = reason[pair]
    if kind[0] == "atom":
        tree = Tree(frozenset({kind[1]}))
    else:
        _, roles, d1, targets = kind
        merged_labels: set[str] = set()
        children: list[tuple[frozenset[str], Tree]] = []
        for e1 in targets:
            sub = _witness(reason, (d1, e1), memo)
            merged_labels |= sub.labels
            children.extend(sub.children)
        tree = Tree(frozenset(), ((roles, Tree(frozenset(merged_labels), tuple(children))),))
    memo[pair] = tree
    return tree


def separating_witness(gi, anchors: Iterable, gj, bundles: bool = False) -> dict:
    """``{d: tree}`` for each anchor ``d`` at which ``gj`` does not simulate ``gi``.

    The tree query is true at ``d`` in ``gi`` but not at ``d`` in ``gj``.
    All witnesses are read from one refinement, seeded with the pairs
    reachable from the anchor pairs ``(d, d)`` in both graphs: from a pair
    whose second element has every name of its first, along an edge to
    match of ``gi`` and an edge of ``gj`` that matches it.  A pair's removal
    and its reason read only pairs reachable from it, and the sweeps visit
    them in the same order as on the full product, so the witnesses are
    those of the full product.
    """
    _, li, _, wi = _read(gi, bundles)
    _, lj, sj, _ = _read(gj, bundles)
    seed = {(d, d) for d in anchors if d in li and d in lj}
    frontier = list(seed)
    while frontier:
        d, e = frontier.pop()
        if li[d] <= lj[e]:
            for roles, d1 in wi[d]:
                for roles2, e1 in sj[e]:
                    if roles <= roles2 and (d1, e1) not in seed:
                        seed.add((d1, e1))
                        frontier.append((d1, e1))
    reason = _refine(gi, gj, bundles, start=seed)[1]
    memo: dict = {}
    return {d: _witness(reason, (d, d), memo) for d in anchors if (d, d) in reason}


# ---------------------------------------------------------------------------
# Inseparability
# ---------------------------------------------------------------------------

LANG_AQ = "aq"
LANG_IQ = "iq"
LANG_CQR = "cqr"


@dataclass(frozen=True, slots=True)
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
    up = role_closure(t.ris)
    role_facts = {
        (r, x, y) for (s, x, y) in a.role_assertions for r in up[s] if r in sig.role_names
    }
    return concept_facts, role_facts


def inseparability_gap(
    t: TBox,
    h: TBox,
    a: ABox,
    lang: str,
    cache: ModelCache | None = None,
    limit: int | None = None,
    h_cache: ModelCache | None = None,
) -> list[Separation]:
    """Deterministically ordered separating queries; empty means inseparable.

    Instance-query separations are detected per individual via mutual
    simulations between the two regular models; rooted-CQ separations use
    bundle matching, which also catches several roles forced on one edge.
    The models of ``h`` come from ``h_cache``, by default ``cache``.
    """
    h_cache = h_cache or cache
    sig = signature_of_tbox(t).union(signature_of_tbox(h)).union(signature_of_abox(a))
    out: list[Separation] = []

    def push(sep: Separation) -> bool:
        out.append(sep)
        return limit is not None and len(out) >= limit

    tc, tr = _aq_closure(t, a, sig, cache)
    hc, hr = _aq_closure(h, a, sig, h_cache)
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
    mh = h_cache.get(h, a) if h_cache else build_model(h, a)
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
            concept = witness.concept()
            if concept is not None:
                q = ConceptQuery(concept, el[1])
            else:
                q = witness.cq(el[1])
            if push(Separation(q, first)):
                return out
    return out


def inseparable(t: TBox, h: TBox, a: ABox, lang: str) -> Separation | None:
    """None when inseparable, else a verified separating query."""
    if lang not in (LANG_AQ, LANG_IQ, LANG_CQR):
        raise UnsupportedQueryError(f"inseparability undecided for language {lang!r}")
    # the gap and the check of its query read the same two models
    cache = ModelCache()
    gap = inseparability_gap(t, h, a, lang, cache=cache, limit=1)
    if not gap:
        return None
    sep = gap[0]
    if answers_query(t, a, sep.query, cache) == answers_query(h, a, sep.query, cache):
        raise ContractViolationError(f"separating query does not separate: {sep.query!r}")
    return sep
