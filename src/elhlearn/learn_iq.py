"""Learning instance-query consequences of a hidden terminology.

The atomic phase fixes everything with a concept name on the right; this
loop learns the inclusions with a concept name on the left.  Each
counterexample ``C(a)`` over the (hypothesis-saturated) fixed ABox is first
walked down to a single-individual example ``A(c) entails D(c)`` and then
normalized by four reductions driven by membership queries:

* concept saturation: add signature names to node labels while the example
  stays positive,
* role saturation: swap an edge role for a subrole while positive,
* sibling merging: merge two equal-role children of a node while positive,
* right decomposition: split off ``A' [= some r. C_v`` when some node label
  already implies the subtree, or drop the subtree when the hypothesis knows
  it.

Each reduction reads the right-hand side as a ``syntax.Tree`` and builds
every candidate as a new tree with one node replaced, the node named by its
path of child positions; a rejected candidate is simply dropped.  The
candidates come in a fixed order, which fixes the membership questions:
nodes in preorder, children in conjunct order, names sorted, and sibling
pairs ``(i, j)`` with ``i < j``.

Reduced inclusions for the same left-hand name are combined by conjoining
the right-hand trees and re-reducing, which keeps the per-name inclusion
unique and strictly grows its tree, so the loop terminates.

Role names are collapsed to one representative per learned equivalence
class before any of this runs; learned inclusions use representatives and
the final hypothesis carries the full set of learned role inclusions.

Every learner runs the one counterexample loop, ``learn_aq.refine``, which
checks the budget, asks its finder for a counterexample, hands it to its
step and records the iteration.  ``start`` runs the prologue once
(bootstrap, role classes, name equivalence) and then the atomic phase, the
loop with membership questions as its finder; ``counterexample_loop`` runs
the loop with the inseparability oracle as its finder and its one hook
``step`` as its step, until the hypothesis is inseparable.  The instance
step reads an atomic counterexample as a concept query and calls ``iq_step``;
``learn_cqr``, ``updates`` and ``batch`` bring their own steps.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

from . import reasoner
from .learn_aq import (
    BUDGET_DEGREE_IQ,
    MAX_ROUNDS,
    CachedOracle,
    LearnResult,
    aq_phase,
    bootstrap_atomic,
    refine,
    saturate_with_hypothesis,
    _record_iteration,
)
from .syntax import (
    ABox,
    And,
    Atom,
    AtomicQuery,
    BudgetExceededError,
    CI,
    Concept,
    ConceptQuery,
    ContractViolationError,
    Exists,
    Query,
    RI,
    StructuralError,
    TBox,
    Tree,
    conj,
    normalize,
    terminology,
    top_existentials,
)


# ---------------------------------------------------------------------------
# Role representatives
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RoleClasses:
    """Equivalence classes of roles under the learned inclusions."""

    representative: dict[str, str]
    ris: frozenset[RI]

    def rep(self, role: str) -> str:
        return self.representative.get(role, role)

    def strict_subroles(self, role: str) -> list[str]:
        """Representative roles strictly below ``role``."""
        up = reasoner.role_closure(self.ris)
        rep = self.rep(role)
        return [s for s in sorted(set(self.representative.values())) if s != rep and rep in up[s]]

    def rewrite(self, c: Concept) -> Concept:
        """``c`` with every role replaced by its representative; ``c`` itself if none changes."""
        if isinstance(c, Exists):
            role, filler = self.rep(c.role), self.rewrite(c.filler)
            return c if role == c.role and filler is c.filler else Exists(role, filler)
        if isinstance(c, And):
            args = [self.rewrite(a) for a in c.args]
            return normalize(c if all(map(operator.is_, args, c.args)) else conj(*args))
        return c


def role_classes(ris: frozenset[RI], roles: frozenset[str]) -> RoleClasses:
    """Each role's representative: the least role of ``roles`` equivalent to it."""
    up = reasoner.role_closure(ris)
    rep = {r: min(s for s in up[r] if s in roles and r in up[s]) for r in sorted(roles)}
    return RoleClasses(rep, ris)


# ---------------------------------------------------------------------------
# Counterexample reduction
# ---------------------------------------------------------------------------


def reduce_counterexample(
    oracle: CachedOracle, a: ABox, concept: Concept, ind: str, h: TBox
) -> CI:
    """Walk the ABox down to a one-assertion inclusion the hypothesis misses.

    Requires ``(a, concept(ind))`` to be a positive counterexample for the
    hidden target against ``h``; returns ``A [= D`` with the same property.
    """
    concept = normalize(concept)
    if oracle.holds_locally(h, a, ConceptQuery(concept, ind)):
        raise ContractViolationError("input is not a counterexample for the hypothesis")
    while True:
        failing: Exists | None = None
        for ex in top_existentials(concept):
            if not oracle.holds_locally(h, a, ConceptQuery(ex, ind)):
                failing = ex
                break
        if failing is None:
            raise ContractViolationError(
                "no failing existential conjunct; atomic phase incomplete?"
            )
        for role, x, y in sorted(a.role_assertions):
            if x != ind or not reasoner.entails_ri(h, role, failing.role):
                continue
            q = ConceptQuery(failing.filler, y)
            if oracle.membership(a, q) and not oracle.holds_locally(h, a, q):
                break
        else:
            break  # no successor takes the filler: one assertion explains it
        # the filler is a strict subconcept, so the walk ends
        concept, ind = failing.filler, y
    for name, c in sorted(a.concept_assertions, key=lambda p: (p[1] != ind, p)):
        singleton = ABox(frozenset({(name, c)}), frozenset(), frozenset())
        if not oracle.membership(singleton, ConceptQuery(failing, c)):
            continue
        if oracle.holds_locally(h, singleton, ConceptQuery(failing, c)):
            continue
        return CI(Atom(name), failing)
    raise ContractViolationError("no singleton assertion explains the counterexample")


# ---------------------------------------------------------------------------
# The four reductions
# ---------------------------------------------------------------------------


def _positive(oracle: CachedOracle, lhs: str, c: Concept) -> bool:
    single = ABox(frozenset({(lhs, "e0")}), frozenset(), frozenset())
    return oracle.membership(single, ConceptQuery(c, "e0"))


def _preorder(tree: Tree, path: tuple[int, ...] = ()):
    """``(path, node)`` for every node in preorder; a path lists child positions."""
    yield path, tree
    for i, (_, child) in enumerate(tree.children):
        yield from _preorder(child, path + (i,))


def _at(tree: Tree, path: tuple[int, ...]) -> Tree:
    for i in path:
        tree = tree.children[i][1]
    return tree


def _replace(tree: Tree, path: tuple[int, ...], node: Tree) -> Tree:
    """``tree`` with ``node`` in place of its node at ``path``."""
    if not path:
        return node
    kids = list(tree.children)
    roles, child = kids[path[0]]
    kids[path[0]] = (roles, _replace(child, path[1:], node))
    return Tree(tree.labels, tuple(kids))


def concept_saturate(oracle: CachedOracle, lhs: str, c: Concept) -> Concept:
    """Largest label extension that keeps ``lhs [= c`` target-entailed."""
    sig = oracle.framework.signature
    tree = Tree.of_concept(c)
    # a node's subtree is untouched until the preorder reaches it
    for path, node in _preorder(tree):
        for name in sorted(sig.concept_names):
            if name in node.labels:
                continue
            grown = Tree(node.labels | {name}, node.children)
            cand = _replace(tree, path, grown)
            if _positive(oracle, lhs, cand.concept()):
                tree, node = cand, grown
    return tree.concept()


def role_saturate(oracle: CachedOracle, classes: RoleClasses, lhs: str, c: Concept) -> Concept:
    """Swap each edge's role for a strict subrole while positive, edges in preorder."""
    tree = Tree.of_concept(c)
    for path, _ in list(_preorder(tree))[1:]:
        up, i = path[:-1], path[-1]
        changed = True
        while changed:
            changed = False
            parent = _at(tree, up)
            (current,), child = parent.children[i]
            for cand in classes.strict_subroles(current):
                kids = list(parent.children)
                kids[i] = (frozenset({cand}), child)
                swapped = _replace(tree, up, Tree(parent.labels, tuple(kids)))
                if _positive(oracle, lhs, swapped.concept()):
                    tree = swapped
                    changed = True
                    break
    return tree.concept()


def _merges(tree: Tree):
    """``tree`` with two equal-role children of one node merged, in the order tried."""
    for path, node in _preorder(tree):
        kids = node.children
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                (role, first), (other, second) = kids[i], kids[j]
                if role != other:
                    continue
                merged = list(kids)
                both = Tree(first.labels | second.labels, first.children + second.children)
                merged[i] = (role, both)
                del merged[j]
                yield _replace(tree, path, Tree(node.labels, tuple(merged)))


def sibling_merge(oracle: CachedOracle, lhs: str, c: Concept) -> Concept:
    tree = Tree.of_concept(c)
    while True:
        for cand in _merges(tree):
            if _positive(oracle, lhs, cand.concept()):
                tree = cand
                break
        else:
            return tree.concept()


def decompose_right(
    oracle: CachedOracle,
    h: TBox,
    equivalent_names,
    lhs: str,
    c: Concept,
) -> tuple[str, Concept] | None:
    """One decomposition step, or None when none applies."""
    tree = Tree.of_concept(c)
    for path, node in _preorder(tree):
        for name in sorted(node.labels):
            if not path and equivalent_names(name, lhs):
                continue
            for i, ((role,), child) in enumerate(node.children):
                sub = Exists(role, child.concept())
                if not _positive(oracle, name, sub):
                    continue
                single = ABox(frozenset({(name, "e0")}), frozenset(), frozenset())
                if not oracle.holds_locally(h, single, ConceptQuery(sub, "e0")):
                    return name, normalize(sub)
                # the child is named by its position: equal siblings are equal values
                kids = node.children[:i] + node.children[i + 1 :]
                return lhs, _replace(tree, path, Tree(node.labels, kids)).concept()
    return None


def reduce_ci(
    oracle: CachedOracle,
    h: TBox,
    classes: RoleClasses,
    equivalent_names,
    lhs: str,
    rhs: Concept,
) -> CI:
    """Apply the four reductions to a fixpoint."""
    rhs = classes.rewrite(normalize(rhs))
    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise BudgetExceededError("reduction loop exceeded its budget")
        rhs = concept_saturate(oracle, lhs, rhs)
        rhs = role_saturate(oracle, classes, lhs, rhs)
        rhs = sibling_merge(oracle, lhs, rhs)
        step = decompose_right(oracle, h, equivalent_names, lhs, rhs)
        if step is None:
            return CI(Atom(lhs), rhs)
        lhs, rhs = step


def merge_reduced(oracle: CachedOracle, lhs: str, c1: Concept, c2: Concept) -> Concept:
    """Combine two reduced right-hand sides for the same name.

    The conjunction is concept-saturated and sibling-merged only; both steps
    keep the result subsumed by ``c1 and c2`` under the empty TBox, which the
    replacement argument needs, and the other two reductions are already
    immovable on merged input.
    """
    combined = normalize(conj(c1, c2))
    combined = concept_saturate(oracle, lhs, combined)
    combined = sibling_merge(oracle, lhs, combined)
    if not (
        reasoner.entails_ci(TBox(), combined, c1) and reasoner.entails_ci(TBox(), combined, c2)
    ):
        raise ContractViolationError("combined inclusion lost one of its parts")
    return combined


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def name_order(atomic_cis: set[CI]) -> reasoner.Closure:
    """The learned order of concept names: each name -> every name it entails."""
    return reasoner.closure(
        (ci.lhs.name, ci.rhs.name) for ci in atomic_cis if isinstance(ci.rhs, Atom)
    )


def _atomic_equivalence(atomic_cis: set[CI]) -> Callable[[str, str], bool]:
    up = name_order(atomic_cis)
    return lambda a, b: b in up[a] and a in up[b]


def iq_step(
    oracle: CachedOracle,
    h: TBox,
    classes: RoleClasses,
    equivalent_names,
    a: ABox,
    concept: Concept,
    ind: str,
) -> TBox:
    """Process one instance-query counterexample into the hypothesis."""
    sig = oracle.framework.signature
    saturated = saturate_with_hypothesis(h, a, sig, oracle.cache)
    concept = classes.rewrite(normalize(concept))
    seed = reduce_counterexample(oracle, saturated, concept, ind, h)
    ci = reduce_ci(oracle, h, classes, equivalent_names, seed.lhs.name, seed.rhs)

    # ``h`` comes from ``terminology``: a name with a complex right side has
    # no other inclusion, else its right sides are all names
    same = {p for p in h.cis if isinstance(p.lhs, Atom) and p.lhs.name == ci.lhs.name}
    if not same:
        return terminology(h.cis | {ci}, h.ris)
    old_rhs = classes.rewrite(normalize(conj(*(p.rhs for p in same))))
    old = reduce_ci(oracle, h, classes, equivalent_names, ci.lhs.name, old_rhs)
    if old.lhs.name != ci.lhs.name:
        raise ContractViolationError("reduction moved an inclusion to another name")
    combined = merge_reduced(oracle, ci.lhs.name, old.rhs, ci.rhs)
    if Tree.of_concept(combined).node_count() <= Tree.of_concept(old.rhs).node_count():
        raise ContractViolationError("replacement did not grow the right-hand tree")
    return terminology((h.cis - same) | {CI(ci.lhs, combined)}, h.ris)


@dataclass(slots=True)
class Run:
    """What the prologue learned, shared by the loop and its step."""

    oracle: CachedOracle
    result: LearnResult
    atomic_cis: set[CI]
    classes: RoleClasses
    equivalent_names: Callable[[str, str], bool]


def start(session, on_tree=None) -> tuple[Run, TBox]:
    """Bootstrap, then the membership-only atomic phase; the first records."""
    oracle = CachedOracle(session)
    result = LearnResult(TBox())
    atomic_cis, ris = bootstrap_atomic(oracle)
    classes = role_classes(frozenset(ris), oracle.framework.signature.role_names)
    run = Run(oracle, result, atomic_cis, classes, _atomic_equivalence(atomic_cis))
    h = terminology(atomic_cis, ris)
    _record_iteration(result, oracle, h)
    return run, aq_phase(oracle, h, result, on_tree=on_tree)


def counterexample_loop(run: Run, h: TBox, step) -> LearnResult:
    """Refine ``h`` with ``step(run, h, abox, query)`` until inseparable."""
    oracle, result = run.oracle, run.result
    result.hypothesis = refine(
        oracle, result, h, oracle.inseparability, functools.partial(step, run), BUDGET_DEGREE_IQ
    )
    return result


def concept_query(q: Query) -> ConceptQuery:
    """An atomic counterexample read as the instance query it is."""
    if isinstance(q, AtomicQuery) and len(q.args) == 1:
        return ConceptQuery(Atom(q.pred), q.args[0])
    if not isinstance(q, ConceptQuery):
        raise StructuralError(f"unexpected counterexample {q!r}")
    return q


def instance_step(run: Run, h: TBox, a: ABox, q: Query) -> TBox:
    q = concept_query(q)
    return iq_step(run.oracle, h, run.classes, run.equivalent_names, a, q.concept, q.ind)


def learn_iq(session) -> LearnResult:
    """Hypothesis inseparable from the target on all instance queries."""
    return counterexample_loop(*start(session), instance_step)
