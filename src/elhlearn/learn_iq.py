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

Reduced inclusions for the same left-hand name are combined by conjoining
the right-hand trees and re-reducing, which keeps the per-name inclusion
unique and strictly grows its tree, so the loop terminates.

Role names are collapsed to one representative per learned equivalence
class before any of this runs; learned inclusions use representatives and
the final hypothesis carries the full set of learned role inclusions.

Every learner past the atomic phase runs the one counterexample loop written
here.  ``start`` runs the prologue once (bootstrap, role classes, name
equivalence, the membership-only atomic phase); ``counterexample_loop`` checks
the budget, asks for a counterexample, hands it to its one hook ``step`` and
records the iteration, until the hypothesis is inseparable.  The instance
step reads an atomic counterexample as a concept query and calls ``iq_step``;
``learn_cqr``, ``updates`` and ``batch`` bring their own steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import reasoner
from .learn_aq import (
    BUDGET_DEGREE_IQ,
    CachedOracle,
    LearnResult,
    aq_phase,
    bootstrap_atomic,
    check_budget,
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
    Top,
    conj,
    normalize,
    size_of,
    terminology,
    top_existentials,
    tree_of_concept,
)

MAX_ITERATIONS = 10_000


# ---------------------------------------------------------------------------
# Mutable working tree for the reductions
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Role representatives
# ---------------------------------------------------------------------------


@dataclass
class RoleClasses:
    """Equivalence classes of roles under the learned inclusions."""

    representative: dict[str, str]
    ris: frozenset[RI]

    def rep(self, role: str) -> str:
        return self.representative.get(role, role)

    def strict_subroles(self, role: str) -> list[str]:
        """Representative roles strictly below ``role``."""
        t = TBox(frozenset(), self.ris)
        out = []
        for s in sorted(set(self.representative.values())):
            if s != self.rep(role) and reasoner.entails_ri(t, s, self.rep(role)):
                out.append(s)
        return out

    def rewrite(self, c: Concept) -> Concept:
        if isinstance(c, Exists):
            return Exists(self.rep(c.role), self.rewrite(c.filler))
        if isinstance(c, And):
            return normalize(conj(*(self.rewrite(a) for a in c.args)))
        return c


def role_classes(ris: frozenset[RI], roles: frozenset[str]) -> RoleClasses:
    t = TBox(frozenset(), ris)
    rep: dict[str, str] = {}
    for r in sorted(roles):
        cls = sorted(
            s for s in roles if reasoner.entails_ri(t, r, s) and reasoner.entails_ri(t, s, r)
        )
        rep[r] = cls[0]
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
    depth_left = size_of(concept) + 1
    return _reduce(oracle, a, concept, ind, h, depth_left)


def _reduce(oracle, a: ABox, concept: Concept, ind: str, h: TBox, depth_left: int) -> CI:
    if depth_left <= 0:
        raise BudgetExceededError("counterexample reduction recursed too deep")
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
        if oracle.membership(a, ConceptQuery(failing.filler, y)):
            if not oracle.holds_locally(h, a, ConceptQuery(failing.filler, y)):
                return _reduce(oracle, a, failing.filler, y, h, depth_left - 1)
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


def reduce_ci(
    oracle: CachedOracle,
    h: TBox,
    classes: RoleClasses,
    equivalent_names,
    lhs: str,
    rhs: Concept,
    max_rounds: int = 10_000,
) -> CI:
    """Apply the four reductions to a fixpoint."""
    rhs = classes.rewrite(normalize(rhs))
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise BudgetExceededError("reduction loop exceeded its budget")
        rhs = concept_saturate(oracle, lhs, rhs)
        rhs = role_saturate(oracle, classes, lhs, rhs)
        rhs = sibling_merge(oracle, lhs, rhs)
        step = decompose_right(oracle, h, equivalent_names, lhs, rhs)
        if step is None:
            return CI(Atom(lhs), rhs)
        lhs, rhs = step


def merge_reduced(
    oracle: CachedOracle,
    h: TBox,
    classes: RoleClasses,
    equivalent_names,
    lhs: str,
    c1: Concept,
    c2: Concept,
) -> Concept:
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


def _atomic_equivalence(atomic_cis: set[CI]):
    pairs = {(ci.lhs.name, ci.rhs.name) for ci in atomic_cis if isinstance(ci.rhs, Atom)}

    def equivalent(a: str, b: str) -> bool:
        return a == b or ((a, b) in pairs and (b, a) in pairs)

    return equivalent


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

    existing = None
    for prev in h.cis:
        if isinstance(prev.lhs, Atom) and prev.lhs.name == ci.lhs.name and not isinstance(
            prev.rhs, (Atom, Top)
        ):
            existing = prev
            break
    if existing is None:
        atomics = [
            prev
            for prev in h.cis
            if isinstance(prev.lhs, Atom)
            and prev.lhs.name == ci.lhs.name
            and isinstance(prev.rhs, (Atom, Top))
        ]
        if atomics:
            existing = CI(ci.lhs, normalize(conj(*(p.rhs for p in atomics))))
    if existing is not None:
        old_rhs = classes.rewrite(normalize(existing.rhs))
        old = reduce_ci(oracle, h, classes, equivalent_names, ci.lhs.name, old_rhs)
        if old.lhs.name != ci.lhs.name:
            raise ContractViolationError("reduction moved an inclusion to another name")
        combined = merge_reduced(
            oracle, h, classes, equivalent_names, ci.lhs.name, old.rhs, ci.rhs
        )
        if tree_node_count(combined) <= tree_node_count(old.rhs):
            raise ContractViolationError("replacement did not grow the right-hand tree")
        new_cis = {
            prev
            for prev in h.cis
            if not (isinstance(prev.lhs, Atom) and prev.lhs.name == ci.lhs.name)
        }
        new_cis.add(CI(ci.lhs, combined))
    else:
        new_cis = set(h.cis) | {ci}
    return terminology(new_cis, h.ris)


@dataclass
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
    return run, aq_phase(oracle, h, result, use_eq=False, on_tree=on_tree)


def counterexample_loop(run: Run, h: TBox, step) -> LearnResult:
    """Refine ``h`` with ``step(run, h, abox, query)`` until inseparable."""
    oracle, result = run.oracle, run.result
    iterations = 0
    while True:
        check_budget(oracle, h, BUDGET_DEGREE_IQ)
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise BudgetExceededError("counterexample loop exceeded its budget", partial=h)
        hit = oracle.inseparability(h)
        if hit is None:
            result.hypothesis = h
            return result
        h = step(run, h, *hit)
        _record_iteration(result, oracle, h)


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
