"""Learning all atomic-query consequences of a hidden terminology.

``refine`` is the one counterexample loop of every learner: it checks the
budget, asks its finder for a counterexample, hands it to its step and
records the iteration, until the finder finds none.  It has two finders.
The atomic phase here, ``aq_phase``, finds atomic counterexamples over the
fixed ABox with membership questions alone; ``learn_iq.counterexample_loop``
asks the inseparability (equivalence) oracle.  The atomic step shapes the
ABox into a tree by alternating minimization with cycle unfolding, reads the
tree off as a concept ``C`` (``Tree.of_abox``) and adds ``C [= B`` to the
hypothesis.  Every addition is a consequence of the target, so the
hypothesis is positive bounded throughout.

``find_cycle`` finds the shortest undirected cycle of role assertions and
returns two things: the assertion to open, one the cycle walks forwards, and
the set of the cycle's individuals.  ``unfold_cycle`` doubles that cycle: it
drops the opened assertion ``r(a0, a1)``, copies the cycle's individuals
(copies keep their labels, their edges to each other and their edges out of
the cycle) and closes the two halves with ``r(a0, a1_hat)`` and
``r(a0_hat, a1)`` into a cycle of twice the length.

One witness ``(conceptName, individual)`` drives the shaping of each
counterexample: the first pair the target entails on the ABox and the
hypothesis does not.  Saturating with the (sound) hypothesis keeps it, and
unfolding keeps it at the original individual, so it is found once and
handed to every round.  Minimization makes one pass over the individuals,
copies before originals, and one over the role assertions, deleting each
while the membership oracle still confirms the witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import reasoner
from .syntax import (
    ABox,
    Atom,
    AtomicQuery,
    BudgetExceededError,
    CI,
    Query,
    RI,
    Signature,
    StructuralError,
    TBox,
    Tree,
    size_of,
    terminology,
)

# monitored budget: total oracle input size must stay under
# COEFF * (|target hypothesis bound| + |fixed abox| + largest counterexample)^DEGREE,
# checked by the counterexample loop with one degree for each of its finders:
# membership questions in the atomic phase, the inseparability oracle after it
BUDGET_DEGREE_AQ = 3
BUDGET_DEGREE_IQ = 4
BUDGET_COEFF = 300
# rounds of tree shaping, of the reduction loop of ``learn_iq``, of
# ``updates.generalise`` on one inclusion and of the counterexample loop (the
# atomic phase and the inseparability rounds alike), before any of them gives up
MAX_ROUNDS = 10_000


@dataclass(slots=True)
class IterationStat:
    mq_count: int
    eq_count: int
    input_size_total: int
    hypothesis_size: int


@dataclass(slots=True)
class LearnResult:
    hypothesis: TBox
    iterations: list[IterationStat] = field(default_factory=list)
    conversions: int = 0

    def iteration_count(self) -> int:
        return len(self.iterations)


class CachedOracle:
    """Memoizing front for a session: repeat questions cost nothing."""

    def __init__(self, session):
        self.session = session
        # keyed on the ABox and query values
        self._mq: dict[tuple[ABox, Query], bool] = {}
        # this session's store of models of the learner's own TBoxes
        self.cache = session.hypothesis_models

    @property
    def framework(self):
        return self.session.framework

    def membership(self, a: ABox, q: Query) -> bool:
        key = (a, q)
        hit = self._mq.get(key)
        if hit is None:
            hit = self._mq[key] = self.session.membership(a, q)
        return hit

    def inseparability(self, hypothesis: TBox):
        return self.session.inseparability(hypothesis)

    def holds_locally(self, h: TBox, a: ABox, q: Query) -> bool:
        return reasoner.answers_query(h, a, q, self.cache)


def bootstrap_atomic(oracle: CachedOracle) -> tuple[set[CI], set[RI]]:
    """All name-to-name inclusions the target entails, found with memberships."""
    sig = oracle.framework.signature
    cis: set[CI] = set()
    ris: set[RI] = set()
    for a in sorted(sig.concept_names):
        ab = ABox(frozenset({(a, "p0")}))
        for b in sorted(sig.concept_names):
            if a == b:
                continue
            if oracle.membership(ab, AtomicQuery(b, ("p0",))):
                cis.add(CI(Atom(a), Atom(b)))
    for r in sorted(sig.role_names):
        ab = ABox(role_assertions=frozenset({(r, "p0", "p1")}))
        for s in sorted(sig.role_names):
            if r == s:
                continue
            if oracle.membership(ab, AtomicQuery(s, ("p0", "p1"))):
                ris.add(RI(r, s))
    return cis, ris


def _individual_order(a: ABox, originals: frozenset[str]) -> list[str]:
    """Unfolding copies first, original individuals last."""
    inds = sorted(a.individuals())
    return [i for i in inds if i not in originals] + [i for i in inds if i in originals]


def saturate_with_hypothesis(h: TBox, a: ABox, sig: Signature, cache) -> ABox:
    """Add every hypothesis-entailed assertion over the signature and inds."""
    concepts, roles = reasoner._aq_closure(h, a, sig, cache)
    return ABox(a.concept_assertions | concepts, a.role_assertions | roles, a.declared)


def minimize_abox(
    oracle: CachedOracle,
    a: ABox,
    h: TBox,
    originals: frozenset[str],
    witness: tuple[str, str],
) -> ABox:
    """Saturate, then shrink while the witness ``(conceptName, individual)`` holds."""
    a = saturate_with_hypothesis(h, a, oracle.framework.signature, oracle.cache)
    name, ind = witness
    q = AtomicQuery(name, (ind,))

    def keep_witness(smaller: ABox) -> ABox:
        # the witness individual stays alive even if all its assertions go
        return ABox(
            smaller.concept_assertions, smaller.role_assertions, smaller.declared | {ind}
        )

    # one pass each: certain answers are monotone in the ABox, so a removal
    # refused on a larger ABox is refused on every smaller one
    for b in _individual_order(a, originals):
        if b == ind:
            continue
        smaller = keep_witness(a.without_individual(b))
        if oracle.membership(smaller, q):
            a = smaller
    for ra in sorted(a.role_assertions):
        smaller = keep_witness(a.without_role_assertion(ra))
        if oracle.membership(smaller, q):
            a = smaller
    return a


def find_cycle(a: ABox) -> tuple[tuple[str, str, str], frozenset[str]] | None:
    """The assertion to open and the individuals of the shortest cycle, if any.

    Every cycle contains some assertion e, and the shortest one through e is
    the shortest path between e's endpoints that avoids e, closed by e.
    There is none exactly when the assertions form a forest, which one pass
    checks first; a self-loop or a second assertion between the same two
    individuals, in either direction, is a cycle.  A bridge, an assertion on
    no cycle, closes none, so the searches start only from the others.  Of
    the shortest cycles the least path of ``(node, assertion, forward)``
    steps is chosen, and the assertion opened is that of its first forward
    step, or its closing assertion when every step runs backwards.
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

    def shortest_path(src: str, dst: str, banned) -> list | None:
        if src == dst:
            return []
        parent: dict[str, tuple[str, tuple[str, str, str], bool]] = {}
        queue = deque([src])
        seen = {src}
        while queue:
            node = queue.popleft()
            for e, nxt, fwd in adj.get(node, []):
                if e == banned or nxt in seen:
                    continue
                parent[nxt] = (node, e, fwd)
                if nxt == dst:
                    steps = []
                    cur = dst
                    while cur != src:
                        steps.append(parent[cur])
                        cur = parent[cur][0]
                    return steps[::-1]
                seen.add(nxt)
                queue.append(nxt)
        return None

    best: list = []
    bridges = _bridges(adj)
    for e in edges:
        if e in bridges:
            continue
        r, x, y = e
        path = shortest_path(x, y, banned=e)
        if path is None:
            continue
        cand = path + [(y, e, False)] if path else [(x, e, True)]
        if not best or (len(cand), cand) < (len(best), best):
            best = cand
    opened = next((e for _, e, fwd in best if fwd), best[-1][1])
    return opened, frozenset(node for node, _, _ in best)


def _bridges(adj: dict[str, list]) -> set[tuple[str, str, str]]:
    """The assertions on no cycle of the undirected graph ``adj``.

    Tarjan's bridge search, one depth-first pass without recursion: the tree
    assertion into ``node`` is a bridge when nothing below ``node`` reaches
    back above it by another assertion.
    """
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    out: set[tuple[str, str, str]] = set()
    for start in adj:
        if start in order:
            continue
        order[start] = low[start] = len(order)
        stack = [(start, None, iter(adj[start]))]
        while stack:
            node, via, steps = stack[-1]
            for e, nxt, _ in steps:
                if e == via:
                    continue
                if nxt not in order:
                    order[nxt] = low[nxt] = len(order)
                    stack.append((nxt, e, iter(adj[nxt])))
                    break
                low[node] = min(low[node], order[nxt])
            else:
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    low[up] = min(low[up], low[node])
                    if low[node] > order[up]:
                        out.add(via)
    return out


def _is_forest(assertions) -> bool:
    """Do the role assertions, read as undirected edges, form a forest?"""
    root: dict[str, str] = {}  # union-find with path halving

    def find(x: str) -> str:
        while root.get(x, x) != x:
            root[x] = x = root.get(root[x], root[x])
        return x

    for _, x, y in assertions:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        root[rx] = ry
    return True


def unfold_cycle(a: ABox, found: tuple[tuple[str, str, str], frozenset[str]]) -> ABox:
    """Double the cycle ``find_cycle`` found; see the module docstring for the steps."""
    (r1, a0, a1), nodes = found
    existing = a.individuals()

    def copy_name(b: str) -> str:
        cand = f"{b}_hat"
        while cand in existing:
            cand += "x"
        return cand

    hat = {b: copy_name(b) for b in nodes}

    opened = set(a.role_assertions)
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
    # cycle individuals are mentioned, so none is declared and no copy is
    return ABox(frozenset(concepts), frozenset(roles), a.declared)


def tree_shape(oracle: CachedOracle, a: ABox, h: TBox, witness: tuple[str, str]) -> ABox:
    """Alternate minimization and unfolding around ``witness`` until the ABox is a tree."""
    originals = a.individuals()
    a = minimize_abox(oracle, a, h, originals, witness)
    prev_count = len(a.individuals())
    rounds = 0
    while True:
        found = find_cycle(a)
        if found is None:
            return a
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise BudgetExceededError("tree shaping did not terminate in budget")
        a = minimize_abox(oracle, unfold_cycle(a, found), h, originals, witness)
        count = len(a.individuals())
        if count <= prev_count:
            raise StructuralError("individual count must grow between unfold rounds")
        prev_count = count


def check_budget(oracle: CachedOracle, h: TBox, degree: int) -> None:
    """Stop the run once the oracle input outgrows the monitored budget."""
    base = (
        size_of(h)
        + size_of(oracle.framework.fixed_abox)
        + oracle.session.largest_counterexample
        + len(oracle.framework.signature.concept_names)
        + len(oracle.framework.signature.role_names)
        + 8
    )
    limit = BUDGET_COEFF * base**degree
    if _spent(oracle) > limit:
        raise BudgetExceededError(f"query budget {limit} exceeded", partial=h)


def _spent(oracle: CachedOracle) -> int:
    return oracle.session.mq_input_size_sum + oracle.session.eq_input_size_sum


def _record_iteration(result: LearnResult, oracle: CachedOracle, h: TBox) -> None:
    result.iterations.append(
        IterationStat(
            oracle.session.mq_count,
            oracle.session.eq_count,
            _spent(oracle),
            size_of(h),
        )
    )


def _first_positive(oracle: CachedOracle, h: TBox, a: ABox) -> tuple[str, str] | None:
    """First ``(name, ind)`` the target gives ``a`` and ``h`` does not.

    Names and individuals in sorted order; a pair ``h`` already entails
    costs no membership question.
    """
    inds = sorted(a.individuals())
    for name in sorted(oracle.framework.signature.concept_names):
        for ind in inds:
            q = AtomicQuery(name, (ind,))
            if oracle.holds_locally(h, a, q):
                continue
            if oracle.membership(a, q):
                return name, ind
    return None


def tree_inclusion(
    oracle: CachedOracle, h: TBox, a: ABox, witness: tuple[str, str]
) -> tuple[TBox, ABox]:
    """Shape ``a`` into a tree around ``witness`` and add its inclusion.

    ``witness`` is a pair ``(conceptName, individual)`` of ``a`` that the
    target entails and ``h`` does not.  Returns the extended hypothesis and
    the tree-shaped ABox.
    """
    shaped = tree_shape(oracle, a, h, witness)
    name, ind = witness
    concept = Tree.of_abox(shaped, ind).concept()
    return terminology(set(h.cis) | {CI(concept, Atom(name))}, h.ris), shaped


def refine(oracle: CachedOracle, result: LearnResult, h: TBox, find, step, degree: int) -> TBox:
    """Check the budget, ``find(h)`` a counterexample, ``step(h, *hit)``, record; repeat."""
    rounds = 0
    while True:
        check_budget(oracle, h, degree)
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise BudgetExceededError("counterexample loop exceeded its budget", partial=h)
        hit = find(h)
        if hit is None:
            return h
        h = step(h, *hit)
        _record_iteration(result, oracle, h)


def aq_phase(
    oracle: CachedOracle,
    h: TBox,
    result: LearnResult,
    on_tree=None,
) -> TBox:
    """Refine ``h`` with the atomic counterexamples membership questions find."""
    fixed = oracle.framework.fixed_abox

    def step(h: TBox, name: str, ind: str) -> TBox:
        h, shaped = tree_inclusion(oracle, h, fixed, (name, ind))
        if on_tree is not None:
            on_tree(shaped, name, ind)
        if not oracle.holds_locally(h, fixed, AtomicQuery(name, (ind,))):
            raise StructuralError("new inclusion failed to cover its counterexample")
        return h

    return refine(
        oracle, result, h, lambda h: _first_positive(oracle, h, fixed), step, BUDGET_DEGREE_AQ
    )


def learn_aq(session, on_tree=None) -> LearnResult:
    """Atomic-query consequences of the target, from membership questions only."""
    oracle = CachedOracle(session)
    result = LearnResult(TBox())
    cis, ris = bootstrap_atomic(oracle)
    h = terminology(cis, ris)
    _record_iteration(result, oracle, h)
    h = aq_phase(oracle, h, result, on_tree=on_tree)
    result.hypothesis = h
    return result
