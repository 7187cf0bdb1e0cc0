"""Probably-approximately-correct layer over the exact learners.

``pac_from_exact`` replaces the i-th inseparability question by
``ceil((1/eps) * (ln(1/delta) + i*ln 2))`` classified draws from the example
oracle; any draw the hypothesis misclassifies doubles as a counterexample.
``true_error`` integrates the disagreement set against a finite-support
distribution.

``shatters`` and the ring hypotheses behind ``elh vc check`` test whether a
hypothesis class realizes every labelling of a set of examples.  The
hidden-chain targets that separate PAC from exact learning are a test
fixture, in ``tests/pac_fixture.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import reasoner, teacher
from .syntax import (
    ABox,
    Atom,
    BudgetExceededError,
    CI,
    Concept,
    ConfigurationError,
    Exists,
    Query,
    TBox,
    TOP,
    abox,
    conj,
    normalize,
    terminology,
)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """Finite-support distribution over fixed-ABox examples."""

    support: tuple[tuple[ABox, Query], ...]
    weights: tuple[float, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.support:
            raise ConfigurationError("distribution needs a non-empty support")
        if len(self.support) != len(self.weights):
            raise ConfigurationError("support and weights must align")
        if any(w < 0 for w in self.weights):
            raise ConfigurationError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ConfigurationError("weights must sum to one")

    def sample(self, rng: random.Random) -> tuple[ABox, Query]:
        return rng.choices(self.support, weights=self.weights, k=1)[0]

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def uniform_distribution(examples, seed: int = 0) -> Distribution:
    examples = tuple(examples)
    n = len(examples)
    if n == 0:
        raise ConfigurationError("distribution needs a non-empty support")
    return Distribution(examples, tuple(1.0 / n for _ in range(n)), seed)


def sample_count(eps: float, delta: float, i: int) -> int:
    """Draws replacing the i-th inseparability question (at least one)."""
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ConfigurationError("eps and delta must lie in (0, 1)")
    return max(1, math.ceil((1.0 / eps) * (math.log(1.0 / delta) + i * math.log(2.0))))


def true_error(h: TBox, t: TBox, a0: ABox, dist: Distribution) -> float:
    """Probability mass of the examples the two TBoxes classify differently."""
    cache = reasoner.ModelCache()
    total = 0.0
    for (a, q), w in zip(dist.support, dist.weights):
        if reasoner.answers_query(h, a, q, cache) != reasoner.answers_query(t, a, q, cache):
            total += w
    return total


@dataclass
class PacOutcome:
    hypothesis: TBox
    schedule: list[int]
    samples_used: int
    eq_rounds: int


class SampledEqOracle:
    """Session wrapper: inseparability questions become sampling rounds."""

    def __init__(self, session: teacher.OracleSession, eps: float, delta: float, dist: Distribution):
        self.session = session
        self.eps = eps
        self.delta = delta
        self.dist = dist
        self.round = 0
        self.schedule: list[int] = []
        self.samples_used = 0
        self._cache = reasoner.ModelCache()

    @property
    def framework(self):
        return self.session.framework

    @property
    def mq_count(self):
        return self.session.mq_count

    @property
    def eq_count(self):
        return self.session.eq_count

    @property
    def mq_input_size_sum(self):
        return self.session.mq_input_size_sum

    @property
    def eq_input_size_sum(self):
        return self.session.eq_input_size_sum

    @property
    def largest_counterexample(self):
        return self.session.largest_counterexample

    def membership(self, a: ABox, q: Query) -> bool:
        return self.session.membership(a, q)

    def inseparability(self, hypothesis: TBox):
        self.round += 1
        m = sample_count(self.eps, self.delta, self.round)
        self.schedule.append(m)
        for _ in range(m):
            (a, q), label = self.session.example(self.dist)
            self.samples_used += 1
            predicted = reasoner.answers_query(hypothesis, a, q, self._cache)
            if predicted != bool(label):
                return a, q
        return None


def pac_from_exact(
    session: teacher.OracleSession,
    learner,
    eps: float,
    delta: float,
    dist: Distribution,
) -> PacOutcome:
    """Run an exact learner with sampled inseparability answers."""
    wrapped = SampledEqOracle(session, eps, delta, dist)
    result = learner(wrapped)
    return PacOutcome(result.hypothesis, wrapped.schedule, wrapped.samples_used, wrapped.round)


# ---------------------------------------------------------------------------
# Shattering
# ---------------------------------------------------------------------------

SHATTER_BUDGET = 200_000  # evaluations ``shatters`` spends at most by default


def shattering_exceeds_budget(n: int) -> bool:
    """Does shattering ``n`` examples surely cost more than ``SHATTER_BUDGET``?

    Each of the ``2**n`` classifications needs a hypothesis of its own,
    evaluated on all ``n`` examples: at least ``n * 2**n`` evaluations.  Once
    ``n`` reaches the bit length of the budget, ``2**n`` alone exceeds it, so
    the bound is decided without forming ``2**n`` for large ``n``.
    """
    return n > 0 and (n >= SHATTER_BUDGET.bit_length() or n << n > SHATTER_BUDGET)


def shatters(hypotheses, examples, budget: int = SHATTER_BUDGET) -> bool:
    """Do the hypotheses realize every classification of the examples?"""
    examples = list(examples)
    behaviors: set[tuple[bool, ...]] = set()
    cache = reasoner.ModelCache()
    spent = 0
    for h in hypotheses:
        row = []
        for a, q in examples:
            spent += 1
            if spent > budget:
                raise BudgetExceededError(
                    f"shattering check stopped after {budget} evaluations; "
                    f"saw {len(behaviors)} of {2 ** len(examples)} behaviours"
                )
            row.append(reasoner.answers_query(h, a, q, cache))
        behaviors.add(tuple(row))
        if len(behaviors) == 2 ** len(examples):
            return True
    return len(behaviors) == 2 ** len(examples)


def cyclic_abox(n: int) -> ABox:
    """Ring of r-edges with self s-loops everywhere except the last node."""
    if n < 2:
        raise ConfigurationError("the ring needs at least two individuals")
    roles = [("r", f"a{i}", f"a{i + 1}") for i in range(1, n)]
    roles += [("s", f"a{i}", f"a{i}") for i in range(1, n)]
    roles.append(("r", f"a{n}", "a1"))
    return abox(roles=roles)


def ring_identifying_concept(n: int, i: int) -> Concept:
    """Concept every ring individual except ``a_i`` satisfies."""
    c: Concept = Exists("s", TOP)
    for _ in range(n - i):
        c = Exists("r", c)
    return c


def ring_hypotheses(n: int) -> list[TBox]:
    """One hypothesis per subset of ring nodes, built to shatter them.

    The conjunction of all identifying concepts but the j-th is satisfied by
    exactly the j-th node, so a union of such inclusions marks any chosen
    subset with ``A`` (the empty subset gets the all-out conjunction).
    """
    concepts = [ring_identifying_concept(n, i) for i in range(1, n + 1)]
    exactly = [
        normalize(conj(*(c for i, c in enumerate(concepts) if i != j)))
        for j in range(n)
    ]
    out = []
    for mask in range(2 ** n):
        if mask == 0:
            cis = {CI(normalize(conj(*concepts)), Atom("A"))}
        else:
            cis = {CI(exactly[j], Atom("A")) for j in range(n) if mask & (1 << j)}
        out.append(terminology(cis))
    return out
