"""Probably-approximately-correct layer over the exact learners.

``pac_from_exact`` replaces the i-th inseparability question by
``ceil((1/eps) * (ln(1/delta) + i*ln 2))`` classified draws from the example
oracle; any draw the hypothesis misclassifies doubles as a counterexample.
``true_error`` integrates the disagreement set against a finite-support
distribution.

``ring_shattered`` decides for ``elh vc check`` whether the ring hypotheses
realize every labelling of the ring's individuals, from one model of the
ring.  The hidden-chain targets that separate PAC from exact learning are a
test fixture, in ``tests/pac_fixture.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import reasoner, teacher
from .syntax import (
    ABox,
    Concept,
    ConceptQuery,
    ConfigurationError,
    Exists,
    Query,
    TBox,
    TOP,
    abox,
    conj,
    normalize,
)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Distribution:
    """Finite-support distribution over fixed-ABox examples."""

    support: tuple[tuple[ABox, Query], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise ConfigurationError("distribution needs a non-empty support")
        if len(self.support) != len(self.weights):
            raise ConfigurationError("support and weights must align")
        # a NaN weight compares false both ways, so check it is finite first
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise ConfigurationError("weights must be finite and nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ConfigurationError("weights must sum to one")

    def sample(self, rng: random.Random) -> tuple[ABox, Query]:
        return rng.choices(self.support, weights=self.weights, k=1)[0]


def uniform_distribution(examples, seed: int = 0) -> Distribution:
    examples = tuple(examples)
    n = len(examples)
    return Distribution(examples, tuple(1.0 / n for _ in range(n)))


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


@dataclass(slots=True)
class PacOutcome:
    hypothesis: TBox
    schedule: list[int]
    samples_used: int
    eq_rounds: int


class SampledEqOracle:
    """Session wrapper: inseparability questions become sampling rounds.

    Everything else (the framework, membership, the counters the learners
    read) is the wrapped session's own.
    """

    def __init__(self, session: teacher.OracleSession, eps: float, delta: float, dist: Distribution):
        self.session = session
        self.eps = eps
        self.delta = delta
        self.dist = dist
        self.round = 0
        self.schedule: list[int] = []
        self.samples_used = 0
        self._cache = reasoner.ModelCache()

    def __getattr__(self, name: str):
        return getattr(self.session, name)

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

SHATTER_BUDGET = 200_000  # behaviour labels ``ring_shattered`` lists at most


def shattering_exceeds_budget(n: int) -> bool:
    """Does shattering ``n`` examples surely cost more than ``SHATTER_BUDGET``?

    Each of the ``2**n`` classifications needs a hypothesis of its own, whose
    behaviour labels all ``n`` examples: ``n * 2**n`` labels.  Once ``n``
    reaches the bit length of the budget, ``2**n`` alone exceeds it, so the
    bound is decided without forming ``2**n`` for large ``n``.
    """
    return n > 0 and (n >= SHATTER_BUDGET.bit_length() or n << n > SHATTER_BUDGET)


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


def ring_shattered(ring: ABox, n: int) -> bool:
    """Do the ring hypotheses realize every labelling of ``a1 … an`` in ``ring``?

    There is one hypothesis per subset of the nodes: the inclusions
    ``C_j [= A`` for each chosen ``j``, where ``C_j`` conjoins every
    identifying concept but the j-th, and the empty subset gets the
    conjunction of all of them.  ``A`` is on no left side and no ``C_j``
    mentions a concept name, so ``A`` holds at ``a_i`` under a hypothesis
    exactly when one of its ``C_j`` holds at ``a_i`` in the ring itself, over
    the empty TBox.  One model of the ring gives each ``C_j``'s column, and a
    hypothesis's behaviour is the union of its columns.
    """
    concepts = [ring_identifying_concept(n, i) for i in range(1, n + 1)]
    cache = reasoner.ModelCache()

    def column(c: Concept) -> int:
        return sum(
            1 << i
            for i in range(n)
            if reasoner.answers_query(TBox(), ring, ConceptQuery(c, f"a{i + 1}"), cache)
        )

    columns = [
        column(normalize(conj(*(c for i, c in enumerate(concepts) if i != j))))
        for j in range(n)
    ]
    behaviours = [column(normalize(conj(*concepts)))]
    for mask in range(1, 2**n):
        low = mask & -mask
        rest = behaviours[mask ^ low] if mask != low else 0
        behaviours.append(rest | columns[low.bit_length() - 1])
    return len(set(behaviours)) == 2**n
