"""The hidden-chain fixture that separates PAC from exact learning.

A hidden word w over {r, s} of length n defines a target whose one
informative query is the w-shaped chain ending in a marker name, next to a
decoy tree that makes every other query useless.  A sample-consistent
hypothesis is computable in polynomial time (``fixture_pac_learner``), while
exact identification of w against an adversarial oracle needs one query per
still-possible word (``identify_word_adversarially``).  Acceptance
criterion 10 and ``tests/test_pac.py`` use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from elhlearn import reasoner
from elhlearn.syntax import (
    ABox,
    Atom,
    CI,
    Concept,
    ConceptAtom,
    ConceptQuery,
    ConfigurationError,
    ConjunctiveQuery,
    ElhError,
    Exists,
    Query,
    TBox,
    Var,
    abox,
    conj,
    terminology,
)

MARKER = "M"
SEED_NAME = "A"
LEVEL_PREFIX = "X"
CHAIN_ROLES = ("r", "s")


class DataError(ElhError):
    """Inconsistent classified data."""


def chain_concept(word: str, tail: Concept) -> Concept:
    out = tail
    for ch in reversed(word):
        if ch not in CHAIN_ROLES:
            raise ConfigurationError(f"chain letters must be in {CHAIN_ROLES}")
        out = Exists(ch, out)
    return out


@dataclass(frozen=True)
class HiddenChainFixture:
    """Targets ``{A [= some w. M} + base`` for a hidden word w of length n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("chain length must be at least 1")

    def words(self) -> list[str]:
        out = [""]
        for _ in range(self.n):
            out = [w + c for w in out for c in CHAIN_ROLES]
        return out

    def base_tbox(self) -> TBox:
        cis = [
            CI(Atom(SEED_NAME), Atom(f"{LEVEL_PREFIX}0")),
            CI(
                Atom(MARKER),
                conj(Exists("r", Atom(MARKER)), Exists("s", Atom(MARKER))),
            ),
        ]
        for i in range(self.n):
            nxt = Atom(f"{LEVEL_PREFIX}{i + 1}")
            cis.append(CI(Atom(f"{LEVEL_PREFIX}{i}"), conj(Exists("r", nxt), Exists("s", nxt))))
        return terminology(cis)

    def target(self, word: str) -> TBox:
        if len(word) != self.n:
            raise ConfigurationError("hidden word must have length n")
        base = self.base_tbox()
        return terminology(
            set(base.cis) | {CI(Atom(SEED_NAME), chain_concept(word, Atom(MARKER)))},
            base.ris,
        )

    def fixed_abox(self) -> ABox:
        return abox(concepts=[(SEED_NAME, "a")])

    def marker_query(self) -> ConjunctiveQuery:
        return ConjunctiveQuery(
            (), frozenset({Var("x")}), frozenset({ConceptAtom(MARKER, Var("x"))})
        )

    def word_query(self, word: str) -> ConceptQuery:
        return ConceptQuery(chain_concept(word, Atom(MARKER)), "a")

    def canonical_support(self, extra_words: int = 0, seed: int = 0):
        """The marker query plus every word query (or a seeded subset)."""
        words = self.words()
        if extra_words and extra_words < len(words):
            rng = random.Random(seed)
            words = sorted(rng.sample(words, extra_words))
        examples = [(self.fixed_abox(), self.marker_query())]
        examples += [(self.fixed_abox(), self.word_query(w)) for w in words]
        return examples


def classify_fixture_example(n: int, word: str, q: Query) -> bool:
    """Label of a support example under the target for ``word`` (no reasoner)."""
    if isinstance(q, ConjunctiveQuery):
        return True  # the marker is always reachable through the hidden chain
    if isinstance(q, ConceptQuery):
        w = _word_of_chain(q.concept)
        if w is not None:
            return len(w) >= n and w[:n] == word
    raise ConfigurationError("not a fixture example")


def _word_of_chain(c: Concept) -> str | None:
    out = []
    while isinstance(c, Exists) and c.role in CHAIN_ROLES:
        out.append(c.role)
        c = c.filler
    if isinstance(c, Atom) and c.name == MARKER:
        return "".join(out)
    return None


def fixture_pac_learner(sample, n: int) -> tuple[TBox, int]:
    """Hypothesis consistent with a classified fixture sample, plus step count.

    A positive chain example pins the hidden word.  A positive marker example
    alone still rules out the bare base (which cannot reach the marker), so
    the learner then commits to the first word no sampled negative excludes;
    a genuine sample never excludes the true word.  Steps count elementary
    operations so growth in n is measurable without timing noise.
    """
    fixture = HiddenChainFixture(n)
    h = fixture.base_tbox()
    steps = len(h.cis)
    word: str | None = None
    marker_positive = False
    excluded: set[str] = set()
    for (a, q), label in sample:
        steps += 1
        if isinstance(q, ConjunctiveQuery) and label:
            marker_positive = True
            continue
        if isinstance(q, ConceptQuery):
            w = _word_of_chain(q.concept)
            if w is None or len(w) < n:
                continue
            if label:
                if word is not None and word != w[:n]:
                    raise DataError("two distinct positive chain words")
                word = w[:n]
            else:
                excluded.add(w[:n])
    if word is None and marker_positive:
        for w in fixture.words():
            steps += 1
            if w not in excluded:
                word = w
                break
        if word is None:
            raise DataError("every chain word is excluded by a negative example")
    if word is not None:
        h = fixture.target(word)
        steps += n
    cache = reasoner.ModelCache()
    for (a, q), label in sample:
        steps += 1
        if reasoner.answers_query(h, a, q, cache) != bool(label):
            raise DataError("no consistent hypothesis for this sample")
    return h, steps


@dataclass
class AdversarialOutcome:
    word: str
    queries: int


def identify_word_adversarially(n: int) -> AdversarialOutcome:
    """Exact identification against the least-informative oracle.

    The oracle keeps the set of words consistent with its answers and denies
    every probe while more than one candidate remains, so probing the words
    in order spends one query per eliminated word.
    """
    candidates = HiddenChainFixture(n).words()
    queries = 0
    remaining = list(candidates)
    for w in candidates:
        if len(remaining) == 1:
            break
        queries += 1
        remaining.remove(w)  # oracle answers "no" and stays consistent
    return AdversarialOutcome(remaining[0], queries)
