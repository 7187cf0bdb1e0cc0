"""Simulated membership / inseparability / example oracles over a hidden target.

An ``OracleSession`` owns the hidden target, the fixed ABox and the query
language, answers queries through the reasoner, and keeps full accounting:
counts, summed input sizes, the largest counterexample handed out, and an
append-only transcript.

Consecutive sessions on one target share two private ``reasoner.ModelCache``
stores, of target and of hypothesis models, at most 512 models each, kept
for the target asked about last until a session on another target starts.
The learner gets ``OracleSession.hypothesis_models``, a fresh store per
session that takes its misses from the private one of hypothesis models.
It holds only the models its own session asked it for, each of a TBox and
ABox the learner passed in, so nothing it could not build itself.  The
stores are memos of the reasoner, so sharing them changes no answer, count
or transcript.  Sessions and stores are not thread-safe; use one thread.

The counterexample policy is pluggable because a learner must work no matter
which separating query the oracle picks:

* ``minimal`` returns the first query in the deterministic gap order,
* ``randomized`` draws from the gap with the session seed,
* ``adversarial-cq`` (rooted-CQ language only) inflates an instance-query
  counterexample into a large variable-duplicated rooted CQ.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass

from . import reasoner
from .syntax import (
    ABox,
    AtomicQuery,
    BudgetExceededError,
    ConceptQuery,
    ConjunctiveQuery,
    ConfigurationError,
    ContractViolationError,
    Query,
    QueryAtom,
    RejectedQueryError,
    RoleAtom,
    RoleQuery,
    ConceptAtom,
    Signature,
    TBox,
    Var,
    Tree,
    check_namespaces,
    is_rooted,
    signature_of_abox,
    signature_of_query,
    signature_of_tbox,
    size_of,
)

POLICY_MINIMAL = "minimal"
POLICY_RANDOMIZED = "randomized"
POLICY_ADVERSARIAL_CQ = "adversarial-cq"


@dataclass(frozen=True, slots=True)
class Framework:
    """Learning setup: fixed ABox, query language, shared signature.

    With ``update_closure`` the inseparability oracle also ranges over ABoxes
    reachable from the fixed one by single linear-derivation replacements.
    """

    fixed_abox: ABox
    query_lang: str
    signature: Signature
    update_closure: bool = False
    closure_cap: int = 200

    def __post_init__(self) -> None:
        if self.query_lang not in (reasoner.LANG_AQ, reasoner.LANG_IQ, reasoner.LANG_CQR):
            raise ConfigurationError(f"unknown query language {self.query_lang!r}")


def framework_for(target: TBox, fixed_abox: ABox, query_lang: str, **kw) -> Framework:
    """The framework of ``target`` over ``fixed_abox``; their names must not clash."""
    return Framework(fixed_abox, query_lang, check_namespaces([target], [fixed_abox]), **kw)


def query_in_language(q: Query, lang: str) -> bool:
    """Does the query belong to the framework's language?

    Atomic assertions are also instance queries, and instance queries are
    rooted CQs.
    """
    if isinstance(q, AtomicQuery):
        return True
    if lang == reasoner.LANG_AQ:
        return False
    if isinstance(q, (ConceptQuery, RoleQuery)):
        return True
    if lang == reasoner.LANG_IQ:
        return False
    return isinstance(q, ConjunctiveQuery) and is_rooted(q)


@dataclass(slots=True)
class TranscriptEntry:
    kind: str
    input_size: int
    answer: str
    mq_total: int
    eq_total: int
    input_size_total: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "inputSize": self.input_size,
            "answer": self.answer,
            "runningTotals": {
                "mq": self.mq_total,
                "eq": self.eq_total,
                "inputSize": self.input_size_total,
            },
        }


# the target asked about last and its two stores, of target models and of
# hypothesis models, reused by the next session on an equal target
_last_target: tuple[TBox | None, tuple[reasoner.ModelCache, ...]] = (None, ())


def _target_cache(target: TBox) -> tuple[reasoner.ModelCache, reasoner.ModelCache]:
    global _last_target
    last, caches = _last_target
    if target != last:
        caches = (reasoner.ModelCache(), reasoner.ModelCache())
        _last_target = (target, caches)
    return caches


class OracleSession:
    """Query interface to a hidden target; the target never leaks.

    Consecutive sessions on one target share the teacher's two private
    model stores, of target and of hypothesis models, which stay until a
    session on another target starts.  ``hypothesis_models`` is the
    learner's store for this session alone, filled from the private store
    of hypothesis models.  Use sessions from one thread.
    """

    def __init__(
        self,
        target: TBox,
        framework: Framework,
        policy: str = POLICY_MINIMAL,
        seed: int = 0,
        max_total_input: int | None = None,
    ):
        if policy not in (POLICY_MINIMAL, POLICY_RANDOMIZED, POLICY_ADVERSARIAL_CQ):
            raise ConfigurationError(f"unknown policy {policy!r}")
        if policy == POLICY_ADVERSARIAL_CQ and framework.query_lang != reasoner.LANG_CQR:
            raise ConfigurationError("adversarial-cq policy needs the rooted-CQ language")
        self._target = target
        self.framework = framework
        self.policy = policy
        self.rng = random.Random(seed)
        self.max_total_input = max_total_input
        self.mq_count = 0
        self.eq_count = 0
        self.ex_count = 0
        self.mq_input_size_sum = 0
        self.eq_input_size_sum = 0
        self.largest_counterexample = 0
        self.transcript: list[TranscriptEntry] = []
        self._cache, self._hypotheses = _target_cache(target)
        self.hypothesis_models = reasoner.ModelCache(backing=self._hypotheses)
        # fixed for the session: the update closure of the fixed ABox, made
        # on first use, and the distributions whose support was checked
        self._closure: list[ABox] | None = None
        self._checked: dict[int, object] = {}

    # -- accounting -------------------------------------------------------

    def _log(self, kind: str, input_size: int, answer: str) -> None:
        self.transcript.append(
            TranscriptEntry(
                kind,
                input_size,
                answer,
                self.mq_count,
                self.eq_count,
                self.mq_input_size_sum + self.eq_input_size_sum,
            )
        )
        if (
            self.max_total_input is not None
            and self.mq_input_size_sum + self.eq_input_size_sum > self.max_total_input
        ):
            raise BudgetExceededError(
                f"oracle input budget {self.max_total_input} exceeded"
            )

    def export_transcript(self) -> str:
        return "\n".join(json.dumps(e.as_dict(), sort_keys=True) for e in self.transcript)

    # -- membership -------------------------------------------------------

    def membership(self, a: ABox, q: Query) -> bool:
        allowed = self.framework.signature
        # an atomic query whose one name is in the signature, of its kind, passes at once
        if type(q) is not AtomicQuery or q.pred not in (
            allowed.concept_names if len(q.args) == 1 else allowed.role_names
        ):
            sig = signature_of_query(q)
            # the ABox's own names are allowed too; most queries need none of them
            if not allowed.covers(sig) and not allowed.union(signature_of_abox(a)).covers(sig):
                raise RejectedQueryError("query uses names outside the framework signature")
        answer = reasoner.answers_query(self._target, a, q, self._cache)
        size = size_of(a) + size_of(q)
        self.mq_count += 1
        self.mq_input_size_sum += size
        self._log("MQ", size, "yes" if answer else "no")
        return answer

    # -- inseparability ---------------------------------------------------

    def _counterexample_aboxes(self):
        yield self.framework.fixed_abox
        if self.framework.update_closure:
            if self._closure is None:
                from .updates import enumerate_closure

                self._closure = list(
                    enumerate_closure(
                        self._target, self.framework.fixed_abox, cap=self.framework.closure_cap
                    )
                )
            yield from self._closure

    def inseparability(self, hypothesis: TBox) -> tuple[ABox, Query] | None:
        """None for inseparable, else a verified counterexample ``(abox, q)``."""
        if not self.framework.signature.covers(signature_of_tbox(hypothesis)):
            raise RejectedQueryError("hypothesis uses names outside the signature")
        size = size_of(hypothesis)
        self.eq_count += 1
        self.eq_input_size_sum += size
        # only the randomized policy reads more of the gap than its first query
        limit = None if self.policy == POLICY_RANDOMIZED else 1
        lang = self.framework.query_lang
        for a in self._counterexample_aboxes():
            gap = reasoner.inseparability_gap(
                self._target, hypothesis, a, lang, self._cache, limit, self._hypotheses
            )
            if gap:
                query = self._pick(gap, a, hypothesis)
                self.largest_counterexample = max(
                    self.largest_counterexample, size_of(a) + size_of(query)
                )
                self._log("EQ", size, "counterexample")
                return a, query
        self._log("EQ", size, "yes")
        return None

    def _pick(self, gap: list[reasoner.Separation], a: ABox, hypothesis: TBox) -> Query:
        if self.policy == POLICY_RANDOMIZED:
            sep = self.rng.choice(gap)
        else:
            sep = gap[0]
        query = sep.query
        if self.framework.query_lang == reasoner.LANG_CQR:
            if isinstance(query, ConceptQuery):
                if self.policy == POLICY_ADVERSARIAL_CQ:
                    query = duplicate_variables(query)
                else:
                    query = Tree.of_concept(query.concept).cq(query.ind)
        tv = reasoner.answers_query(self._target, a, query, self._cache)
        hv = reasoner.answers_query(hypothesis, a, query, self._hypotheses)
        if tv == hv:
            raise ContractViolationError("internal: unverified counterexample")
        return query

    # -- sampling ---------------------------------------------------------

    def example(self, dist) -> tuple[tuple[ABox, Query], int]:
        """Draw a classified example from a distribution over the fixed ABox."""
        if self._checked.get(id(dist)) is not dist:
            self._check_support(dist)
            # the entry keeps ``dist`` alive, so its id is not reused
            self._checked[id(dist)] = dist
        a, q = dist.sample(self.rng)
        label = 1 if reasoner.answers_query(self._target, a, q, self._cache) else 0
        self.ex_count += 1
        self._log("EX", size_of(a) + size_of(q), str(label))
        return (a, q), label

    def _check_support(self, dist) -> None:
        fixed = self.framework.fixed_abox
        for a, q in dist.support:
            if a != fixed:
                raise ConfigurationError("distribution support must use the fixed ABox")
            if not query_in_language(q, self.framework.query_lang):
                raise ConfigurationError(
                    f"support example outside the {self.framework.query_lang} language: {q!r}"
                )


def duplicate_variables(q: ConceptQuery) -> ConjunctiveQuery:
    """Inflate a tree-shaped instance query into a merged rooted CQ.

    A node at depth d is copied d+1 times and copy j of a parent points at
    copies j and j+1 of each child, so the result collapses back onto the
    original chain and stays equivalent to it.
    """
    atoms: set[QueryAtom] = set()
    variables: list[Var] = []

    def copy() -> Var:
        variables.append(Var(f"x{len(variables) + 1}"))
        return variables[-1]

    # breadth first: a node's copies are named when its parent is expanded
    queue = deque([(Tree.of_concept(q.concept), [q.ind])])
    while queue:
        node, copies = queue.popleft()
        for a in node.labels:
            atoms.update(ConceptAtom(a, c) for c in copies)
        for roles, child in node.children:
            below = [copy() for _ in range(len(copies) + 1)]
            for role in roles:
                for j, pc in enumerate(copies):
                    atoms.add(RoleAtom(role, pc, below[j]))
                    atoms.add(RoleAtom(role, pc, below[j + 1]))
            queue.append((child, below))
    return ConjunctiveQuery((q.ind,), frozenset(variables), frozenset(atoms))
