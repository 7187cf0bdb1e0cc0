"""Membership questions as they were before a unary atomic query read the model's label.

``answers_query`` turned a unary ``AtomicQuery`` into
``ConceptQuery(Atom(pred), ind)`` and evaluated that on the model;
``OracleSession.membership`` built the query's whole ``Signature`` before
every answer; ``size_of`` reached ``ABox`` and ``AtomicQuery`` only after
the ``isinstance`` tests of the concept and TBox kinds; and
``bootstrap_atomic`` built its one-assertion ABox once per question.  They
are kept verbatim, apart from the imports and from ``membership`` calling
this module's ``answers_query`` and ``size_of``, as the reference that
``tests/test_membership.py`` compares the package against.  Inside
``patched()`` the package's sessions and learners run with them.
"""

from __future__ import annotations

import contextlib
import importlib

import pytest

from elhlearn import reasoner, teacher
from elhlearn.learn_aq import CachedOracle
from elhlearn.reasoner import (
    ModelCache,
    _cq_holds,
    _existential_atom_holds,
    build_model,
    concept_holds,
    role_assertion_holds,
)
from elhlearn.syntax import (
    CI,
    RI,
    ABox,
    Atom,
    AtomicQuery,
    Concept,
    ConceptAtom,
    ConceptQuery,
    ConjunctiveQuery,
    Query,
    RejectedQueryError,
    RoleQuery,
    TBox,
    concept_size,
    is_existential_atom_query,
    signature_of_abox,
    signature_of_query,
)


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
        return _cq_holds(model, q)
    raise TypeError(f"not a query: {q!r}")


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


# the package re-exports the learner functions under the module names
LEARN_AQ, LEARN_IQ = (importlib.import_module(f"elhlearn.{m}") for m in ("learn_aq", "learn_iq"))


def membership(self, a: ABox, q: Query) -> bool:
    """``OracleSession.membership``."""
    sig, allowed = signature_of_query(q), self.framework.signature
    # the ABox's own names are allowed too; most queries need none of them
    if not allowed.covers(sig) and not allowed.union(signature_of_abox(a)).covers(sig):
        raise RejectedQueryError("query uses names outside the framework signature")
    answer = answers_query(self._target, a, q, self._cache)
    size = size_of(a) + size_of(q)
    self.mq_count += 1
    self.mq_input_size_sum += size
    self._log("MQ", size, "yes" if answer else "no")
    return answer


class ReferenceSession(teacher.OracleSession):
    """A session that answers membership questions as above."""

    membership = membership


def bootstrap_atomic(oracle: CachedOracle) -> tuple[set[CI], set[RI]]:
    """All name-to-name inclusions the target entails, found with memberships."""
    sig = oracle.framework.signature
    cis: set[CI] = set()
    ris: set[RI] = set()
    for a in sorted(sig.concept_names):
        for b in sorted(sig.concept_names):
            if a == b:
                continue
            ab = ABox(frozenset({(a, "p0")}), frozenset(), frozenset())
            if oracle.membership(ab, AtomicQuery(b, ("p0",))):
                cis.add(CI(Atom(a), Atom(b)))
    for r in sorted(sig.role_names):
        for s in sorted(sig.role_names):
            if r == s:
                continue
            ab = ABox(frozenset(), frozenset({(r, "p0", "p1")}), frozenset())
            if oracle.membership(ab, AtomicQuery(s, ("p0", "p1"))):
                ris.add(RI(r, s))
    return cis, ris


@contextlib.contextmanager
def patched():
    """Run the package's sessions, learners and hypothesis checks with the reference inside."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(teacher.OracleSession, "membership", membership)
        m.setattr(reasoner, "answers_query", answers_query)
        for module in (LEARN_AQ, LEARN_IQ):
            m.setattr(module, "bootstrap_atomic", bootstrap_atomic)
        for module in (teacher, LEARN_AQ):
            m.setattr(module, "size_of", size_of)
        yield
