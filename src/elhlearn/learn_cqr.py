"""Learning from rooted conjunctive query counterexamples.

``learn_cqr`` is the one counterexample loop of ``learn_iq`` with the
rooted-CQ step ``cq_step``: a rooted-CQ counterexample is converted into an
instance query and handed to ``learn_iq.instance_step``.  The conversion
repeats three membership-backed rewrites until none applies:

* individual saturation: substitute a fixed-ABox individual for a variable,
* merging: identify two variables,
* query role saturation: replace an atom's role by a subrole.

The rewrites form one lazily generated candidate sequence, in that order,
and one loop takes the first candidate the target accepts and starts over
from the new query.  Each candidate costs at most one membership query
ever: once the target rejects a rewrite it stays rejected, because later
rewrites only strengthen the query.  After the fixpoint the subquery below
any variable is a tree, so it reads off as a concept, and some
``some r. C_x`` at some individual is a positive counterexample; that
instance query is the conversion result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .learn_aq import CachedOracle, LearnResult
# ``iq_step`` stays bound here for ``perfbench/test_perfbench.py``, which
# checks that the tracer wraps and restores ``learn_cqr.iq_step``
from .learn_iq import Run, counterexample_loop, instance_step, iq_step, start  # noqa: F401
from .syntax import (
    ABox,
    AtomicQuery,
    ConceptAtom,
    ConceptQuery,
    ConjunctiveQuery,
    ContractViolationError,
    Exists,
    Query,
    QueryAtom,
    RoleAtom,
    TBox,
    Term,
    Tree,
    Var,
    is_rooted,
)


@dataclass
class SaturationStats:
    individual_mqs: int = 0
    merge_mqs: int = 0
    role_mqs: int = 0


def _substitute(q: ConjunctiveQuery, old: Term, new: Term) -> ConjunctiveQuery:
    def sub(t: Term) -> Term:
        return new if t == old else t

    atoms: set[QueryAtom] = set()
    for atom in q.atoms:
        if isinstance(atom, ConceptAtom):
            atoms.add(ConceptAtom(atom.name, sub(atom.term)))
        else:
            atoms.add(RoleAtom(atom.role, sub(atom.subj), sub(atom.obj)))
    variables = frozenset(v for v in q.exist_vars if v != old)
    return ConjunctiveQuery(q.answer_inds, variables, frozenset(atoms))


def _replace_atom(q: ConjunctiveQuery, old: QueryAtom, new: QueryAtom) -> ConjunctiveQuery:
    return ConjunctiveQuery(q.answer_inds, q.exist_vars, (q.atoms - {old}) | {new})


def _var_key(v: Var) -> str:
    return v.name


def rewrite_query_roles(q: ConjunctiveQuery, classes) -> ConjunctiveQuery:
    """Map every role atom to its equivalence-class representative."""
    atoms: set[QueryAtom] = set()
    for atom in q.atoms:
        if isinstance(atom, RoleAtom):
            atoms.add(RoleAtom(classes.rep(atom.role), atom.subj, atom.obj))
        else:
            atoms.add(atom)
    return ConjunctiveQuery(q.answer_inds, q.exist_vars, frozenset(atoms))


def _rewrites(q: ConjunctiveQuery, a: ABox, classes):
    """``(key, build)`` for every rewrite of ``q``, in the order they are tried.

    Individual substitutions, then merges of ``x`` with a later ``y``, then
    role replacements by a strict subrole; ``build()`` makes the candidate.
    A key starts with its kind, which names its ``SaturationStats`` counter.
    """
    inds = sorted(a.individuals())
    variables = sorted(q.exist_vars, key=_var_key)
    for x in variables:
        for ind in inds:
            yield ("individual", x, ind), partial(_substitute, q, x, ind)
    for i, x in enumerate(variables):
        for y in variables[i + 1 :]:
            yield ("merge", x, y), partial(_substitute, q, y, x)
    for atom in sorted(
        (at for at in q.atoms if isinstance(at, RoleAtom)),
        key=lambda at: (at.role, repr(at.subj), repr(at.obj)),
    ):
        for r in classes.strict_subroles(atom.role):
            new = RoleAtom(r, atom.subj, atom.obj)
            yield ("role", atom, r), partial(_replace_atom, q, atom, new)


def saturate_counterexample(
    oracle: CachedOracle,
    h: TBox,
    q: ConjunctiveQuery,
    classes,
    stats: SaturationStats | None = None,
) -> ConjunctiveQuery:
    """Apply the first accepted rewrite, and start over, until none is accepted.

    A rejected candidate is never asked again: rewrites only ever strengthen
    the query, so a target-side "no" is permanent.  A candidate that already
    holds under ``h`` is skipped without a question and stays open.  Role
    replacement works on equivalence-class representatives, otherwise two
    equivalent roles would swap forever.
    """
    a = oracle.framework.fixed_abox
    stats = stats if stats is not None else SaturationStats()
    dead: set[tuple] = set()
    q = rewrite_query_roles(q, classes)
    while True:
        for key, build in _rewrites(q, a, classes):
            if key in dead:
                continue
            cand = build()
            if oracle.holds_locally(h, a, cand):
                continue
            counter = f"{key[0]}_mqs"
            setattr(stats, counter, getattr(stats, counter) + 1)
            if oracle.membership(a, cand):
                q = cand
                break
            dead.add(key)
        else:
            return q


def cq_to_iq(oracle: CachedOracle, h: TBox, q: ConjunctiveQuery, classes) -> Query:
    """Convert a positive rooted-CQ counterexample into an instance query."""
    a = oracle.framework.fixed_abox
    if not is_rooted(q):
        raise ContractViolationError("conversion expects a rooted query")
    q = saturate_counterexample(oracle, h, q, classes)
    for atom in sorted(
        (at for at in q.atoms if isinstance(at, ConceptAtom) and isinstance(at.term, str)),
        key=lambda at: (at.name, at.term),
    ):
        if not oracle.holds_locally(h, a, AtomicQuery(atom.name, (atom.term,))):
            return AtomicQuery(atom.name, (atom.term,))
    for x in sorted(q.exist_vars, key=_var_key):
        body = Tree.of_cq(q, x).concept()
        for role in sorted(oracle.framework.signature.role_names):
            probe = Exists(role, body)
            for ind in sorted(a.individuals()):
                iq = ConceptQuery(probe, ind)
                if oracle.holds_locally(h, a, iq):
                    continue
                if oracle.membership(a, iq):
                    return iq
    raise ContractViolationError("no instance query found; was the input a counterexample?")


def cq_step(run: Run, h: TBox, a: ABox, q: Query) -> TBox:
    """Convert a rooted-CQ counterexample, then take the instance step."""
    if isinstance(q, ConjunctiveQuery):
        run.result.conversions += 1
        q = cq_to_iq(run.oracle, h, q, run.classes)
    return instance_step(run, h, a, q)


def learn_cqr(session) -> LearnResult:
    """Hypothesis inseparable from the target on all rooted CQs."""
    return counterexample_loop(*start(session), cq_step)
