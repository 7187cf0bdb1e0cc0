"""Learning from rooted conjunctive query counterexamples.

``learn_cqr`` is the one counterexample loop of ``learn_iq`` with the
rooted-CQ step ``cq_step``: a rooted-CQ counterexample is converted into an
instance query and handed to ``iq_step``.  The conversion repeats three
membership-backed rewrites until none applies:

* individual saturation: substitute a fixed-ABox individual for a variable,
* merging: identify two variables,
* query role saturation: replace an atom's role by a subrole.

Each candidate costs at most one membership query ever: once the target
rejects a rewrite it stays rejected, because later rewrites only strengthen
the query.  After the fixpoint the subquery below any variable is a tree, so
it reads off as a concept, and some ``some r. C_x`` at some individual is a
positive counterexample; that instance query is the conversion result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .learn_aq import CachedOracle, LearnResult
from .learn_iq import Run, concept_query, counterexample_loop, iq_step, role_classes, start
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

    def total(self) -> int:
        return self.individual_mqs + self.merge_mqs + self.role_mqs


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


def saturate_counterexample(
    oracle: CachedOracle,
    h: TBox,
    q: ConjunctiveQuery,
    classes=None,
    stats: SaturationStats | None = None,
) -> ConjunctiveQuery:
    """Exhaustively apply the three rewrites, cheapest bookkeeping first.

    A rejected candidate is never asked again: rewrites only ever strengthen
    the query, so a target-side "no" is permanent.  Role replacement works on
    equivalence-class representatives, otherwise two equivalent roles would
    swap forever.
    """
    a = oracle.framework.fixed_abox
    stats = stats if stats is not None else SaturationStats()
    dead: set[tuple] = set()
    if classes is None:
        classes = role_classes(h.ris, oracle.framework.signature.role_names)
    q = rewrite_query_roles(q, classes)

    changed = True
    while changed:
        changed = False
        for x in sorted(q.exist_vars, key=_var_key):
            for ind in sorted(a.individuals()):
                key = ("ind", x, ind)
                if key in dead:
                    continue
                cand = _substitute(q, x, ind)
                if oracle.holds_locally(h, a, cand):
                    continue
                stats.individual_mqs += 1
                if oracle.membership(a, cand):
                    q = cand
                    changed = True
                    break
                dead.add(key)
            if changed:
                break
        if changed:
            continue
        for x in sorted(q.exist_vars, key=_var_key):
            for y in sorted(q.exist_vars, key=_var_key):
                if _var_key(y) <= _var_key(x):
                    continue
                key = ("merge", x, y)
                if key in dead:
                    continue
                cand = _substitute(q, y, x)
                if oracle.holds_locally(h, a, cand):
                    continue
                stats.merge_mqs += 1
                if oracle.membership(a, cand):
                    q = cand
                    changed = True
                    break
                dead.add(key)
            if changed:
                break
        if changed:
            continue
        role_atoms = sorted(
            (at for at in q.atoms if isinstance(at, RoleAtom)),
            key=lambda at: (at.role, repr(at.subj), repr(at.obj)),
        )
        for atom in role_atoms:
            for r in classes.strict_subroles(atom.role):
                key = ("role", atom, r)
                if key in dead:
                    continue
                cand = _replace_atom(q, atom, RoleAtom(r, atom.subj, atom.obj))
                if oracle.holds_locally(h, a, cand):
                    continue
                stats.role_mqs += 1
                if oracle.membership(a, cand):
                    q = cand
                    changed = True
                    break
                dead.add(key)
            if changed:
                break
    return q


def cq_to_iq(oracle: CachedOracle, h: TBox, q: ConjunctiveQuery, classes=None) -> Query:
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
    q = concept_query(q)
    return iq_step(run.oracle, h, run.classes, run.equivalent_names, a, q.concept, q.ind)


def learn_cqr(session) -> LearnResult:
    """Hypothesis inseparable from the target on all rooted CQs."""
    return counterexample_loop(*start(session), cq_step)
