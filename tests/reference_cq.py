"""The rooted-CQ matcher as it was before the memoised fit.

Kept verbatim as the differential reference for ``reasoner._cq_holds``:
a backtracking match into the unravelling of the regular model, with paths
no longer than the query has terms, that rechecks every atom after every
placed variable.  It expects a rooted query (``answers_query`` checked
that before calling it) and raises ``UnsupportedQueryError`` otherwise.
"""

from __future__ import annotations

from elhlearn.reasoner import RegularModel
from elhlearn.syntax import (
    ConceptAtom,
    ConjunctiveQuery,
    RoleAtom,
    Term,
    UnsupportedQueryError,
    Var,
)


def _cq_bound(q: ConjunctiveQuery) -> int:
    return max(1, len(q.terms()))


def _cq_holds(model: RegularModel, q: ConjunctiveQuery) -> bool:
    """Backtracking match into the depth-bounded unravelling.

    Elements are either named individuals or anonymous paths anchored at a
    named individual; a rooted query only ever needs paths no longer than
    its number of terms.
    """
    bound = _cq_bound(q)

    for ind in q.individuals():
        if not model.has_individual(ind):
            return False

    # unravelled elements: ("n", a) or ("p", a, ((roles, type), ...)); the
    # edge bundle is part of the path so that distinct existentials with the
    # same filler stay distinct, as they are in the least model
    PathEl = tuple

    def label_of(el: PathEl) -> frozenset[str]:
        if el[0] == "n":
            return model.labels[("n", el[1])]
        return model.labels[("a", el[2][-1][1])]

    def successors(el: PathEl) -> list[tuple[frozenset[str], PathEl]]:
        out: list[tuple[frozenset[str], PathEl]] = []
        if el[0] == "n":
            for roles, tgt in model.edges[("n", el[1])]:
                if tgt[0] == "n":
                    out.append((roles, ("n", tgt[1])))
                else:
                    out.append((roles, ("p", el[1], ((roles, tgt[1]),))))
        else:
            path = el[2]
            if len(path) < bound:
                for roles, tgt in model.edges[("a", path[-1][1])]:
                    out.append((roles, ("p", el[1], path + ((roles, tgt[1]),))))
        return out

    # order variables so each one is introduced through an in-edge from an
    # already assigned term (rootedness guarantees such an order exists)
    role_atoms = [a for a in q.atoms if isinstance(a, RoleAtom)]
    concept_atoms = [a for a in q.atoms if isinstance(a, ConceptAtom)]
    assignment: dict[Term, PathEl] = {i: ("n", i) for i in q.individuals()}
    ordered_vars: list[Var] = []
    intro_atom: dict[Var, RoleAtom] = {}
    placed: set[Term] = set(assignment)
    pending = set(q.exist_vars)
    while pending:
        progressed = False
        for atom in role_atoms:
            if atom.subj in placed and isinstance(atom.obj, Var) and atom.obj in pending:
                ordered_vars.append(atom.obj)
                intro_atom[atom.obj] = atom
                placed.add(atom.obj)
                pending.remove(atom.obj)
                progressed = True
        if not progressed:
            raise UnsupportedQueryError("query is not rooted")

    def consistent(partial: dict[Term, PathEl]) -> bool:
        for atom in role_atoms:
            if atom.subj in partial and atom.obj in partial:
                ok = any(
                    atom.role in roles and tgt == partial[atom.obj]
                    for roles, tgt in successors(partial[atom.subj])
                )
                if not ok:
                    return False
        for atom in concept_atoms:
            if atom.term in partial and atom.name not in label_of(partial[atom.term]):
                return False
        return True

    if not consistent(assignment):
        return False

    def search(i: int) -> bool:
        if i == len(ordered_vars):
            return True
        var = ordered_vars[i]
        src = assignment[intro_atom[var].subj]
        want = intro_atom[var].role
        for roles, tgt in successors(src):
            if want not in roles:
                continue
            assignment[var] = tgt
            if consistent(assignment) and search(i + 1):
                return True
            del assignment[var]
        return False

    return search(0)
