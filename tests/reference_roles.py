"""The role hierarchy and the rooted-CQ rewrites as they were before the one closure.

``superroles`` walked ``t.ris`` afresh on every call, ``role_classes`` and
``RoleClasses.strict_subroles`` asked ``entails_ri`` for every pair of
roles, over a ``TBox`` built around the inclusions on each call, and
``saturate_counterexample`` wrote the "first accepted candidate" loop once
per rewrite kind.  They are kept verbatim, apart from imports, as the
reference that ``tests/test_role_closure.py`` compares
``reasoner.role_closure``, ``learn_iq.role_classes`` and
``learn_cqr.saturate_counterexample`` against.  ``bruteforce`` and
``reference_saturation`` read roles through the walk, so they do not depend
on the package's closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from elhlearn.learn_aq import CachedOracle
from elhlearn.learn_cqr import (
    SaturationStats,
    _replace_atom,
    _substitute,
    _var_key,
    rewrite_query_roles,
)
from elhlearn.syntax import (
    RI,
    And,
    Concept,
    ConjunctiveQuery,
    Exists,
    RoleAtom,
    TBox,
    conj,
    normalize,
)


def superroles(t: TBox, role: str) -> frozenset[str]:
    """Reflexive-transitive closure of the role inclusions above ``role``."""
    out = {role}
    frontier = [role]
    while frontier:
        r = frontier.pop()
        for ri in t.ris:
            if ri.lhs == r and ri.rhs not in out:
                out.add(ri.rhs)
                frontier.append(ri.rhs)
    return frozenset(out)


def entails_ri(t: TBox, sub: str, sup: str) -> bool:
    return sup in superroles(t, sub)


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
            if s != self.rep(role) and entails_ri(t, s, self.rep(role)):
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
            s for s in roles if entails_ri(t, r, s) and entails_ri(t, s, r)
        )
        rep[r] = cls[0]
    return RoleClasses(rep, ris)




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

