"""When does a learned hypothesis survive a change of the data instance?

Instance-query agreement carries over to a new ABox whenever every new
individual is bisimilar to an old one.  Without that guarantee the learned
left-hand sides may be too specific, so ``generalise`` weakens them:
concept names get replaced by strictly weaker names or dropped, roles by
strictly weaker roles, as long as the target still entails the inclusion.
Each step tries every name weakening before any role weakening.
"Weaker" is read from two closures: the learned order of concept names
(``learn_iq.name_order``) and the role hierarchy (``reasoner.role_closure``).
A generalised hypothesis stays inseparable on every ABox reachable from the
fixed one by replacing single assertions along linear derivations (a name
may step to another only when that step is forced by everything above it).
The subsumers of every concept name come from one saturation, over an ABox
with one unconnected individual per name, so ``enumerate_closure`` builds
one model for all its linear derivations, and roles step along
``role_closure``; the oracle session enumerates the capped family once and
replays it on later equivalence questions.

``learn_with_updates`` generalises after the atomic phase, then runs the one
counterexample loop of ``learn_iq`` with the update step ``update_step``: a
counterexample whose atomic part fails on the (updated) ABox is repaired by
a tree inclusion learned there and generalised again; any other goes to
``iq_step``.  The repair needs no search for its positive example: the first
top-level name of the counterexample that the hypothesis misses at its
individual is the witness that ``learn_aq.tree_inclusion`` shapes around,
in one minimization pass per round.
"""

from __future__ import annotations

from typing import Iterator

from . import reasoner
from .learn_aq import MAX_ROUNDS, CachedOracle, LearnResult, _record_iteration, tree_inclusion
from .learn_iq import Run, concept_query, counterexample_loop, iq_step, name_order, start
from .syntax import (
    ABox,
    And,
    Atom,
    AtomicQuery,
    BudgetExceededError,
    CI,
    Concept,
    ConfigurationError,
    ContractViolationError,
    Exists,
    Query,
    TBox,
    TOP,
    Top,
    Tree,
    canonical,
    conj,
    normalize,
    signature_of_abox,
    signature_of_tbox,
    terminology,
    top_atoms,
)


# ---------------------------------------------------------------------------
# Bisimulation-based preservation
# ---------------------------------------------------------------------------


def check_bisim_preservation(t: TBox, h: TBox, a0: ABox, a: ABox) -> bool:
    """True when the update is covered by bisimilarity with old individuals.

    Preconditions (checked): same role inclusions over the joint signature,
    and instance-query inseparability on the original ABox.
    """
    roles = signature_of_tbox(t).union(signature_of_tbox(h)).role_names
    if any(reasoner.superroles(t, r) != reasoner.superroles(h, r) for r in roles):
        raise ContractViolationError("preservation check needs equal role inclusions")
    if reasoner.inseparable(t, h, a0, reasoner.LANG_IQ) is not None:
        raise ContractViolationError(
            "preservation check needs inseparability on the original ABox"
        )
    # over the empty TBox a model is the ABox's own graph
    rel = reasoner.bisimilar(reasoner.build_model(TBox(), a), reasoner.build_model(TBox(), a0))
    return a.individuals() <= {b for (_, b), _ in rel}


# ---------------------------------------------------------------------------
# Generalisation of learned left-hand sides
# ---------------------------------------------------------------------------


def generalise(oracle: CachedOracle, h: TBox, atomic_cis: set[CI]) -> TBox:
    """Exhaustively weaken complex left-hand sides, membership-checked.

    Only inclusions with a concept name on the right are touched; the run
    costs a number of steps polynomial in the signature and hypothesis size.
    Each step takes the first weakening the target still entails: every
    name weakening comes before any role weakening, and each kind keeps the
    order in which the left-hand side is walked.
    """
    name_up = name_order(atomic_cis)
    role_up = reasoner.role_closure(h.ris)
    roles = sorted(oracle.framework.signature.role_names)

    new_cis: set[CI] = set()
    for ci in sorted(h.cis, key=lambda x: (canonical(x.lhs), canonical(x.rhs))):
        if not isinstance(ci.rhs, Atom) or isinstance(ci.lhs, (Atom, Top)):
            # name-on-the-left inclusions (atomic ones included) stay as-is;
            # weakening them would lose the very subsumptions that make the
            # complex replacements consequence-preserving
            new_cis.add(ci)
            continue
        lhs = normalize(ci.lhs)
        steps = 0
        while True:
            steps += 1
            if steps > MAX_ROUNDS:
                raise BudgetExceededError("generalisation did not stabilise")
            weaker = _weakenings(lhs, name_up, role_up, roles)
            for _, cand in sorted(weaker, key=lambda step: step[0]):
                cand = normalize(cand)
                if canonical(cand) == canonical(lhs):
                    continue
                enc, root = Tree.of_concept(cand).abox()
                if oracle.membership(enc, AtomicQuery(ci.rhs.name, (root,))):
                    lhs = cand
                    break
            else:
                break
        new_cis.add(CI(lhs, ci.rhs))
    return terminology(new_cis, h.ris)


def _weakenings(c: Concept, name_up, role_up, roles) -> Iterator[tuple[bool, Concept]]:
    """``(is_role_step, weaker)`` for each replacement of one name or role.

    A name goes up to ``top`` or to a strictly larger name of ``name_up``, a
    role to a strictly larger role of ``roles`` by ``role_up``.
    """
    if isinstance(c, Atom):
        yield False, TOP
        for b in sorted(name_up[c.name]):
            if c.name not in name_up[b]:
                yield False, Atom(b)
    elif isinstance(c, Exists):
        for s in roles:
            if s in role_up[c.role] and c.role not in role_up[s]:
                yield True, Exists(s, c.filler)
        for is_role_step, inner in _weakenings(c.filler, name_up, role_up, roles):
            yield is_role_step, Exists(c.role, inner)
    elif isinstance(c, And):
        for i, part in enumerate(c.args):
            for is_role_step, inner in _weakenings(part, name_up, role_up, roles):
                yield is_role_step, conj(*c.args[:i], inner, *c.args[i + 1 :])


# ---------------------------------------------------------------------------
# Linear derivations and the reachable ABox family
# ---------------------------------------------------------------------------


def _entailed_names(t: TBox, names) -> dict[str, frozenset[str]]:
    """Concept name -> every name it entails under ``t``, for each of ``names``.

    Read from one model of an ABox with one individual per name (named
    after it).  The individuals are unconnected, so each one's label is what
    ``entails_ci(t, name, ·)`` would read at the root of a model of its own.
    """
    model = reasoner.build_model(t, ABox(frozenset((n, n) for n in names)))
    return {n: model.labels[model.named(n)] for n in names}


def _steps_to(sub: dict[str, frozenset[str]], x: str, y: str) -> bool:
    """A linear derivation: y follows from x and from everything x entails."""
    return y in sub[x] and all(y in sub[z] for z in sub[x])


def _one_step_targets(t: TBox) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    sig = signature_of_tbox(t)
    csub = _entailed_names(t, sig.concept_names)
    rsub = reasoner.role_closure(t.ris)
    roles = sig.role_names
    cmap = {a: {b for b in csub if b != a and _steps_to(csub, a, b)} for a in sorted(csub)}
    rmap = {r: {s for s in roles if s != r and _steps_to(rsub, r, s)} for r in sorted(roles)}
    return cmap, rmap


def enumerate_closure(t: TBox, a0: ABox, cap: int = 200) -> Iterator[ABox]:
    """Members of the reachable family besides ``a0`` itself, capped."""
    cmap, rmap = _one_step_targets(t)
    seen = {a0}
    frontier = [a0]
    produced = 0
    while frontier and produced < cap:
        current = frontier.pop(0)
        steps: list[ABox] = []
        for ca in sorted(current.concept_assertions):
            name, ind = ca
            for b in sorted(cmap.get(name, ())):
                steps.append(
                    ABox(
                        (current.concept_assertions - {ca}) | {(b, ind)},
                        current.role_assertions,
                        current.declared,
                    )
                )
        for ra in sorted(current.role_assertions):
            role, x, y = ra
            for s in sorted(rmap.get(role, ())):
                steps.append(
                    ABox(
                        current.concept_assertions,
                        (current.role_assertions - {ra}) | {(s, x, y)},
                        current.declared,
                    )
                )
        for nxt in steps:
            if nxt in seen:
                continue
            seen.add(nxt)
            produced += 1
            yield nxt
            if produced >= cap:
                return
            frontier.append(nxt)


# ---------------------------------------------------------------------------
# Learning that survives updates
# ---------------------------------------------------------------------------


def _failing_atom(oracle: CachedOracle, h: TBox, a: ABox, concept, ind: str) -> str | None:
    for name in sorted(top_atoms(concept)):
        if not oracle.holds_locally(h, a, AtomicQuery(name, (ind,))):
            return name
    return None


def update_step(run: Run, h: TBox, a: ABox, q: Query) -> TBox:
    """Repair an atomic miss on the updated ABox, else take the instance step."""
    q = concept_query(q)
    atom = _failing_atom(run.oracle, h, a, q.concept, q.ind)
    if atom is None:
        return iq_step(run.oracle, h, run.classes, run.equivalent_names, a, q.concept, q.ind)
    # a replaced assertion can become derivable rather than asserted, which
    # the fixed-ABox run never had to cover, so the tree step reruns here,
    # around the witness atom(q.ind): the target entails it on ``a``, ``h`` not
    h, _ = tree_inclusion(run.oracle, h, a, (atom, q.ind))
    return generalise(run.oracle, h, run.atomic_cis)


def learn_with_updates(session) -> LearnResult:
    """Learn, generalise, then accept counterexamples over updated ABoxes."""
    a0 = session.framework.fixed_abox
    if not signature_of_abox(a0).covers(session.framework.signature):
        raise ConfigurationError("update learning needs the TBox signature inside the ABox's")
    run, h = start(session)
    h = generalise(run.oracle, h, run.atomic_cis)
    _record_iteration(run.result, run.oracle, h)
    return counterexample_loop(run, h, update_step)
