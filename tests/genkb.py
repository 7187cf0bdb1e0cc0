"""Seeded random terminologies, ABoxes and query pools for the test suite."""

from __future__ import annotations

import random

from elhlearn.syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    Concept,
    ConceptQuery,
    Exists,
    RI,
    Signature,
    TBox,
    TOP,
    abox,
    canonical,
    conj,
    normalize,
    size_of,
    terminology,
)

CONCEPT_POOL = ["A1", "A2", "A3", "A4", "A5", "A6"]
ROLE_POOL = ["r1", "r2", "r3"]
IND_POOL = [f"i{k}" for k in range(10)]


def random_concept(rng: random.Random, concepts, roles, depth: int) -> Concept:
    if depth <= 0 or rng.random() < 0.45:
        if rng.random() < 0.06:
            return TOP
        return Atom(rng.choice(concepts))
    if rng.random() < 0.55:
        return Exists(rng.choice(roles), random_concept(rng, concepts, roles, depth - 1))
    parts = [
        random_concept(rng, concepts, roles, depth - 1)
        for _ in range(rng.randint(2, 3))
    ]
    return normalize(conj(*parts))


def random_terminology(
    seed: int,
    max_concepts: int = 4,
    max_roles: int = 2,
    max_size: int = 25,
    max_depth: int = 2,
    allow_role_equivalence: bool = True,
) -> TBox:
    """Seeded terminology with at most 6 signature names and size at most 25."""
    rng = random.Random(seed)
    concepts = CONCEPT_POOL[: rng.randint(2, max_concepts)]
    roles = ROLE_POOL[: rng.randint(1, max_roles)]
    cis: list[CI] = []
    ris: list[RI] = []
    rhs_used: set[str] = set()
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.40:
            lhs = random_concept(rng, concepts, roles, max_depth)
            if isinstance(lhs, (Atom,)) and rng.random() < 0.5:
                lhs = Exists(rng.choice(roles), lhs)
            cis.append(CI(lhs, Atom(rng.choice(concepts))))
        elif kind < 0.75:
            name = rng.choice(concepts)
            if name in rhs_used:
                continue
            rhs_used.add(name)
            rhs = random_concept(rng, concepts, roles, max_depth)
            cis.append(CI(Atom(name), rhs))
        else:
            cis.append(CI(Atom(rng.choice(concepts)), Atom(rng.choice(concepts))))
    if len(roles) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(roles, 2)
        ris.append(RI(a, b))
        if allow_role_equivalence and rng.random() < 0.2:
            ris.append(RI(b, a))
    t = terminology(cis, ris)
    while size_of(t) > max_size and t.cis:
        # the largest inclusion, ties broken by text, not by set order
        drop = min(t.cis, key=lambda ci: (-size_of(ci), canonical(ci.lhs), canonical(ci.rhs)))
        t = terminology(set(t.cis) - {drop}, t.ris)
    return t


def random_abox(seed: int, t: TBox, max_inds: int = 6, max_assertions: int = 10) -> ABox:
    from elhlearn.syntax import signature_of_tbox

    rng = random.Random(seed * 31 + 7)
    sig = signature_of_tbox(t)
    concepts = sorted(sig.concept_names) or ["A1"]
    roles = sorted(sig.role_names) or ["r1"]
    inds = IND_POOL[: rng.randint(1, max_inds)]
    cas = set()
    ras = set()
    for _ in range(rng.randint(1, max_assertions)):
        if rng.random() < 0.55:
            cas.add((rng.choice(concepts), rng.choice(inds)))
        else:
            ras.add((rng.choice(roles), rng.choice(inds), rng.choice(inds)))
    return abox(concepts=cas, roles=ras)


def covering_abox(seed: int, t: TBox, max_inds: int = 6, extra: int = 4) -> ABox:
    """Random ABox whose signature contains the whole TBox signature."""
    from elhlearn.syntax import signature_of_tbox

    rng = random.Random(seed * 77 + 3)
    sig = signature_of_tbox(t)
    base = random_abox(seed, t, max_inds=max_inds, max_assertions=extra)
    cas = set(base.concept_assertions)
    ras = set(base.role_assertions)
    inds = sorted(base.individuals()) or ["i0"]
    for name in sorted(sig.concept_names):
        if not any(n == name for n, _ in cas):
            cas.add((name, rng.choice(inds)))
    for role in sorted(sig.role_names):
        if not any(r == role for r, _, _ in ras):
            ras.add((role, rng.choice(inds), rng.choice(inds)))
    return abox(concepts=cas, roles=ras)


def random_query_pool(seed: int, t: TBox, a0: ABox, count: int = 30):
    """Mixed atomic and instance queries over the joint signature."""
    from elhlearn.syntax import signature_of_abox, signature_of_tbox

    rng = random.Random(seed * 13 + 1)
    sig = signature_of_tbox(t).union(signature_of_abox(a0))
    concepts = sorted(sig.concept_names) or ["A1"]
    roles = sorted(sig.role_names) or ["r1"]
    inds = sorted(a0.individuals())
    pool = []
    for _ in range(count):
        ind = rng.choice(inds)
        if rng.random() < 0.3:
            pool.append(AtomicQuery(rng.choice(concepts), (ind,)))
        else:
            pool.append(ConceptQuery(random_concept(rng, concepts, roles, 2), ind))
    uniq = {}
    for q in pool:
        uniq[repr(q)] = q
    return list(uniq.values())
