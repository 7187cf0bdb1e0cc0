"""Rooted-CQ checks: the memoised fit against the unravelling backtracker.

``reference_cq._cq_holds`` is the matcher ``reasoner._cq_holds`` replaced.
Over genkb terminologies and ABoxes, derandomised, both must give the same
verdict on forests with bundled roles, atoms from a variable to an
individual and between individuals, variables substituted by individuals or
merged (the rewrites of ``learn_cqr``), ``duplicate_variables`` DAGs,
cycles, self-loops and individuals the ABox does not have.  Small queries are also checked against a
brute-force homomorphism search into ``bruteforce.BruteModel``.  A query
with a variable that no walk from an individual reaches is rejected.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from bruteforce import brute_cq
from genkb import random_abox, random_concept, random_terminology
from reference_cq import _cq_holds as reference_holds
from elhlearn import cli
from elhlearn.learn_cqr import _substitute
from elhlearn.reasoner import _cq_holds, answers_query, build_model
from elhlearn.syntax import (
    ConceptAtom,
    ConceptQuery,
    ConjunctiveQuery,
    RoleAtom,
    UnsupportedQueryError,
    Var,
    concept_depth,
    signature_of_tbox,
)
from elhlearn.teacher import duplicate_variables

SEEDS = range(240)
UNROOTED = "only rooted conjunctive queries and a single existential concept atom are supported"


def random_cq(rng: random.Random, inds, concepts, roles) -> ConjunctiveQuery:
    """A forest below some individuals, then extra atoms between any terms."""
    roots = rng.sample(inds, rng.randint(1, min(2, len(inds))))
    if rng.random() < 0.1:
        roots.append("nobody")
    terms: list = list(roots)
    variables = []
    atoms: set = set()
    for k in range(rng.randint(0, 4)):
        v = Var(f"x{k}")
        parent = rng.choice(terms)
        for r in rng.sample(roles, rng.randint(1, min(2, len(roles)))):
            atoms.add(RoleAtom(r, parent, v))
        variables.append(v)
        terms.append(v)
    for t in terms:
        for _ in range(rng.choice((0, 0, 1, 2))):
            atoms.add(ConceptAtom(rng.choice(concepts), t))
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        atoms.add(RoleAtom(rng.choice(roles), rng.choice(terms), rng.choice(terms)))
    answers = tuple(t for t in roots if rng.random() < 0.7)
    return ConjunctiveQuery(answers, frozenset(variables), frozenset(atoms))


def walked_cq(rng: random.Random, model, inds) -> ConjunctiveQuery:
    """A query read off the model along its edges, so most of them hold.

    Each variable follows an edge of its parent's element with some of the
    edge's roles and takes some of the target's names.  An extra atom joins
    two terms whose elements have an edge in the finite presentation, which
    the least model, a tree below the individuals, need not have.
    """
    root = rng.choice(inds)
    element = {root: ("n", root)}
    atoms: set = set()
    for k in range(rng.randint(1, 4)):
        parent = rng.choice(list(element))
        out = model.edges[element[parent]]
        if not out:
            break
        roles, target = rng.choice(out)
        v = Var(f"y{k}")
        element[v] = target
        for r in rng.sample(sorted(roles), rng.randint(1, len(roles))):
            atoms.add(RoleAtom(r, parent, v))
        label = sorted(model.labels[target])
        for name in rng.sample(label, min(len(label), rng.randint(0, 2))):
            atoms.add(ConceptAtom(name, v))
    for _ in range(rng.choice((0, 1, 1, 2))):
        s = rng.choice(list(element))
        for roles, target in model.edges[element[s]]:
            joined = [o for o, el in element.items() if el == target]
            if joined:
                atoms.add(RoleAtom(min(roles), s, rng.choice(joined)))
                break
    variables = frozenset(v for v in element if isinstance(v, Var))
    return ConjunctiveQuery((root,), variables, frozenset(atoms))


def rewritten(rng: random.Random, q: ConjunctiveQuery, inds) -> ConjunctiveQuery:
    """``q`` with a variable substituted by an individual, or two variables merged."""
    variables = sorted(q.exist_vars, key=lambda v: v.name)
    if len(variables) >= 2 and rng.random() < 0.5:
        x, y = rng.sample(variables, 2)
        return _substitute(q, y, x)
    if variables:
        return _substitute(q, rng.choice(variables), rng.choice(inds))
    return q


def queries(seed: int, t, a, model):
    rng = random.Random(seed)
    sig = signature_of_tbox(t)
    concepts = sorted(sig.concept_names) + ["Z"]
    roles = sorted(sig.role_names) + ["z"]
    inds = sorted(a.individuals())
    for _ in range(6):
        q = random_cq(rng, inds, concepts, roles)
        yield q
        yield rewritten(rng, q, inds)
        q = walked_cq(rng, model, inds)
        yield q
        yield rewritten(rng, q, inds)
    for _ in range(2):
        concept = random_concept(rng, concepts, roles, 2)
        yield duplicate_variables(ConceptQuery(concept, rng.choice(inds)))


def tbox_depth(t) -> int:
    return max((concept_depth(c) for ci in t.cis for c in (ci.lhs, ci.rhs)), default=0)


def test_verdicts_match_reference_and_brute_force():
    shapes = {"checked": 0, "true": 0, "brute": 0, "second parent": 0, "self-loop": 0}
    for seed in SEEDS:
        t = random_terminology(seed)
        a = random_abox(seed, t)
        model = build_model(t, a)
        for q in queries(seed, t, a, model):
            got = _cq_holds(model, q)
            assert got == reference_holds(model, q), (seed, q)
            assert answers_query(t, a, q) == got
            shapes["checked"] += 1
            shapes["true"] += got
            pairs = {(at.subj, at.obj) for at in q.atoms if isinstance(at, RoleAtom)}
            objects = [o for _, o in pairs if isinstance(o, Var)]
            shapes["second parent"] += len(objects) > len(set(objects))
            shapes["self-loop"] += any(
                isinstance(at, RoleAtom) and at.subj == at.obj for at in q.atoms
            )
            if len(q.exist_vars) <= 3 and seed % 2 == 0:
                depth = len(q.exist_vars) + 2 * tbox_depth(t)
                assert brute_cq(t, a, q, depth) == got, (seed, q)
                shapes["brute"] += 1
    # the generator reaches every kind of check, true and false
    assert shapes["checked"] > 3000 and 0.1 < shapes["true"] / shapes["checked"] < 0.9, shapes
    assert shapes["brute"] > 1000 and shapes["second parent"] > 300, shapes
    assert shapes["self-loop"] > 50, shapes


def test_unrooted_queries_are_rejected_before_any_verdict():
    t = random_terminology(3)
    a = random_abox(3, t)
    x, y = Var("x"), Var("y")
    unreached = [
        # y is reached only from x, which nothing reaches
        ConjunctiveQuery((), frozenset({x, y}), frozenset({RoleAtom("r1", x, y)})),
        # x only points at an individual; the individual is unknown
        ConjunctiveQuery(("nobody",), frozenset({x}), frozenset({RoleAtom("r1", x, "nobody")})),
        # a declared variable in no atom
        ConjunctiveQuery(("i0",), frozenset({x}), frozenset({ConceptAtom("A1", "i0")})),
    ]
    for q in unreached:
        with pytest.raises(UnsupportedQueryError, match=UNROOTED):
            answers_query(t, a, q)


CLIFF_TARGET = """\
CI: A1 [= A1
CI: A2 [= some r1. top
CI: some r1. A1 [= A2
"""

CLIFF_EDGES = (
    "d0,d14 d0,d2 d1,d1 d1,d12 d1,d3 d1,d5 d1,d9 d10,d10 d10,d4 d12,d14 d12,d15 "
    "d13,d1 d14,d15 d14,d7 d15,d14 d2,d11 d2,d2 d2,d3 d2,d7 d3,d1 d3,d14 d3,d7 "
    "d4,d0 d4,d8 d5,d13 d8,d6 d9,d13 d9,d4 d9,d9"
)


def test_dense_rooted_cq_run_ends_inseparable(tmp_path: Path, capsys):
    """The 16-individual run that the unravelling matcher could not finish."""
    lines = ["A: A1(d6)"] + [f"A: A2({d})" for d in "d0 d12 d14 d2 d3 d7 d9".split()]
    lines += [f"A: r1({pair})" for pair in CLIFF_EDGES.split()]
    (tmp_path / "target.tbox").write_text(CLIFF_TARGET)
    (tmp_path / "data.abox").write_text("\n".join(lines) + "\n")
    argv = ["learn", "--mode", "cqr", str(tmp_path / "target.tbox"), str(tmp_path / "data.abox")]
    assert cli.main(argv) == 0
    stats = capsys.readouterr().out.splitlines()[-1]
    assert '"mqCount": 304' in stats and '"eqCount": 2' in stats, stats
    assert '"verifiedInseparable": true' in stats, stats
