"""Differential tests of ``syntax.Tree`` against the trees it replaced.

``reference_tree`` keeps the old encodings verbatim: ``ConceptTree`` and its
converters, ``variable_subquery_concept``, ``BundleTree`` and the ``_Node``
reductions of ``learn_iq``.  On genkb seeds 0-199 every constructor and
emitter of ``Tree`` must give what its old counterpart gave, names
included, and the learners must ask the same questions and learn the same
hypotheses with the old reductions swapped in.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter

import pytest

import reference_tree as ref
from genkb import CONCEPT_POOL, ROLE_POOL, covering_abox, random_abox, random_terminology
from elhlearn.learn_aq import CachedOracle
from elhlearn.batch import build_batch, dump_batch, learn_from_batch
from elhlearn.learn_cqr import learn_cqr
from elhlearn.learn_iq import learn_iq
from elhlearn.reasoner import LANG_CQR, LANG_IQ
from elhlearn.syntax import (
    MAX_NESTING,
    And,
    Atom,
    ConceptQuery,
    ElhError,
    Exists,
    StructuralError,
    TBox,
    TOP,
    Tree,
    abox,
    conj,
    normalize,
    top_existentials,
)
from elhlearn.teacher import (
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    OracleSession,
    duplicate_variables,
    framework_for,
)
from elhlearn.textio import serialize_tbox
from elhlearn.updates import learn_with_updates

SEEDS = range(200)
PER_SEED = 30


def raw_concept(rng: random.Random, depth: int, names=CONCEPT_POOL[:4], roles=ROLE_POOL[:2]):
    """``genkb.random_concept`` unnormalized: written conjunct order, some duplicates."""
    if depth <= 0 or rng.random() < 0.45:
        return TOP if rng.random() < 0.06 else Atom(rng.choice(names))
    if rng.random() < 0.55:
        return Exists(rng.choice(roles), raw_concept(rng, depth - 1, names, roles))
    parts = [raw_concept(rng, depth - 1, names, roles) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.3:
        parts.append(parts[0])
    return conj(*parts)


def concepts(seed: int):
    rng = random.Random(seed)
    for _ in range(PER_SEED):
        c = raw_concept(rng, 3)
        yield c
        yield normalize(c)


def bundle(tree: Tree) -> ref.BundleTree:
    return ref.BundleTree(tree.labels, tuple((roles, bundle(sub)) for roles, sub in tree.children))


def role_set_tree(rng: random.Random, depth: int) -> Tree:
    """A witness-like tree: some edges carry two roles."""
    labels = frozenset(rng.sample(CONCEPT_POOL[:3], rng.randint(0, 2)))
    if depth <= 0:
        return Tree(labels)
    children = tuple(
        (frozenset(rng.sample(ROLE_POOL[:2], rng.choice([1, 1, 2]))), role_set_tree(rng, depth - 1))
        for _ in range(rng.randint(0, 2))
    )
    return Tree(labels, children)


@pytest.mark.parametrize("seeds", [SEEDS[:100], SEEDS[100:]], ids=["0-99", "100-199"])
def test_concept_tree_matches_the_old_encodings(seeds):
    for s in seeds:
        for c in concepts(s):
            tree = Tree.of_concept(c)
            q = ConceptQuery(c, "a")
            assert tree.concept() == ref.concept_of_tree(ref.tree_of_concept(c)), c
            assert tree.concept() == ref._Node.of(c).concept(), c
            assert tree.node_count() == ref.tree_node_count(c), c
            assert tree.abox() == ref.abox_of_concept(c), c
            assert tree.cq("a") == ref.concept_query_as_cq(q), c
            assert bundle(tree).as_concept() == tree.concept(), c
            assert bundle(tree).as_cq("a") == tree.cq("a"), c
            assert duplicate_variables(q) == ref.duplicate_variables(q), c


@pytest.mark.parametrize("seeds", [SEEDS[:100], SEEDS[100:]], ids=["0-99", "100-199"])
def test_abox_and_cq_readers_match_the_old_converters(seeds):
    for s in seeds:
        for c in concepts(s):
            a, root = ref.abox_of_concept(c)
            assert Tree.of_abox(a, root).concept() == ref.tree_concept(a, root), c
            tree_q = ref.concept_query_as_cq(ConceptQuery(Exists("r1", c), "a"))
            # the inflated query is a DAG: both read it below a variable as its unfolding
            dag_q = ref.duplicate_variables(ConceptQuery(Exists("r1", c), "a"))
            for q in (tree_q, dag_q):
                for x in q.exist_vars:
                    assert Tree.of_cq(q, x).concept() == ref.variable_subquery_concept(q, x), c


def test_role_set_trees_match_bundle_trees():
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(PER_SEED):
            tree = role_set_tree(rng, 3)
            assert tree.concept() == bundle(tree).as_concept(), tree
            assert tree.cq("a") == bundle(tree).as_cq("a"), tree


def _read(call):
    try:
        return "ok", call()
    except StructuralError as exc:
        return "error", str(exc)


def test_malformed_aboxes_fail_as_before():
    inds = [f"i{k}" for k in range(5)]
    failed = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(10):
            roles = {
                (rng.choice(ROLE_POOL[:2]), rng.choice(inds), rng.choice(inds))
                for _ in range(rng.randint(1, 6))
            }
            labels = {(rng.choice(CONCEPT_POOL[:3]), rng.choice(inds)) for _ in range(3)}
            a = abox(concepts=labels, roles=roles)
            for root in sorted(a.individuals()):
                got = _read(lambda: Tree.of_abox(a, root).concept())
                assert got == _read(lambda: ref.tree_concept(a, root)), (a, root)
                failed[got[1] if got[0] == "error" else "ok"] += 1
    assert set(failed) == {
        "ok",
        "tree must have exactly one root",
        "node with two parents",
        "disconnected tree",
    }


def _chain(n: int):
    return abox(concepts=[("B", f"c{n}")], roles=[("r", f"c{i}", f"c{i + 1}") for i in range(n)])


def test_deep_tree_aboxes_are_rejected_before_any_recursion():
    assert Tree.of_abox(_chain(MAX_NESTING), "c0").node_count() == MAX_NESTING + 1
    for n in (MAX_NESTING + 1, 5000):
        with pytest.raises(StructuralError, match=f"deeper than {MAX_NESTING} levels"):
            Tree.of_abox(_chain(n), "c0")


def _outcome(call):
    try:
        return "ok", call()
    except ElhError as exc:
        partial = getattr(exc, "partial", None)
        return type(exc).__name__, str(exc), partial and serialize_tbox(partial)


def _learner_run(learner, session):
    def call():
        result = learner(session)
        return serialize_tbox(result.hypothesis), result.iterations, result.conversions

    return _outcome(call), session.export_transcript()


def _batch_run(lang, seed):
    t = random_terminology(seed)
    cover = covering_abox(seed, t)

    def call():
        items = build_batch(t, cover, lang, seed=seed)
        return dump_batch(items), serialize_tbox(learn_from_batch(items, cover, lang))

    return _outcome(call)


RUNS = {
    "learn_iq-minimal": lambda seed: _learner_run(
        learn_iq, _session(seed, LANG_IQ, POLICY_MINIMAL)
    ),
    "learn_iq-randomized": lambda seed: _learner_run(
        learn_iq, _session(seed, LANG_IQ, POLICY_RANDOMIZED)
    ),
    "learn_cqr-minimal": lambda seed: _learner_run(
        learn_cqr, _session(seed, LANG_CQR, POLICY_MINIMAL)
    ),
    "learn_cqr-randomized": lambda seed: _learner_run(
        learn_cqr, _session(seed, LANG_CQR, POLICY_RANDOMIZED)
    ),
    "learn_cqr-adversarial-cq": lambda seed: _learner_run(
        learn_cqr, _session(seed, LANG_CQR, POLICY_ADVERSARIAL_CQ)
    ),
    "learn_with_updates": lambda seed: _learner_run(
        learn_with_updates, _session(seed, LANG_IQ, POLICY_MINIMAL, updates=True)
    ),
    "build_batch-iq": lambda seed: _batch_run(LANG_IQ, seed),
    "build_batch-cqr": lambda seed: _batch_run(LANG_CQR, seed),
}


def _session(seed, lang, policy, updates=False):
    t = random_terminology(seed)
    if updates:
        fw = framework_for(t, covering_abox(seed, t), lang, update_closure=True, closure_cap=30)
    else:
        fw = framework_for(t, random_abox(seed, t), lang)
    return OracleSession(t, fw, policy, seed)


# the package's ``learn_iq`` attribute is the function, not the module
learn_iq_module = importlib.import_module("elhlearn.learn_iq")
REWRITES = ("concept_saturate", "role_saturate", "sibling_merge", "decompose_right")


def _raise_role(c, sub: str, sup: str):
    if isinstance(c, Exists):
        return Exists(sup if c.role == sub else c.role, _raise_role(c.filler, sub, sup))
    if isinstance(c, And):
        return conj(*(_raise_role(a, sub, sup) for a in c.args))
    return c


def test_each_rewrite_asks_what_the_node_rewrite_asked():
    """Each rewrite on its own, on the target's right-hand sides and on random concepts."""
    changed = Counter()
    for seed in SEEDS:
        t = random_terminology(seed)
        fw = framework_for(t, random_abox(seed, t), LANG_IQ)
        names = sorted(fw.signature.concept_names)
        roles = sorted(fw.signature.role_names)
        rng = random.Random(seed)
        cases = []
        for ci in t.cis:
            if isinstance(ci.lhs, Atom):
                # the right side, with an empty sibling beside each edge and
                # with each edge's role raised along the role inclusions
                empties = [Exists(ex.role, TOP) for ex in top_existentials(ci.rhs)]
                cases += [(ci.lhs.name, ci.rhs), (ci.lhs.name, conj(ci.rhs, *empties))]
                cases += [(ci.lhs.name, _raise_role(ci.rhs, ri.lhs, ri.rhs)) for ri in t.ris]
        depth = 3 if roles else 0
        cases += [(rng.choice(names), raw_concept(rng, depth, names, roles)) for _ in range(4)]
        classes = learn_iq_module.role_classes(t.ris, fw.signature.role_names)
        for lhs, c in sorted(cases, key=repr):
            steps = {
                "concept_saturate": lambda m, o: m.concept_saturate(o, lhs, c),
                "role_saturate": lambda m, o: m.role_saturate(o, classes, lhs, c),
                "sibling_merge": lambda m, o: m.sibling_merge(o, lhs, c),
                "decompose_right": lambda m, o: m.decompose_right(
                    o, TBox(), lambda x, y: x == y, lhs, c
                ),
            }
            for name, step in steps.items():
                runs = []
                for module in (learn_iq_module, ref):
                    session = OracleSession(t, fw)
                    runs.append((step(module, CachedOracle(session)), session.export_transcript()))
                assert runs[0] == runs[1], (name, seed, lhs, c)
                changed[name] += runs[0][0] not in (normalize(c), None)
    assert all(changed[name] >= 5 for name in REWRITES), changed


@pytest.mark.parametrize("name", sorted(RUNS))
def test_learners_match_the_node_rewrites(name, monkeypatch):
    run = RUNS[name]
    got = [run(seed) for seed in SEEDS]
    calls = Counter()
    for rewrite in REWRITES:
        old = getattr(ref, rewrite)

        def counted(*args, _old=old, _name=rewrite):
            calls[_name] += 1
            return _old(*args)

        monkeypatch.setattr(learn_iq_module, rewrite, counted)
    for seed, have in zip(SEEDS, got):
        assert have == run(seed), f"{name} differs on genkb seed {seed}"
    assert set(calls) == set(REWRITES), calls
