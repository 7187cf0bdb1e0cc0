"""Tests of the benchmark's own parts: generators, expected verdicts, tracer.

The reason-stream expectations are compared against the depth-bounded
grafting oracle in ``tests/bruteforce.py``, which shares no code with the
reasoner, so a wrong closed form cannot hide behind a wrong reasoner.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "tests")]

import pytest  # noqa: E402

import gen  # noqa: E402
from bruteforce import brute_model  # noqa: E402
from elhlearn import reasoner, textio  # noqa: E402
from elhlearn.syntax import (  # noqa: E402
    ABox,
    Atom,
    AtomicQuery,
    ConceptAtom,
    ConceptQuery,
    ConjunctiveQuery,
    RoleQuery,
    Var,
    abox,
)


def _brute_answer(m, q) -> bool:
    """Certain answer read off the grafted model; CQs by plain backtracking."""
    if isinstance(q, AtomicQuery) and len(q.args) == 1:
        return m.satisfies(m.of_ind[q.args[0]], Atom(q.pred))
    if isinstance(q, AtomicQuery):
        x, y = q.args
        return (q.pred, m.of_ind[y]) in m.edges[m.of_ind[x]]
    if isinstance(q, RoleQuery):
        return (q.role, m.of_ind[q.obj]) in m.edges[m.of_ind[q.subj]]
    if isinstance(q, ConceptQuery):
        return m.satisfies(m.of_ind[q.ind], q.concept)
    assert isinstance(q, ConjunctiveQuery)
    variables = sorted(q.exist_vars, key=lambda v: v.name)

    def node(term, val):
        return val[term] if isinstance(term, Var) else m.of_ind[term]

    def holds(val) -> bool:
        for atom in q.atoms:
            if isinstance(atom, ConceptAtom):
                if atom.name not in m.labels[node(atom.term, val)]:
                    return False
            elif (atom.role, node(atom.obj, val)) not in m.edges[node(atom.subj, val)]:
                return False
        return True

    def search(i, val) -> bool:
        if i == len(variables):
            return holds(val)
        return any(search(i + 1, {**val, variables[i]: d}) for d in range(len(m.labels)))

    return search(0, {})


@pytest.mark.parametrize("seed", range(12))
def test_expected_verdicts_match_bruteforce(seed):
    t = textio.parse_tbox(gen.STREAM_TBOX)
    tree = gen.stream_tree(seed, 4 + seed % 7, chain_bias=0.6)
    # denser labels than the benchmark so small trees hit every case
    tree = gen.StreamTree(
        tree.parent,
        tuple(lab | ({"A"} if i % 5 == 3 else set()) | ({"B"} if i % 3 == 1 else set())
              for i, lab in enumerate(tree.labels)),
    )
    a = gen.stream_abox(tree)
    a = ABox(a.concept_assertions, a.role_assertions, a.declared | {gen.MISSING})
    m = brute_model(t, a)
    facts = gen.StreamFacts(tree)
    queries = gen.stream_queries(seed, tree)
    kinds = {q.kind for q in queries}
    assert kinds == set(gen.STREAM_QUERIES)
    for sq in queries:
        q = textio.parse_query(sq.text())
        assert gen.expected_verdict(facts, sq) == _brute_answer(m, q), sq.text()


def test_stream_text_round_trips_and_snapshots_extend():
    big = gen.stream_tree(5, 60)
    small = gen.prefix(big, 40)
    assert gen.stream_tree(5, 40) == small
    parsed = textio.parse_abox(gen.stream_abox_text(small))
    assert parsed == gen.stream_abox(small)
    assert gen.stream_abox(small).role_assertions <= gen.stream_abox(big).role_assertions


def test_inputs_depend_only_on_the_seed():
    assert gen.corpus_case(3, 7) == gen.corpus_case(3, 7)
    assert gen.corpus_case(3, 7) != gen.corpus_case(4, 7)
    assert gen.stream_queries(3, gen.stream_tree(3, 30)) == gen.stream_queries(3, gen.stream_tree(3, 30))


def test_renamed_copy_doubles_the_data():
    a0 = abox(concepts=[("A1", "i0")], roles=[("r1", "i0", "i1")], declared=["i2"])
    both = gen.renamed_copy(a0, "c")
    assert both.individuals() == {"i0", "i1", "i2", "i0c", "i1c", "i2c"}
    assert ("r1", "i0c", "i1c") in both.role_assertions


def test_tracer_wraps_every_binding_and_restores_it():
    import importlib

    import tracing

    # the package re-exports learn_iq and learn_cqr as functions, so fetch the modules
    learn_iq, learn_cqr, syntax = (
        importlib.import_module(f"elhlearn.{m}") for m in ("learn_iq", "learn_cqr", "syntax")
    )
    before = (reasoner.canonical, learn_iq.aq_phase, learn_cqr.iq_step,
              reasoner.ModelCache.__dict__["get"])
    t = textio.parse_tbox(gen.STREAM_TBOX)
    a = gen.stream_abox(gen.stream_tree(1, 12))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert reasoner.canonical is not before[0] and learn_iq.aq_phase is not before[1]
        reasoner.answers_query(t, a, AtomicQuery("A", ("v0",)), reasoner.ModelCache())
        with tracer.paused():
            reasoner.answers_query(t, a, AtomicQuery("K", ("v0",)))
    after = (reasoner.canonical, learn_iq.aq_phase, learn_cqr.iq_step,
             reasoner.ModelCache.__dict__["get"])
    assert after == before and syntax.canonical is before[0]
    metrics = tracer.metrics()
    assert metrics["reasoner.answers_query.aq.calls"][0] == 1
    assert metrics["reasoner.build_model.calls"][0] == 1
    assert metrics["reasoner.ModelCache.hit_ratio"][0] == 0
    assert set(metrics) == set(tracing.metric_names())
    assert all(v >= 0 for k, (v, _) in metrics.items() if k.endswith("self_s"))


def test_benchmark_json_lists_every_traced_metric():
    import tracing

    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    assert names == tracing.metric_names() + list(tracing.RUN_METRICS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_self_check_takes_the_first_matching_prefix():
    import tracing

    zero = {f"reasoner.answers_query.{k}.calls": (0, "count") for k in ("bcq", "role")}
    assert tracing.self_check("corpus", zero) == ["reasoner.answers_query.role.calls"]
    assert tracing.self_check("reason-stream", zero) == sorted(zero)
