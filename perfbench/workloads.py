"""The workloads as pools of cases, each case a list of timed operations.

An operation's ``run`` is the only thing timed.  Its ``check`` runs after
the clock stops and returns a ``Checked``: the problems found (an empty
list means the output is correct), the oracle sessions whose questions
count as oracle cost, the budget ratio of a learner run, and the text
that goes into the workload digest.

Every module is reached through its public functions only; the package
source is never edited.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

from elhlearn import cli
from elhlearn.batch import build_batch, learn_from_batch
from elhlearn.learn_aq import learn_aq
from elhlearn.learn_cqr import learn_cqr
from elhlearn.learn_iq import learn_iq
from elhlearn.pac import pac_from_exact, true_error, uniform_distribution
from elhlearn.reasoner import LANG_AQ, LANG_CQR, LANG_IQ, inseparable
from elhlearn.syntax import signature_of_abox, signature_of_tbox, size_of
from elhlearn.teacher import (
    OracleSession,
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    framework_for,
)
from elhlearn.updates import check_bisim_preservation, learn_with_updates

import gen

BUDGET_COEFF = 4
BUDGET_DEGREE = 2
PAC_EPS = PAC_DELTA = 0.1
CLOSURE_CAP = 30


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    sessions: list = field(default_factory=list)
    budget_ratio: float | None = None
    digest: str = ""
    pac_within_eps: int = 0


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass
class Workload:
    cases: list[list[Op]]  # one pass runs them all, in order
    warmup: list[Op]


def budget_bound(t, a0, sess) -> int:
    """The acceptance budget ``4*s**2`` with s as the acceptance suite defines it."""
    sig = signature_of_tbox(t).union(signature_of_abox(a0))
    s = (
        size_of(t)
        + size_of(a0)
        + sess.largest_counterexample
        + len(sig.concept_names)
        + len(sig.role_names)
        + 8
    )
    return BUDGET_COEFF * s**BUDGET_DEGREE


def _learner_checked(t, a0, lang, sess, h) -> Checked:
    out = Checked(sessions=[sess], digest=sess.export_transcript())
    if inseparable(t, h, a0, lang) is not None:
        out.problems.append("hypothesis separable from the target")
    spent = sess.mq_input_size_sum + sess.eq_input_size_sum
    out.budget_ratio = spent / budget_bound(t, a0, sess)
    if out.budget_ratio > 1:
        out.problems.append(f"oracle input {spent} over the 4*s**2 budget")
    return out


def learner_op(kind, t, a0, lang, learner, policy=POLICY_MINIMAL, seed=0, keep=None, **fw) -> Op:
    def run():
        sess = OracleSession(t, framework_for(t, a0, lang, **fw), policy=policy, seed=seed)
        return sess, learner(sess)

    def check(out) -> Checked:
        sess, result = out
        if keep is not None:
            keep["h"] = result.hypothesis
        return _learner_checked(t, a0, lang, sess, result.hypothesis)

    return Op(kind, run, check)


def batch_op(t, a0, lang, seed) -> Op:
    def run():
        return learn_from_batch(build_batch(t, a0, lang, seed=seed), a0, lang)

    def check(h) -> Checked:
        ok = inseparable(t, h, a0, lang) is None
        return Checked([] if ok else ["batch hypothesis separable from the target"])

    return Op(f"batch/{lang}", run, check)


def pac_op(t, a0, pool, seed) -> Op:
    dist = uniform_distribution([(a0, q) for q in pool], seed=seed)

    def run():  # what `elh pac run` does per trial
        sess = OracleSession(t, framework_for(t, a0, LANG_IQ), seed=seed)
        res = pac_from_exact(sess, learn_iq, PAC_EPS, PAC_DELTA, dist)
        return sess, res, true_error(res.hypothesis, t, a0, dist)

    def check(out) -> Checked:
        sess, res, err = out
        want = [
            max(1, math.ceil((1 / PAC_EPS) * (math.log(1 / PAC_DELTA) + i * math.log(2))))
            for i in range(1, res.eq_rounds + 1)
        ]
        got = Checked(sessions=[sess], digest=sess.export_transcript())
        if res.schedule != want:
            got.problems.append(f"sampling schedule {res.schedule} != {want}")
        got.pac_within_eps = int(err <= PAC_EPS)
        return got

    return Op("pac/iq", run, check)


def update_check_op(t, a0, learned) -> Op:
    updated = gen.renamed_copy(a0, "c")

    def run():
        h = learned["h"]
        return check_bisim_preservation(t, h, a0, updated), inseparable(t, h, updated, LANG_IQ)

    def check(out) -> Checked:
        preserved, sep = out
        problems = []
        if not preserved:
            problems.append("renamed full copy not preserved")
        if sep is not None:
            problems.append("renamed full copy separable")
        return Checked(problems)

    return Op("update-check", run, check)


def corpus_ops(case: gen.CorpusCase, seed: int) -> list[Op]:
    t, a0, cover = case.tbox, case.abox, case.covering
    learned: dict = {}
    ops = [
        learner_op("learn_aq", t, a0, LANG_AQ, learn_aq),
        learner_op("learn_iq/minimal", t, a0, LANG_IQ, learn_iq, keep=learned),
        learner_op("learn_iq/randomized", t, a0, LANG_IQ, learn_iq, POLICY_RANDOMIZED, seed),
    ]
    for policy in (POLICY_MINIMAL, POLICY_RANDOMIZED, POLICY_ADVERSARIAL_CQ):
        ops.append(learner_op(f"learn_cqr/{policy}", t, a0, LANG_CQR, learn_cqr, policy, seed))
    ops.append(
        learner_op(
            "learn_with_updates", t, cover, LANG_IQ, learn_with_updates,
            update_closure=True, closure_cap=CLOSURE_CAP,
        )
    )
    ops += [batch_op(t, cover, lang, seed) for lang in (LANG_AQ, LANG_IQ, LANG_CQR)]
    ops.append(pac_op(t, a0, case.pool, seed))
    ops.append(update_check_op(t, a0, learned))
    return ops


def corpus(seed: int, workdir: str) -> Workload:
    cases = [corpus_ops(gen.corpus_case(seed, k), seed * 1000 + k) for k in range(CORPUS_CASES)]
    return Workload(cases, corpus_ops(gen.corpus_case("warm-up", 0), 0))


def reason_op(files: list[str], facts: gen.StreamFacts, queries) -> Op:
    want = [gen.expected_verdict(facts, q) for q in queries]
    texts = [" ".join(q.text()[3:].split()) for q in queries]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["reason", *files])
        return code, buf.getvalue()

    def check(out) -> Checked:
        code, stdout = out
        problems = []
        lines = stdout.splitlines()
        if len(lines) != len(want):
            problems.append(f"{len(lines)} verdict lines for {len(want)} queries")
        for line, text, expect in zip(lines, texts, want):
            shown, _, verdict = line.rpartition(": ")
            if " ".join(shown.split()) != text or verdict != ("ENTAILED" if expect else "NOT_ENTAILED"):
                problems.append(f"{line!r}: expected {text} {expect}")
        want_code = cli.EXIT_OK if all(want) else cli.EXIT_NEGATIVE
        if code != want_code:
            problems.append(f"exit code {code}, expected {want_code}")
        return Checked(problems, digest=stdout)

    return Op(f"reason/{len(facts.tree.labels)}", run, check)


def _stream_files(seed, workdir: str, sizes) -> list[Op]:
    """One stream: the TBox, its query file and one ABox file per snapshot."""
    os.makedirs(workdir, exist_ok=True)
    tree = gen.stream_tree(seed, max(sizes))
    queries = gen.stream_queries(seed, gen.prefix(tree, min(sizes)))
    tbox_path = os.path.join(workdir, "stream.tbox")
    query_path = os.path.join(workdir, "stream.queries")
    with open(tbox_path, "w", encoding="utf-8") as fh:
        fh.write(gen.STREAM_TBOX)
    with open(query_path, "w", encoding="utf-8") as fh:
        fh.write("".join(q.text() + "\n" for q in queries))
    ops = []
    for k, n in enumerate(sizes):
        snap = gen.prefix(tree, n)
        path = os.path.join(workdir, f"snapshot{k}.abox")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.stream_abox_text(snap))
        ops.append(reason_op([tbox_path, path, query_path], gen.StreamFacts(snap), queries))
    return ops


def reason_stream(seed: int, workdir: str) -> Workload:
    cases = [
        _stream_files(f"{seed}-{s}", os.path.join(workdir, f"stream{s}"), STREAM_SIZES)
        for s in range(STREAMS)
    ]
    warm = _stream_files("warm-up", os.path.join(workdir, "warm-up"), STREAM_SIZES[:1])
    return Workload(cases, warm)


# Pool sizes.  A corpus case takes about 45 ms with its checks on one core
# of the machine the benchmark was tuned on, a stream about 0.6 s.  A few
# corpus cases in a thousand take over a second, so a pool of 150 made
# ops_per_s differ by 10 to 20% between seeds; the share of any one of
# them falls with the pool size.  A pass takes about 22 s on corpus and
# 15 s on reason-stream, so a 30 s run makes two or three passes.
CORPUS_CASES = 500
STREAMS = 24
STREAM_SIZES = (150, 200, 250, 300, 350, 400)

WORKLOADS = {"corpus": corpus, "reason-stream": reason_stream}
