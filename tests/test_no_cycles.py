"""No reference cycles: what a run made is freed when the run ends.

Each case collects first, then runs with the cyclic collector off, drops
what the run returned and asserts that ``gc.collect()`` finds nothing.  So
everything the run made, the models of the reasoner included, was freed by
reference counting as soon as its last reference went.  A nested function
that calls itself fails this: it closes over its own cell, and that cycle
keeps whatever else it closes over alive until the collector runs.  On
failure the message names the functions whose objects were in the garbage.
The collector's state is restored whatever happens.
"""

from __future__ import annotations

import gc
import random
import types

import pytest

from genkb import covering_abox, random_abox, random_query_pool, random_terminology
from elhlearn.batch import build_batch, learn_from_batch
from elhlearn.cli import build_parser, main
from elhlearn.learn_aq import learn_aq
from elhlearn.learn_cqr import learn_cqr
from elhlearn.learn_iq import learn_iq
from elhlearn.pac import pac_from_exact, uniform_distribution
from elhlearn.reasoner import LANG_AQ, LANG_CQR, LANG_IQ, inseparable
from elhlearn.syntax import abox
from elhlearn.teacher import (
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    OracleSession,
    framework_for,
)
from elhlearn.updates import check_bisim_preservation, learn_with_updates

SEEDS = range(20)


def _functions_in(garbage: list) -> list[str]:
    """Qualified names of the functions, frames and cells' functions in ``garbage``."""
    names = set()
    for obj in garbage:
        if isinstance(obj, types.CellType):
            try:
                obj = obj.cell_contents
            except ValueError:  # an empty cell
                continue
        if isinstance(obj, (types.FunctionType, types.GeneratorType)):
            names.add(obj.__qualname__)
        elif isinstance(obj, types.FrameType):
            names.add(obj.f_code.co_qualname)
    return sorted(names)


def assert_no_cycles(run) -> None:
    """Run ``run()`` with the collector off; nothing it leaves may need the collector."""
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        run()
        # keep what a collection finds, so that a failure can name it
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        assert found == 0, (
            f"{found} objects needed the cyclic collector; functions among them: "
            f"{_functions_in(gc.garbage)}"
        )
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _kb(seed: int):
    t = random_terminology(seed)
    return t, random_abox(seed, t), covering_abox(seed, t)


QUERIES = [
    "Q: AQ A(a)",  # atomic
    "Q: AQ s(a,b)",  # role, by a role inclusion
    "Q: IQ r(a,b)",  # role instance query
    "Q: IQ a : some r. some s. B",  # concept instance query
    "Q: CQ a ; exists x, y ; r(a,x), s(x,y), B(y)",  # rooted, a tree
    "Q: CQ a, b ; exists x ; r(a,x), s(b,x)",  # x has a second parent
    "Q: CQ a, b ; exists x ; s(a,x), r(b,x)",
    "Q: CQ ; exists w ; B(w)",  # the one boolean query
    "Q: AQ A(z)",  # an individual absent from the data
    "Q: IQ z : some r. top",
]


def test_reason_leaves_no_cycles(tmp_path, capsys):
    (tmp_path / "t.tbox").write_text("CI: A [= some r. some s. B\nRI: r [= s\n")
    (tmp_path / "a.abox").write_text("A: A(a)\nA: r(a,b)\nA: A(b)\nA: r(a,c)\nA: s(b,c)\n")
    (tmp_path / "q.q").write_text("".join(f"{line}\n" for line in QUERIES))
    files = [str(tmp_path / name) for name in ("t.tbox", "a.abox", "q.q")]
    build_parser()  # built once per process; argparse's own cycles are no run's

    def run():
        assert main(["reason", *files]) == 1
        assert main(["reason", "--explain", *files]) == 1

    assert_no_cycles(run)
    verdicts = [line.rsplit(": ", 1)[1] for line in capsys.readouterr().out.splitlines()]
    entailed = [True] * 6 + [False, True, False, False]
    assert verdicts[: len(QUERIES)] == ["ENTAILED" if e else "NOT_ENTAILED" for e in entailed]


@pytest.mark.parametrize(
    "learner, lang, policy",
    [
        (learn_aq, LANG_AQ, POLICY_MINIMAL),
        (learn_iq, LANG_IQ, POLICY_MINIMAL),
        (learn_iq, LANG_IQ, POLICY_RANDOMIZED),
        (learn_cqr, LANG_CQR, POLICY_MINIMAL),
        (learn_cqr, LANG_CQR, POLICY_RANDOMIZED),
        (learn_cqr, LANG_CQR, POLICY_ADVERSARIAL_CQ),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_learners_leave_no_cycles(learner, lang, policy):
    def run():
        for seed in SEEDS:
            t, a0, _ = _kb(seed)
            learner(OracleSession(t, framework_for(t, a0, lang), policy, seed))

    assert_no_cycles(run)


def test_learning_with_updates_leaves_no_cycles():
    def run():
        for seed in SEEDS:
            t, _, cover = _kb(seed)
            fw = framework_for(t, cover, LANG_IQ, update_closure=True, closure_cap=30)
            learn_with_updates(OracleSession(t, fw, seed=seed))

    assert_no_cycles(run)


@pytest.mark.parametrize("lang", [LANG_AQ, LANG_IQ, LANG_CQR])
def test_batches_leave_no_cycles(lang):
    def run():
        for seed in SEEDS:
            t, _, cover = _kb(seed)
            learn_from_batch(build_batch(t, cover, lang, seed=seed), cover, lang)

    assert_no_cycles(run)


@pytest.mark.parametrize("lang, learner", [(LANG_IQ, learn_iq), (LANG_CQR, learn_cqr)])
def test_pac_leaves_no_cycles(lang, learner):
    def run():
        for seed in SEEDS:
            t, a0, _ = _kb(seed)
            pool = [(a0, q) for q in random_query_pool(seed, t, a0)]
            session = OracleSession(t, framework_for(t, a0, lang), seed=seed)
            pac_from_exact(session, learner, 0.1, 0.1, uniform_distribution(pool, seed=seed))

    assert_no_cycles(run)


def test_preservation_and_inseparability_leave_no_cycles():
    def run():
        checked = 0
        for seed in SEEDS:
            t, a0, _ = _kb(seed)
            h = learn_iq(OracleSession(t, framework_for(t, a0, LANG_IQ))).hypothesis
            rng = random.Random(seed)
            chosen = sorted(rng.sample(sorted(a0.individuals()), 1 + len(a0.individuals()) // 2))
            rename = {i: f"{i}_v" for i in chosen}
            copy = abox(
                concepts={(n, rename[i]) for n, i in a0.concept_assertions if i in rename},
                roles={
                    (r, rename[x], rename[y])
                    for r, x, y in a0.role_assertions
                    if x in rename and y in rename
                },
                declared=set(rename.values()),
            )
            if inseparable(t, h, a0, LANG_IQ) is None:
                checked += check_bisim_preservation(t, h, a0, a0.union(copy))
            inseparable(t, h, copy, LANG_CQR)
        assert checked

    assert_no_cycles(run)
