"""Command-line driver.

Subcommands: ``reason``, ``learn``, ``update-check``, ``batch build``,
``batch learn``, ``pac run``, ``vc check``.  Verdicts go to stdout as plain
text, statistics as JSON.  Exit codes: 0 ok/entailed, 1 not-entailed or
separable or not-preserved, 2 parse error, bad input (a name used as two
of concept, role and individual, say) or an output file that cannot be
written, 3 unsupported query language,
4 budget exceeded.  Set ``ELH_LOG`` to a logging level name for diagnostics.

``main`` may be called any number of times in one process.  The argument
parser is built once per process, the first time it is needed, and
``ELH_LOG`` is read afresh on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

from . import batch as batchmod
from . import pac as pacmod
from . import reasoner, teacher, textio, updates
from .learn_aq import learn_aq
from .learn_cqr import learn_cqr
from .learn_iq import learn_iq
from .syntax import (
    AtomicQuery,
    BudgetExceededError,
    ConceptQuery,
    ConfigurationError,
    ElhError,
    Query,
    UnsupportedQueryError,
    check_namespaces,
    size_of,
)
from .textio import ParseError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_BUDGET = 4

log = logging.getLogger("elhlearn")


def _setup_logging() -> None:
    """Give the root logger a handler once; set ``log``'s level from ``ELH_LOG`` each call."""
    logging.basicConfig()
    level = getattr(logging, os.environ.get("ELH_LOG", "WARNING").upper(), None)
    log.setLevel(level if isinstance(level, int) else logging.WARNING)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 at byte {exc.start}")


def _write(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}")


def _check_writable(*paths: str | None) -> None:
    """Open each given output for appending, so that an unwritable one fails before the run.

    An existing file keeps its contents; a new one is removed again, so a
    run that fails leaves none.
    """
    for path in paths:
        if path:
            new = not os.path.exists(path)
            _write(path, "", "a")
            if new:
                os.remove(path)


def cmd_reason(args: argparse.Namespace) -> int:
    t = textio.parse_tbox(_read(args.tbox))
    a = textio.parse_abox(_read(args.abox))
    check_namespaces([t], [a])
    queries = textio.parse_queries(_read(args.queries))
    if not queries:
        raise ParseError("query file holds no queries")
    cache = reasoner.ModelCache()
    all_entailed = True
    for q in queries:
        verdict = reasoner.answers_query(t, a, q, cache)
        all_entailed = all_entailed and verdict
        print(f"{textio.serialize_query(q)[3:].strip()}: "
              f"{'ENTAILED' if verdict else 'NOT_ENTAILED'}")
        if args.explain:
            print(json.dumps(_explanation(cache.get(t, a), q, verdict), sort_keys=True))
    return EXIT_OK if all_entailed else EXIT_NEGATIVE


def _explanation(model: reasoner.RegularModel, q: Query, verdict: bool) -> dict:
    info: dict = {"verdict": "entailed" if verdict else "not-entailed"}
    if isinstance(q, ConceptQuery):
        el = ("n", q.ind)
        if el in model.labels:
            info["individualLabel"] = sorted(model.labels[el])
            info["individualEdges"] = [
                {"roles": sorted(roles), "target": list(tgt)}
                for roles, tgt in model.edges[el]
            ]
    if isinstance(q, AtomicQuery) and len(q.args) == 1:
        el = ("n", q.args[0])
        if el in model.labels:
            info["individualLabel"] = sorted(model.labels[el])
    return info


LEARNERS = {"aq": learn_aq, "iq": learn_iq, "cqr": learn_cqr}
LANGS = {"aq": reasoner.LANG_AQ, "iq": reasoner.LANG_IQ, "cqr": reasoner.LANG_CQR}


def cmd_learn(args: argparse.Namespace) -> int:
    target = textio.parse_tbox(_read(args.target))
    a0 = textio.parse_abox(_read(args.abox))
    lang = LANGS[args.mode]
    fw = teacher.framework_for(target, a0, lang)  # checks the namespaces
    session = teacher.OracleSession(
        target, fw, policy=args.oracle_policy, seed=args.seed, max_total_input=args.budget
    )
    _check_writable(args.out, args.stats, args.transcript)
    try:
        result = LEARNERS[args.mode](session)
        hypothesis = result.hypothesis
    except BudgetExceededError as exc:
        log.warning("budget exceeded: %s", exc)
        partial = exc.partial
        if args.out and partial is not None:
            _write(args.out, textio.serialize_tbox(partial))
        print(json.dumps({"budgetExceeded": True, "partialWritten": partial is not None}))
        return EXIT_BUDGET
    verified = reasoner.inseparable(target, hypothesis, a0, lang) is None
    stats = {
        "mqCount": session.mq_count,
        "eqCount": session.eq_count,
        "totalQueryInputSize": session.mq_input_size_sum + session.eq_input_size_sum,
        "hypothesisSize": size_of(hypothesis),
        "iterations": result.iteration_count(),
        "conversions": result.conversions,
        "largestCounterexample": session.largest_counterexample,
        "verifiedInseparable": verified,
    }
    if args.out:
        _write(args.out, textio.serialize_tbox(hypothesis))
    else:
        sys.stdout.write(textio.serialize_tbox(hypothesis))
    if args.stats:
        _write(args.stats, json.dumps(stats, indent=2, sort_keys=True))
    if args.transcript:
        _write(args.transcript, session.export_transcript())
    print(json.dumps(stats, sort_keys=True))
    return EXIT_OK if verified else EXIT_NEGATIVE


def cmd_update_check(args: argparse.Namespace) -> int:
    t = textio.parse_tbox(_read(args.tbox))
    h = textio.parse_tbox(_read(args.hypothesis))
    a0 = textio.parse_abox(_read(args.abox0))
    a = textio.parse_abox(_read(args.abox))
    check_namespaces([t, h], [a0, a])
    preserved = updates.check_bisim_preservation(t, h, a0, a)
    print("PRESERVED" if preserved else "NOT_PRESERVED")
    return EXIT_OK if preserved else EXIT_NEGATIVE


def cmd_batch_build(args: argparse.Namespace) -> int:
    target = textio.parse_tbox(_read(args.target))
    a0 = textio.parse_abox(_read(args.abox))
    check_namespaces([target], [a0])
    _check_writable(args.out)
    items = batchmod.build_batch(target, a0, LANGS[args.mode], seed=args.seed)
    text = batchmod.dump_batch(items)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    print(json.dumps({"items": len(items)}, sort_keys=True))
    return EXIT_OK


def cmd_batch_learn(args: argparse.Namespace) -> int:
    items = batchmod.load_batch(_read(args.batch))
    a0 = textio.parse_abox(_read(args.abox))
    check_namespaces([], [a0] + [item.abox for item in items])
    _check_writable(args.out)
    h = batchmod.learn_from_batch(items, a0, LANGS[args.mode])
    if args.out:
        _write(args.out, textio.serialize_tbox(h))
    else:
        sys.stdout.write(textio.serialize_tbox(h))
    return EXIT_OK


def cmd_pac_run(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigurationError("--trials must be at least 1")
    if not (args.dist or args.queries):
        raise ConfigurationError("pac run needs --dist or --queries")
    if args.dist and args.queries:
        raise ConfigurationError("pac run takes --dist or --queries, not both")
    target = textio.parse_tbox(_read(args.target))
    a0 = textio.parse_abox(_read(args.abox))
    lang = LANGS[args.mode]
    if args.dist:
        payload = textio.parse_json(_read(args.dist))
        support = tuple(
            (
                textio.parse_abox(textio.json_field(e, "abox", str)),
                textio.parse_query(textio.json_field(e, "query", str)),
            )
            for e in textio.json_field(payload, "examples", list)
        )
        weights = textio.json_field(payload, "weights", list)
        # JSON ``true`` reads as a bool, which Python counts as an int
        if not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights):
            raise ParseError("weights must be numbers")
        dist = pacmod.Distribution(support, tuple(weights))
    else:
        queries = textio.parse_queries(_read(args.queries))
        dist = pacmod.uniform_distribution([(a0, q) for q in queries])
    check_namespaces([target], [a0] + [a for a, _ in dist.support])
    fw = teacher.framework_for(target, a0, lang)
    _check_writable(args.stats, args.csv)
    trials = []
    for trial in range(args.trials):
        session = teacher.OracleSession(target, fw, seed=args.seed + trial)
        out = pacmod.pac_from_exact(session, LEARNERS[args.mode], args.eps, args.delta, dist)
        err = pacmod.true_error(out.hypothesis, target, a0, dist)
        trials.append(
            {
                "seed": args.seed + trial,
                "schedule": out.schedule,
                "samplesUsed": out.samples_used,
                "trueError": err,
            }
        )
    report = {
        "eps": args.eps,
        "delta": args.delta,
        "trials": trials,
        "withinEps": sum(1 for t in trials if t["trueError"] <= args.eps),
    }
    print(json.dumps(report, sort_keys=True))
    if args.stats:
        _write(args.stats, json.dumps(report, indent=2, sort_keys=True))
    if args.csv:
        rows = ["seed,samplesUsed,eqRounds,trueError"]
        rows += [
            f"{t['seed']},{t['samplesUsed']},{len(t['schedule'])},{t['trueError']}"
            for t in trials
        ]
        _write(args.csv, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_vc_check(args: argparse.Namespace) -> int:
    if pacmod.shattering_exceeds_budget(args.n):
        raise BudgetExceededError(
            f"shattering {args.n} examples takes {args.n} + 1 evaluations but lists "
            f"{args.n} * 2**{args.n} behaviour labels, more than the "
            f"{pacmod.SHATTER_BUDGET} allowed"
        )
    ring = pacmod.cyclic_abox(args.n)
    if args.extra_loop:
        ring = type(ring)(
            ring.concept_assertions,
            ring.role_assertions | {("s", f"a{args.n}", f"a{args.n}")},
            ring.declared,
        )
    ok = pacmod.ring_shattered(ring, args.n)
    print("SHATTERED" if ok else "NOT_SHATTERED")
    return EXIT_OK if ok else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``elh`` parser, built on the first call and returned by every later one.

    In-process callers of ``main`` (tests, the benchmark, programs that
    embed the CLI) pay for the build once, not per call; a one-shot ``elh``
    process builds it once, as before.  Each ``parse_args`` still returns a
    fresh ``Namespace``.  The parser is shared, so callers must not modify it.
    """
    p = argparse.ArgumentParser(prog="elh", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    reason = sub.add_parser("reason", help="decide entailment of queries over a KB")
    reason.add_argument("tbox")
    reason.add_argument("abox")
    reason.add_argument("queries")
    reason.add_argument("--explain", action="store_true")
    reason.set_defaults(fn=cmd_reason)

    learn = sub.add_parser("learn", help="learn a hypothesis from a simulated oracle")
    learn.add_argument("--mode", choices=sorted(LEARNERS), required=True)
    learn.add_argument("target")
    learn.add_argument("abox")
    learn.add_argument("--oracle-policy", default=teacher.POLICY_MINIMAL,
                       choices=[teacher.POLICY_MINIMAL, teacher.POLICY_RANDOMIZED,
                                teacher.POLICY_ADVERSARIAL_CQ])
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--budget", type=int, default=None)
    learn.add_argument("--out")
    learn.add_argument("--stats")
    learn.add_argument("--transcript")
    learn.set_defaults(fn=cmd_learn)

    upd = sub.add_parser("update-check", help="does inseparability survive an update?")
    upd.add_argument("tbox")
    upd.add_argument("hypothesis")
    upd.add_argument("abox0")
    upd.add_argument("abox")
    upd.set_defaults(fn=cmd_update_check)

    b = sub.add_parser("batch", help="build a batch or learn from one")
    bsub = b.add_subparsers(dest="batch_command", required=True)
    bb = bsub.add_parser("build")
    bb.add_argument("--mode", choices=sorted(LEARNERS), required=True)
    bb.add_argument("target")
    bb.add_argument("abox")
    bb.add_argument("--seed", type=int, default=0)
    bb.add_argument("--out")
    bb.set_defaults(fn=cmd_batch_build)
    bl = bsub.add_parser("learn")
    bl.add_argument("--mode", choices=sorted(LEARNERS), required=True)
    bl.add_argument("batch")
    bl.add_argument("abox")
    bl.add_argument("--out")
    bl.set_defaults(fn=cmd_batch_learn)

    pr = sub.add_parser("pac", help="probably-approximately-correct runs")
    psub = pr.add_subparsers(dest="pac_command", required=True)
    run = psub.add_parser("run")
    run.add_argument("--mode", choices=sorted(LEARNERS), required=True)
    run.add_argument("target")
    run.add_argument("abox")
    run.add_argument("--eps", type=float, default=0.1)
    run.add_argument("--delta", type=float, default=0.1)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--dist", help="JSON distribution file")
    run.add_argument("--queries", help="query file for a uniform distribution")
    run.add_argument("--stats")
    run.add_argument("--csv", help="per-trial rows for external plotting")
    run.set_defaults(fn=cmd_pac_run)

    vc = sub.add_parser("vc", help="shattering checks")
    vsub = vc.add_subparsers(dest="vc_command", required=True)
    check = vsub.add_parser("check")
    check.add_argument("--n", type=int, required=True)
    check.add_argument("--extra-loop", action="store_true",
                       help="also close the last self loop, which kills shattering")
    check.set_defaults(fn=cmd_vc_check)

    return p


def main(argv: list[str] | None = None) -> int:
    """Run one ``elh`` command line and return its exit code.

    May be called repeatedly in one process: the parser is built on the
    first call only, and ``ELH_LOG`` is read on every call.
    """
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedQueryError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ElhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
