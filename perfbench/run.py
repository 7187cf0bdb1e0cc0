#!/usr/bin/env python3
"""Benchmark for elhlearn: one workload per run, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The seed fixes a pool of cases (``workloads.py``).  With ``--trace 0`` the
run sets the workload up seven times and reports the median set-up time,
scaled like the op timings below.  It then makes passes over the whole
pool until ``--seconds`` have passed, at least two of them, and reports
the end-to-end metrics.  A calibration loop is timed before each case, and
each op timing is scaled to the speed of a quiet machine by the median
calibration time of the nearby cases.  Each op counts with the median of
its scaled timings over the passes.  Both damp slowdowns caused by other
tenants of the machine.  With ``--trace 1`` the run takes the first
``TRACED_CASES`` cases of the pool and runs each of them untraced and then
with every measured layer wrapped.  It reports the per-layer metrics and
the tracing overhead: the summed op time of the traced runs minus that of
the untraced ones, each case's difference scaled by a calibration timed
just before it.

The run re-executes itself once with ``PYTHONHASHSEED`` set from the
seed, so that one seed gives the same transcripts in every process.

Every op's output is checked after its timed span, on every pass.  The
last line of standard output is one JSON object.  The lines before it give
the same numbers for people, with the sample count, the oracle cost of one
pass and the workload digest.
"""

from __future__ import annotations

import sys

# compile from source on every run: no byte-code files in the checkout and
# no difference in import cost between a first run and later ones
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
WORKDIR = os.path.abspath(".perfbench")
SETUP_REPEATS = 7
MIN_PASSES = 2  # the second pass checks that every case repeats its digest
# The traced run covers at most this many cases of the pool: every layer
# shows on them, and the traced run of corpus (about a million spans per
# hundred cases) stays well inside the time a run may take.
TRACED_CASES = 150
# A case's speed is the median calibration time of the cases this many
# places before and after it: a window of a few seconds, shorter than the
# host's slow stretches and long enough to outvote one odd loop.
CALIBRATION_WINDOW = 4
# The calibration loop takes about this long on the quiet machine the
# benchmark was tuned on (2 vCPU Intel Xeon, Python 3.11).
CALIBRATION_REF_S = 0.001
# When other tenants slow the host down, work slows by the calibration
# time's slowdown to this power.  Fitted on that machine by
# ``fit_slowdown.py``, which alternates calibration loops with a fixed
# piece of each kind of work and compares the fastest and slowest sixth.
SLOWDOWN_EXPONENT = {"corpus": 0.75, "reason-stream": 1.0, "setup": 0.75}


def calibrate():
    """Fixed pure-Python work shaped like the reasoner's; times the machine, not the package."""
    table: dict = {}
    for i in range(600):
        key = ("n", f"v{i % 50}")
        table.setdefault(key, set()).add(f"A{i % 7}")
        edge = (frozenset((f"r{i % 3}", f"s{i % 2}")), ("a", str(i % 11)))
        table.setdefault(edge, set()).add(key[1])
    return len(sorted(table, key=repr))


def speed(calibration, exponent):
    """Factor that takes a timing made at this calibration time to the quiet machine."""
    return (CALIBRATION_REF_S / calibration) ** exponent


def calibration_times(loops):
    times = []
    for _ in range(loops):
        started = time.perf_counter()
        calibrate()
        times.append(time.perf_counter() - started)
    return times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["corpus", "reason-stream"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


class Tally:
    """Timings, failures, oracle cost and digests of the passes run so far."""

    def __init__(self, exponent=1.0):
        self.exponent = exponent
        self.passes: list[tuple[list[float], list[float]]] = []  # (raw, scaled) op timings
        self.calibrations: list[float] = []  # median calibration time of each pass
        self.op_time = 0.0  # summed timings of every run of every op
        self._this_case: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.case_digests: dict[int, str] = {}
        self.mismatched: set[int] = set()
        self.mq = self.eq = self.oracle_input = 0
        self.budget_ratio_max = 0.0
        self.pac_runs = self.pac_within_eps = 0

    def run_pass(self, cases, first, untraced=contextlib.nullcontext):
        """One pass over the pool, with the calibration loop timed before each case."""
        loops, per_case = [], []
        for index, ops in enumerate(cases):
            loops += calibration_times(1)
            self._this_case = []
            self.run_case(index, ops, first, untraced)
            per_case.append(self._this_case)
        raw, scaled = [], []
        w = CALIBRATION_WINDOW
        for i, timings in enumerate(per_case):
            factor = speed(statistics.median(loops[max(0, i - w):i + w + 1]), self.exponent)
            raw += timings
            scaled += [t * factor for t in timings]
        self.passes.append((raw, scaled))
        self.calibrations.append(statistics.median(loops))

    def latency_metrics(self, scaled=True) -> dict[str, tuple[float, str]]:
        """Each op's median timing over the passes; the figures are taken over those."""
        timings = [fast if scaled else raw for raw, fast in self.passes]
        lat = [statistics.median(column) for column in zip(*timings)]
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        return {
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_ms_p50": (deciles[4] * 1000, "ms"),
            "op_ms_p90": (deciles[8] * 1000, "ms"),
        }

    def run_case(self, index, ops, first, untraced=contextlib.nullcontext):
        digest = hashlib.sha256()
        for op in ops:
            self.attempted += 1
            started = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op, never a crash
                self._timed(time.perf_counter() - started)
                self._fail(op, f"{type(exc).__name__}: {exc}")
                continue
            self._timed(time.perf_counter() - started)
            try:
                with untraced():
                    checked = op.check(out)
            except Exception as exc:
                self._fail(op, f"check raised {type(exc).__name__}: {exc}")
                continue
            if checked.problems:
                self._fail(op, "; ".join(checked.problems))
            digest.update(op.kind.encode() + b"\0" + checked.digest.encode() + b"\0")
            if first:
                for sess in checked.sessions:
                    self.mq += sess.mq_count
                    self.eq += sess.eq_count
                    self.oracle_input += sess.mq_input_size_sum + sess.eq_input_size_sum
                if checked.budget_ratio is not None:
                    self.budget_ratio_max = max(self.budget_ratio_max, checked.budget_ratio)
                if op.kind.startswith("pac/"):
                    self.pac_runs += 1
                    self.pac_within_eps += checked.pac_within_eps
        if self.case_digests.setdefault(index, digest.hexdigest()) != digest.hexdigest():
            self.mismatched.add(index)

    def _timed(self, seconds):
        self.op_time += seconds
        self._this_case.append(seconds)

    def _fail(self, op, why):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{op.kind}: {why}")

    def digest(self):
        joined = "".join(self.case_digests[i] for i in sorted(self.case_digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def setup(name, seed):
    """Import cost in a fresh interpreter, then inputs, files and warm-up here.

    The time is scaled by the calibration loops timed just before and just
    after, as the op timings are.
    """
    import workloads

    loops = calibration_times(5)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-B", "-c", "import elhlearn, elhlearn.cli"],
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    wl = workloads.WORKLOADS[name](seed, os.path.join(WORKDIR, f"{name}-{seed}"))
    Tally().run_case(0, wl.warmup, first=False)
    elapsed = time.perf_counter() - started
    loops += calibration_times(5)
    return wl, elapsed * speed(statistics.median(loops), SLOWDOWN_EXPONENT["setup"])


def frozen_inputs():
    """Keep the generated inputs out of the collector's way while measuring."""
    gc.collect()
    gc.freeze()


def report(lines, correct, tally, metrics):
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def common_lines(args, cases, tally):
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(cases)} cases, "
        f"{tally.attempted} op runs, {tally.failed} failed "
        f"(failed_ops_share {tally.failed / tally.attempted:.4f})",
        f"oracle cost of one pass: mq_count {tally.mq} eq_count {tally.eq} "
        f"oracle_input_total {tally.oracle_input} budget_ratio_max {tally.budget_ratio_max:.6f}",
        f"digest {tally.digest()}",
    ]
    if tally.pac_runs:
        lines.append(f"pac runs within eps: {tally.pac_within_eps}/{tally.pac_runs}")
    if tally.mismatched:
        lines.append(f"NOT REPRODUCIBLE: cases {sorted(tally.mismatched)[:10]} differ between passes")
    lines += [f"FAILED {p}" for p in tally.problems]
    return lines


def run_plain(args):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        wl, seconds = setup(args.workload, args.seed)  # the last set-up's pool is measured
        setup_times.append(seconds)
    setup_s = statistics.median(setup_times)
    frozen_inputs()
    tally = Tally(SLOWDOWN_EXPONENT[args.workload])
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        tally.run_pass(wl.cases, first=passes == 0)
        passes += 1
    metrics = {
        **tally.latency_metrics(),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = common_lines(args, wl.cases, tally)
    lines.append(f"{passes} passes of {len(tally.passes[0][1])} ops; each op counts with its "
                 f"median over passes; all timings sum to {tally.op_time:.3f} s")
    lines.append("median calibration loop per pass (ms): "
                 + " ".join(f"{c * 1000:.3f}" for c in tally.calibrations))
    lines.append("unscaled: " + " ".join(
        f"{k} {v:.6g}" for k, (v, _) in tally.latency_metrics(scaled=False).items()))
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    report(lines, tally.failed == 0 and not tally.mismatched, tally, metrics)


def run_traced(args):
    import tracing

    wl, _ = setup(args.workload, args.seed)
    cases = wl.cases[:TRACED_CASES]
    frozen_inputs()
    exponent = SLOWDOWN_EXPONENT[args.workload]
    plain, traced, tracer = Tally(), Tally(), tracing.Tracer()
    overhead = 0.0
    # each case runs untraced and then traced, side by side, so that both
    # runs of it see the host in the same state
    for index, ops in enumerate(cases):
        factor = speed(statistics.median(calibration_times(3)), exponent)
        before = traced.op_time - plain.op_time
        plain.run_case(index, ops, first=True)
        with tracer.installed():
            traced.run_case(index, ops, first=True, untraced=tracer.paused)
        overhead += (traced.op_time - plain.op_time - before) * factor
    spans_path = os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.tsv.gz")
    tracer.write(spans_path)
    metrics = tracer.metrics()
    metrics.update({
        "mq_count": (plain.mq, "count"),
        "eq_count": (plain.eq, "count"),
        "oracle_input_total": (plain.oracle_input, "count"),
        "budget_ratio_max": (plain.budget_ratio_max, "ratio"),
        "trace_overhead_s": (overhead, "s"),
    })
    missing = tracing.self_check(args.workload, metrics)
    lines = common_lines(args, cases, plain)
    lines.append(f"untraced run {plain.op_time:.3f} s, traced run {traced.op_time:.3f} s, "
                 f"{tracer.span_count()} spans in {os.path.relpath(spans_path)}")
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    lines += [f"SELF-CHECK: {m} is 0 on {args.workload}" for m in missing]
    same = plain.digest() == traced.digest()
    if not same:
        lines.append("NOT REPRODUCIBLE: traced and untraced digests differ")
    correct = plain.failed == 0 and traced.failed == 0 and same and not missing
    report(lines, correct, plain, metrics)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "elhlearn", "__init__.py")):
        print("perfbench: no src/elhlearn here; run from the repository root", file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # the learners' choices follow set order, which follows string hashes:
        # pin them so that one seed gives one transcript in every process
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    sys.path[:0] = [SRC, HERE]
    try:
        (run_traced if args.trace else run_plain)(args)
    finally:
        shutil.rmtree(os.path.join(WORKDIR, f"{args.workload}-{args.seed}"), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)  # only when no span file was written
    return 0


if __name__ == "__main__":
    sys.exit(main())
