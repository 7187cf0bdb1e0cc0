#!/usr/bin/env python3
"""Fit ``run.SLOWDOWN_EXPONENT`` on this machine.

Run from the repository root, at a time when other tenants slow the host
down for part of the run:

    python3 perfbench/fit_slowdown.py --seconds 120

For each kind of work it alternates calibration loops with a fixed piece
of that work, sorts the samples by calibration time and compares the
median of the sixth with the fastest calibration with that of the sixth
with the slowest.  The exponent is log(work ratio) / log(calibration
ratio).  A host that stayed quiet gives ratios near 1 and no exponent.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import run  # noqa: E402


def timed_cases(cases):
    def work():
        tally = run.Tally()
        for index, ops in enumerate(cases):
            tally.run_case(index, ops, first=False)

    return work


def fit(work, seconds):
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        loops = run.calibration_times(3)
        started = time.perf_counter()
        work()
        elapsed = time.perf_counter() - started
        samples.append((statistics.median(loops + run.calibration_times(3)), elapsed))
    samples.sort()
    sixth = max(1, len(samples) // 6)
    fast, slow = samples[:sixth], samples[-sixth:]
    cal = statistics.median(c for c, _ in slow) / statistics.median(c for c, _ in fast)
    took = statistics.median(t for _, t in slow) / statistics.median(t for _, t in fast)
    return len(samples), cal, took


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=120, help="per kind of work")
    seconds = p.parse_args().seconds
    sys.path[:0] = [run.SRC]
    import workloads

    workdir = os.path.join(run.WORKDIR, "fit")
    kinds = {
        "corpus": timed_cases(workloads.corpus(1, workdir).cases[:8]),
        "reason-stream": timed_cases([workloads.reason_stream(1, workdir).cases[0][:2]]),
        # includes the set-up's own ten calibration loops, about 3% of it
        "setup": lambda: run.setup("corpus", 1),
    }
    try:
        for name, work in kinds.items():
            n, cal, took = fit(work, seconds)
            e = f"{math.log(took) / math.log(cal):.2f}" if cal > 1.1 else "none, host too quiet"
            print(f"{name}: {n} samples, calibration {cal:.2f}x, work {took:.2f}x, exponent {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORKDIR)


if __name__ == "__main__":
    main()
