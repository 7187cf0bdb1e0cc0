#!/usr/bin/env python3
"""Compare the runs of two ``BENCH_<label>.json`` files, pair by pair.

Run from the repository root:

    python3 tools/bench_compare.py BENCH_x-parent.json BENCH_x-change.json
        [--benchmark BENCHMARK.json]

The runs of each file are grouped by workload, seed and trace mode, and
the i-th run of a group in the first file (the parent) is paired with the
i-th run of the same group in the second (the change); runs without a
partner are left out.  For each end-to-end metric that ``BENCHMARK.json``
lists, in its order, the script prints each side's median and quartiles,
the change of the median, how many pairs the change wins (a tie counts for
neither side), and whether the gain rule holds: at least ten pairs, the
change winning at least nine tenths of them, and the medians further
apart than the parent's quartiles.  A gain is claimed only when it holds.
It also says whether the change's median is within the metric's bound of
the parent's.  The direction in which a metric is better and its bound
are read from ``BENCHMARK.json``, which is not written.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def end_to_end(benchmark: str | Path = BENCHMARK) -> list[dict]:
    """The end-to-end metrics of ``BENCHMARK.json``: name, unit, better and bound."""
    with open(benchmark, encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def pair_runs(parent: list[dict], change: list[dict]) -> dict[tuple, list[tuple[dict, dict]]]:
    """``(workload, seed, trace)`` -> the runs of both sides paired in the order they were made."""
    groups: dict[tuple, tuple[list[dict], list[dict]]] = {}
    for side, runs in enumerate((parent, change)):
        for run in runs:
            key = (run["workload"], run["seed"], run.get("trace", 0))
            groups.setdefault(key, ([], []))[side].append(run)
    return {key: list(zip(p, c)) for key, (p, c) in groups.items() if p and c}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (``statistics.quantiles``' default method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(pairs: list[tuple[dict, dict]], metric: dict) -> dict | None:
    """The comparison of one metric over ``pairs``; None when some run lacks it."""
    name = metric["name"]
    try:
        p = [float(a["metrics"][name]["value"]) for a, _ in pairs]
        c = [float(b["metrics"][name]["value"]) for _, b in pairs]
    except KeyError:
        return None
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    gap = sign * (cq[1] - pq[1])
    iqr = pq[2] - pq[0]
    relative = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
    return {
        "name": name,
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": pq,
        "change": cq,
        "relative": relative,
        "wins": wins,
        "pairs": len(pairs),
        "gap": gap,
        "parent_iqr": iqr,
        "gain_rule": len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > iqr,
        # no worse than the parent's median by more than the bound
        "within_bound": -sign * relative <= metric["bound"],
    }


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def report(parent: list[dict], change: list[dict], metrics: list[dict]) -> str:
    lines = []
    for (workload, seed, trace), pairs in pair_runs(parent, change).items():
        traced = ", traced" if trace else ""
        lines.append(f"{workload} seed {seed}{traced}: {len(pairs)} pairs")
        for metric in metrics:
            r = compare(pairs, metric)
            if r is None:
                continue
            (p1, p2, p3), (c1, c2, c3) = r["parent"], r["change"]
            if r["pairs"] < MIN_PAIRS:
                rule = f"gain rule not tested ({r['pairs']} < {MIN_PAIRS} pairs)"
            else:
                rule = "gain rule holds" if r["gain_rule"] else "gain rule does not hold"
            lines.append(
                f"  {r['name']} ({r['unit']}, {r['better']} is better):"
                f" parent {_fmt(p2)} (q {_fmt(p1)}-{_fmt(p3)})"
                f" -> change {_fmt(c2)} (q {_fmt(c1)}-{_fmt(c3)}),"
                f" {r['relative']:+.1%}, wins {r['wins']}/{r['pairs']},"
                f" gap {_fmt(r['gap'])} vs parent IQR {_fmt(r['parent_iqr'])}, {rule},"
                f" {'within' if r['within_bound'] else 'OUTSIDE'} bound {metric['bound']:.0%}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark", default=str(BENCHMARK))
    args = p.parse_args(argv)
    print(report(load_runs(args.parent), load_runs(args.change), end_to_end(args.benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
