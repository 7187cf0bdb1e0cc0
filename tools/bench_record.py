#!/usr/bin/env python3
"""Record runs of the benchmark in ``BENCH_<label>.json`` files.

Run from the repository root:

    python3 tools/bench_record.py LABEL --workload corpus --seed 1 [--seconds 30]
        [--trace 0] [--tree DIR]

The script runs ``perfbench/run.py`` of the checkout at ``--tree`` (by
default the current directory) unchanged, as a subprocess whose working
directory is that checkout.  From its standard output it reads the last
line, one JSON object, and the ``oracle cost`` and ``digest`` lines before
it.  It appends one run to ``BENCH_<label>.json`` in the current directory,
with the checkout's commit, whether its tracked files differ from that
commit, the workload, seed, run length, trace mode, host core count and
Python version.  A file holds the runs of one label in the order they were
made, so alternating pairs of two checkouts go to two labels, pair by pair.
A run that exits non-zero is not recorded.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys


def parse_output(text: str) -> dict:
    """The report of one ``perfbench/run.py`` run, read from its standard output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"last line is not JSON: {lines[-1]!r}") from exc
    if not isinstance(report, dict) or "metrics" not in report:
        raise ValueError("last line is not a benchmark report")
    out = {
        "correct": report.get("correct"),
        "attempted": report.get("attempted"),
        "failed": report.get("failed"),
        "metrics": report["metrics"],
        "oracle_cost": None,
        "digest": None,
    }
    for line in lines[:-1]:
        if line.startswith("oracle cost of one pass:"):
            words = line.split(":", 1)[1].split()
            out["oracle_cost"] = {k: _number(v) for k, v in zip(words[::2], words[1::2])}
        elif line.startswith("digest "):
            out["digest"] = line.split()[1]
    return out


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _git(tree: str, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", tree, *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def checkout_of(tree: str) -> dict:
    """The commit of ``tree`` and whether its tracked files differ from it."""
    commit = _git(tree, "rev-parse", "HEAD")
    status = _git(tree, "status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": bool(status) if commit else None}


def append_run(path: str, label: str, run: dict) -> None:
    """Add ``run`` to the runs of ``label`` kept in ``path``."""
    record = {"label": label, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("label") != label:
            raise ValueError(f"{path} holds label {record.get('label')!r}, not {label!r}")
    record["runs"].append(run)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(path + ".tmp", path)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("label")
    p.add_argument("--workload", required=True, choices=["corpus", "reason-stream"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tree", default=".")
    args = p.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        p.error("a label is letters, digits, '-' and '_'")
    tree = os.path.abspath(args.tree)
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        print(f"bench_record: run.py exited {done.returncode}; nothing recorded", file=sys.stderr)
        return 1
    run = {
        **checkout_of(tree),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        **parse_output(done.stdout),
    }
    append_run(f"BENCH_{args.label}.json", args.label, run)
    metrics = run["metrics"]
    print(args.label, args.workload, args.seed, run["digest"], " ".join(
        f"{k} {metrics[k]['value']:.6g}" for k in sorted(metrics) if "." not in k
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
