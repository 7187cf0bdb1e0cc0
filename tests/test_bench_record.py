"""``tools/bench_record.py`` reads the benchmark's report and keeps runs per label;
``tools/bench_compare.py`` pairs the runs of two labels and applies the gain rule.

The outputs and the run files below are canned: no benchmark runs here.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH.with_name("bench_compare.py"))
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)

PLAIN = """\
workload corpus seed 1: 500 cases, 12000 op runs, 0 failed (failed_ops_share 0.0000)
oracle cost of one pass: mq_count 52679 eq_count 3731 oracle_input_total 1238200 budget_ratio_max 0.103661
digest 87c3f4c5fc6affbe20c60fd73b73d22de8f2bb40272302a763870d17abdbc68d
pac runs within eps: 500/500
2 passes of 6000 ops; each op counts with its median over passes; all timings sum to 7.203 s
ops_per_s 1666.2 1/s
{"correct": true, "attempted": 12000, "failed": 0, "metrics": {"ops_per_s": {"value": 1666.198155030944, "unit": "1/s"}, "op_ms_p50": {"value": 0.28901934122974754, "unit": "ms"}}}
"""

TRACED = """\
workload reason-stream seed 1: 24 cases, 144 op runs, 1 failed (failed_ops_share 0.0069)
oracle cost of one pass: mq_count 0 eq_count 0 oracle_input_total 0 budget_ratio_max 0.000000
digest 5f6cb3dac85caa536806108bda033fef4ed4bd79b6f065fed8cc12d989e2d22a
FAILED reason: boom
reasoner.build_model.calls 480 count
{"correct": false, "attempted": 144, "failed": 1, "metrics": {"reasoner.build_model.calls": {"value": 480, "unit": "count"}}}

"""


def test_reads_the_report_the_oracle_cost_and_the_digest():
    run = bench_record.parse_output(PLAIN)
    assert run["correct"] is True and (run["attempted"], run["failed"]) == (12000, 0)
    assert run["metrics"]["op_ms_p50"] == {"value": 0.28901934122974754, "unit": "ms"}
    assert run["oracle_cost"] == {
        "mq_count": 52679,
        "eq_count": 3731,
        "oracle_input_total": 1238200,
        "budget_ratio_max": 0.103661,
    }
    assert type(run["oracle_cost"]["mq_count"]) is int
    assert run["digest"] == "87c3f4c5fc6affbe20c60fd73b73d22de8f2bb40272302a763870d17abdbc68d"


def test_reads_a_traced_report_with_a_failed_op():
    run = bench_record.parse_output(TRACED)
    assert (run["correct"], run["failed"]) == (False, 1)
    assert run["metrics"] == {"reasoner.build_model.calls": {"value": 480, "unit": "count"}}
    assert run["digest"].startswith("5f6cb3da")


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", PLAIN.rsplit("\n", 2)[0], "Traceback (most recent call last):\n", "[1, 2]\n"],
    ids=["empty", "blank", "no-json", "traceback", "not-a-report"],
)
def test_output_without_a_report_is_an_error(text):
    with pytest.raises(ValueError):
        bench_record.parse_output(text)


def test_runs_of_one_label_accumulate_in_one_file(tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    bench_record.append_run(path, "x", {"seed": 1})
    bench_record.append_run(path, "x", {"seed": 2})
    assert json.loads(Path(path).read_text()) == {"label": "x", "runs": [{"seed": 1}, {"seed": 2}]}
    with pytest.raises(ValueError):
        bench_record.append_run(path, "y", {"seed": 3})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_x.json"]


# two metrics of opposite directions, as ``BENCHMARK.json`` lists them
METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _run(workload: str, seed: int, ops: float, rss: float, trace: int = 0) -> dict:
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": workload, "seed": seed, "trace": trace, "metrics": metrics}


def _write(tmp_path, parent: list[dict], change: list[dict]) -> tuple[str, str, str]:
    paths = [str(tmp_path / name) for name in ("BENCH_x-parent.json", "BENCH_x-change.json")]
    for path, label, runs in zip(paths, ("x-parent", "x-change"), (parent, change)):
        Path(path).write_text(json.dumps({"label": label, "runs": runs}))
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS, "per_layer": []}, indent=2))
    return paths[0], paths[1], str(bench)


def test_runs_pair_in_order_per_workload_seed_and_trace():
    parent = [_run("corpus", 1, 1, 50), _run("stream", 1, 2, 20), _run("corpus", 1, 3, 51),
              _run("corpus", 9, 4, 52), _run("corpus", 1, 5, 53, trace=1)]
    change = [_run("stream", 1, 12, 21), _run("corpus", 1, 11, 40), _run("corpus", 1, 13, 41),
              _run("corpus", 1, 14, 42)]
    pairs = bench_compare.pair_runs(parent, change)
    assert list(pairs) == [("corpus", 1, 0), ("stream", 1, 0)]
    values = [(p["metrics"]["ops_per_s"]["value"], c["metrics"]["ops_per_s"]["value"])
              for p, c in pairs[("corpus", 1, 0)]]
    assert values == [(1, 11), (3, 13)]


def test_wins_count_in_the_better_direction_and_ties_for_neither():
    parent = [_run("corpus", 1, 100, 50) for _ in range(4)]
    change = [_run("corpus", 1, ops, rss) for ops, rss in [(110, 40), (100, 50), (90, 60), (120, 50)]]
    pairs = bench_compare.pair_runs(parent, change)[("corpus", 1, 0)]
    ops, rss = (bench_compare.compare(pairs, m) for m in METRICS)
    assert (ops["wins"], rss["wins"]) == (2, 1)
    # read the other way round, the same pairs give the other side's wins
    flipped = [dict(m, better="lower" if m["better"] == "higher" else "higher") for m in METRICS]
    assert [bench_compare.compare(pairs, m)["wins"] for m in flipped] == [1, 1]


def _rss_pairs(parent_rss: list[float], change_rss: list[float]):
    runs = [[_run("corpus", 1, 100, v) for v in side] for side in (parent_rss, change_rss)]
    return bench_compare.pair_runs(*runs)[("corpus", 1, 0)]


def test_the_gain_rule_needs_ten_pairs_nine_wins_and_a_gap_wider_than_the_parents_quartiles():
    parent = [54.0, 54.2, 53.8, 54.1, 53.9, 54.0, 54.3, 53.7, 54.0, 54.1]
    holds = bench_compare.compare(_rss_pairs(parent, [v - 5 for v in parent]), METRICS[1])
    assert holds["gain_rule"] and holds["wins"] == 10 and holds["gap"] == pytest.approx(5)
    assert holds["parent"][1] == 54.0 and holds["within_bound"]
    # eight wins out of ten
    two_lost = [v - 5 for v in parent[:8]] + [v + 1 for v in parent[8:]]
    assert not bench_compare.compare(_rss_pairs(parent, two_lost), METRICS[1])["gain_rule"]
    # every pair won, by less than the parent's spread
    narrow = bench_compare.compare(_rss_pairs(parent, [v - 0.01 for v in parent]), METRICS[1])
    assert narrow["wins"] == 10 and narrow["gap"] < narrow["parent_iqr"] and not narrow["gain_rule"]
    # nine pairs, all won
    assert not bench_compare.compare(_rss_pairs(parent[:9], [v - 5 for v in parent[:9]]), METRICS[1])["gain_rule"]


def test_a_median_worse_by_more_than_the_bound_is_flagged():
    worse = bench_compare.compare(_rss_pairs([50.0] * 3, [56.0] * 3), METRICS[1])
    assert worse["relative"] == pytest.approx(0.12) and not worse["within_bound"]
    assert bench_compare.compare(_rss_pairs([50.0] * 3, [54.0] * 3), METRICS[1])["within_bound"]


def test_a_metric_missing_from_a_run_is_left_out():
    parent, change = [_run("corpus", 1, 100, 50)], [_run("corpus", 1, 110, 40)]
    del change[0]["metrics"]["peak_rss_mb"]
    pairs = bench_compare.pair_runs(parent, change)[("corpus", 1, 0)]
    assert bench_compare.compare(pairs, METRICS[1]) is None
    assert "peak_rss_mb" not in bench_compare.report(parent, change, METRICS)


def test_main_prints_every_metric_and_leaves_the_benchmark_file_as_it_was(tmp_path, capsys):
    parent = [_run("corpus", 1, 100 + k, 54 + k / 10) for k in range(10)]
    change = [_run("corpus", 1, 101 + k, 49 + k / 10) for k in range(10)]
    parent_path, change_path, bench = _write(tmp_path, parent, change)
    before = Path(bench).read_bytes()
    assert bench_compare.main([parent_path, change_path, "--benchmark", bench]) == 0
    assert Path(bench).read_bytes() == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "corpus seed 1: 10 pairs"
    assert lines[1].startswith("  ops_per_s (1/s, higher is better): parent 104.5 (q ")
    assert "wins 10/10" in lines[1] and "gain rule does not hold" in lines[1]
    assert lines[2].startswith("  peak_rss_mb (MB, lower is better): parent 54.45 (q ")
    assert "-> change 49.45" in lines[2] and "gain rule holds" in lines[2] and "within bound 10%" in lines[2]
    assert len(lines) == 3


def test_the_default_benchmark_file_is_the_repositorys():
    names = [m["name"] for m in bench_compare.end_to_end()]
    assert names == ["ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb", "setup_s"]
