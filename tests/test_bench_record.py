"""``tools/bench_record.py`` reads the benchmark's report and keeps runs per label.

The outputs below are canned: no benchmark runs here.
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
