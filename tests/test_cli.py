import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import elhlearn
from elhlearn.cli import main
from elhlearn.textio import MAX_NESTING

EX1_TBOX = "CI: B [= some s. B\nCI: some r. some s. B [= A\n"
EX1_ABOX = "A: r(a,b)\nA: B(b)\n"


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "t.tbox").write_text(EX1_TBOX)
    (tmp_path / "a.abox").write_text(EX1_ABOX)
    return tmp_path


def test_reason_entailed(workdir, capsys):
    (workdir / "q.q").write_text("Q: AQ A(a)\n")
    code = main(["reason", str(workdir / "t.tbox"), str(workdir / "a.abox"), str(workdir / "q.q")])
    out = capsys.readouterr().out
    assert code == 0
    assert "ENTAILED" in out


def test_reason_not_entailed(workdir, capsys):
    (workdir / "q.q").write_text("Q: AQ A(b)\n")
    code = main(["reason", str(workdir / "t.tbox"), str(workdir / "a.abox"), str(workdir / "q.q")])
    assert code == 1
    assert "NOT_ENTAILED" in capsys.readouterr().out


def test_reason_figure_cq(workdir, capsys):
    (workdir / "f.tbox").write_text("CI: A [= some r. some s. top\n")
    (workdir / "f.abox").write_text("A: A(a)\n")
    (workdir / "f.q").write_text(
        "Q: CQ a ; exists x1, x2, x3, x4, x5 ; "
        "r(a,x1), r(a,x2), s(x1,x3), s(x1,x4), s(x2,x4), s(x2,x5)\n"
    )
    code = main(["reason", str(workdir / "f.tbox"), str(workdir / "f.abox"), str(workdir / "f.q")])
    assert code == 0


def test_reason_parse_error(workdir, capsys):
    (workdir / "bad.q").write_text("Q: AQ A(\n")
    code = main(["reason", str(workdir / "t.tbox"), str(workdir / "a.abox"), str(workdir / "bad.q")])
    assert code == 2


@pytest.mark.parametrize(
    "line, where",
    [
        ("IND: 1x", "line 2, col 6: unexpected character '1'"),
        ("IND: a b", "line 2, col 8: trailing input 'b'"),
        ("IND:", "line 2, col 5: unexpected end of line"),
    ],
)
def test_reason_bad_individual_line_is_a_parse_error(workdir, capsys, line, where):
    (workdir / "q.q").write_text("Q: AQ A(a)\n")
    (workdir / "bad.abox").write_text(f"A: r(a,b)\n{line}\n")
    code = main(["reason", str(workdir / "t.tbox"), str(workdir / "bad.abox"), str(workdir / "q.q")])
    assert code == 2
    assert capsys.readouterr().err == f"parse error: {where}\n"


def test_reason_unsupported_query(workdir):
    (workdir / "u.q").write_text("Q: CQ ; exists x, y ; r(x,y), M(y)\n")
    code = main(["reason", str(workdir / "t.tbox"), str(workdir / "a.abox"), str(workdir / "u.q")])
    assert code == 3


def test_reason_explain(workdir, capsys):
    (workdir / "q.q").write_text("Q: AQ A(a)\n")
    code = main(
        ["reason", "--explain", str(workdir / "t.tbox"), str(workdir / "a.abox"), str(workdir / "q.q")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "individualLabel" in out


EXPLAIN_TBOX = (
    "CI: B [= some s. (B and some r. top)\n"
    "CI: some r. some s. B [= A\n"
    "CI: A [= some t. C\n"
    "RI: s [= r\n"
)
EXPLAIN_ABOX = "A: r(a,b)\nA: B(b)\nA: s(b,c)\nIND: d\n"
EXPLAIN_QUERIES = (
    "Q: AQ A(a)\nQ: IQ b: some s. B\nQ: IQ a: some t. C\nQ: AQ B(c)\n"
    "Q: IQ d: top\nQ: IQ ghost: B\nQ: AQ B(ghost)\nQ: AQ r(b,c)\n"
)
# the output of ``elh reason --explain`` before the model came from the cache
EXPLAIN_OUT = """\
AQ A(a): ENTAILED
{"individualLabel": ["A"], "verdict": "entailed"}
IQ b : some s. B: ENTAILED
{"individualEdges": [{"roles": ["r", "s"], "target": ["n", "c"]}, \
{"roles": ["r", "s"], "target": ["a", "B\\u2293\\u2203r.\\u22a4"]}, \
{"roles": ["t"], "target": ["a", "C"]}], "individualLabel": ["A", "B"], "verdict": "entailed"}
IQ a : some t. C: ENTAILED
{"individualEdges": [{"roles": ["r"], "target": ["n", "b"]}, \
{"roles": ["t"], "target": ["a", "C"]}], "individualLabel": ["A"], "verdict": "entailed"}
AQ B(c): NOT_ENTAILED
{"individualLabel": [], "verdict": "not-entailed"}
IQ d : top: ENTAILED
{"individualEdges": [], "individualLabel": [], "verdict": "entailed"}
IQ ghost : B: NOT_ENTAILED
{"verdict": "not-entailed"}
AQ B(ghost): NOT_ENTAILED
{"verdict": "not-entailed"}
AQ r(b,c): ENTAILED
{"verdict": "entailed"}
"""


def test_reason_explain_output_is_unchanged(workdir, capsys):
    for name, text in (("e.tbox", EXPLAIN_TBOX), ("e.abox", EXPLAIN_ABOX), ("e.q", EXPLAIN_QUERIES)):
        (workdir / name).write_text(text)
    code = main(["reason", "--explain"] + [str(workdir / n) for n in ("e.tbox", "e.abox", "e.q")])
    assert code == 1
    assert capsys.readouterr().out == EXPLAIN_OUT


def test_reason_ignores_complex_left_side_below_top(workdir, capsys):
    (workdir / "q.q").write_text("Q: AQ A(a)\nQ: IQ b : some s. B\nQ: IQ a : some r. B\n")
    (workdir / "taut.tbox").write_text(EX1_TBOX + "CI: some r. B [= top\n")
    verdicts = []
    for tbox in ("t.tbox", "taut.tbox"):
        code = main(["reason", str(workdir / tbox), str(workdir / "a.abox"), str(workdir / "q.q")])
        assert code == 0
        verdicts.append(capsys.readouterr().out)
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].count(": ENTAILED") == 3


def _deep_files(workdir, depth: int, shape: str) -> list[str]:
    chain = "some r. " * depth + "B"
    tbox, queries = f"CI: A [= {chain}\nCI: {chain} [= C\n", f"Q: IQ a : {chain}\nQ: AQ C(a)\n"
    if shape == "parens":
        tbox = "CI: A [= " + "(" * depth + "B" + ")" * depth + "\n"
        queries = "Q: AQ B(a)\n"
    elif shape == "query":
        tbox, queries = EX1_TBOX, f"Q: IQ a : {chain}\n"
    (workdir / "deep.tbox").write_text(tbox)
    (workdir / "deep.abox").write_text("A: A(a)\n")
    (workdir / "deep.q").write_text(queries)
    return [str(workdir / n) for n in ("deep.tbox", "deep.abox", "deep.q")]


@pytest.mark.parametrize("shape", ["some", "parens"])
def test_reason_accepts_concepts_nested_to_the_cap(workdir, capsys, shape):
    code = main(["reason", *_deep_files(workdir, MAX_NESTING, shape)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines and all(line.endswith(": ENTAILED") for line in lines)


@pytest.mark.parametrize("shape", ["some", "parens", "query"])
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_reason_rejects_deeper_concepts_with_a_parse_error(workdir, capsys, shape, depth):
    code = main(["reason", *_deep_files(workdir, depth, shape)])
    assert code == 2
    assert f"nested deeper than {MAX_NESTING} levels" in capsys.readouterr().err


def test_deep_concept_exits_2_without_a_traceback(workdir):
    src = Path(elhlearn.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "elhlearn.cli", "reason", *_deep_files(workdir, 3000, "some")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("parse error: line 1") and "Traceback" not in done.stderr


def test_learn_writes_hypothesis_and_stats(workdir, capsys):
    out_file = workdir / "h.tbox"
    stats_file = workdir / "stats.json"
    code = main(
        [
            "learn",
            "--mode",
            "aq",
            str(workdir / "t.tbox"),
            str(workdir / "a.abox"),
            "--out",
            str(out_file),
            "--stats",
            str(stats_file),
            "--transcript",
            str(workdir / "tr.jsonl"),
        ]
    )
    assert code == 0
    assert "some r. B [= A" in out_file.read_text()
    stats = json.loads(stats_file.read_text())
    assert stats["verifiedInseparable"] is True
    assert stats["eqCount"] == 0
    transcript = [
        json.loads(line) for line in (workdir / "tr.jsonl").read_text().splitlines()
    ]
    assert stats["mqCount"] == sum(1 for e in transcript if e["kind"] == "MQ")
    assert stats["totalQueryInputSize"] == transcript[-1]["runningTotals"]["inputSize"]


def test_learn_cqr_with_adversarial_policy(workdir, capsys):
    (workdir / "f.tbox").write_text("CI: A [= some r. some s. top\n")
    (workdir / "f.abox").write_text("A: A(a)\n")
    code = main(
        [
            "learn",
            "--mode",
            "cqr",
            str(workdir / "f.tbox"),
            str(workdir / "f.abox"),
            "--oracle-policy",
            "adversarial-cq",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    stats = json.loads(out.strip().splitlines()[-1])
    assert stats["conversions"] > 0


def test_learn_seed_determinism(workdir, capsys):
    args = [
        "learn",
        "--mode",
        "iq",
        str(workdir / "t.tbox"),
        str(workdir / "a.abox"),
        "--oracle-policy",
        "randomized",
        "--seed",
        "9",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_learn_budget_exit(workdir):
    code = main(
        [
            "learn",
            "--mode",
            "aq",
            str(workdir / "t.tbox"),
            str(workdir / "a.abox"),
            "--budget",
            "10",
        ]
    )
    assert code == 4


def test_update_check(workdir, capsys):
    (workdir / "g.tbox").write_text("CI: some r. A1 [= B\n")
    (workdir / "gh.tbox").write_text("CI: some r. (A1 and A2) [= B\n")
    (workdir / "g0.abox").write_text("A: r(a,b)\nA: A1(b)\nA: A2(b)\n")
    (workdir / "g1.abox").write_text(
        "A: r(a,b)\nA: A1(b)\nA: A2(b)\nA: r(a2,b2)\nA: A1(b2)\n"
    )
    code = main(
        [
            "update-check",
            str(workdir / "g.tbox"),
            str(workdir / "gh.tbox"),
            str(workdir / "g0.abox"),
            str(workdir / "g1.abox"),
        ]
    )
    assert code == 1
    assert "NOT_PRESERVED" in capsys.readouterr().out
    code = main(
        [
            "update-check",
            str(workdir / "g.tbox"),
            str(workdir / "gh.tbox"),
            str(workdir / "g0.abox"),
            str(workdir / "g0.abox"),
        ]
    )
    assert code == 0


def test_batch_round_trip(workdir, capsys):
    (workdir / "full.abox").write_text("A: r(a,b)\nA: B(b)\nA: A(c)\nA: s(d,d)\n")
    code = main(
        [
            "batch",
            "build",
            "--mode",
            "iq",
            str(workdir / "t.tbox"),
            str(workdir / "full.abox"),
            "--out",
            str(workdir / "b.jsonl"),
        ]
    )
    assert code == 0
    code = main(
        [
            "batch",
            "learn",
            "--mode",
            "iq",
            str(workdir / "b.jsonl"),
            str(workdir / "full.abox"),
            "--out",
            str(workdir / "hb.tbox"),
        ]
    )
    assert code == 0
    assert "[=" in (workdir / "hb.tbox").read_text()


@pytest.mark.parametrize(
    "lines, message",
    [
        (["not json"], "line 1, col 1: not JSON"),
        (['{"kind": "ci", "query": "Q: AQ A(p0)", "label": 1}'], "line 1, col 1: missing key 'abox'"),
        (["", '["a list"]'], "line 2, col 1: expected a JSON object"),
        (['{"kind": "ci", "abox": 3, "query": "Q: AQ A(p0)", "label": 1}'], "line 1, col 1: key 'abox'"),
    ],
)
def test_batch_learn_bad_item_is_a_parse_error(workdir, capsys, lines, message):
    (workdir / "bad.jsonl").write_text("\n".join(lines) + "\n")
    code = main(["batch", "learn", "--mode", "iq", str(workdir / "bad.jsonl"), str(workdir / "a.abox")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"examples": [{"abox": EX1_ABOX, "query": "Q: AQ A(a)"}]}, "missing key 'weights'"),
        ({"weights": [1.0]}, "missing key 'examples'"),
        ({"examples": [{"query": "Q: AQ A(a)"}], "weights": [1.0]}, "missing key 'abox'"),
        ({"examples": [{"abox": EX1_ABOX, "query": "Q: AQ A(a)"}], "weights": ["x"]}, "numbers"),
        ({"examples": [], "weights": [], "seed": "4"}, "key 'seed'"),
    ],
)
def test_pac_run_bad_distribution_is_a_parse_error(workdir, capsys, payload, message):
    (workdir / "d.json").write_text(json.dumps(payload))
    args = ["pac", "run", "--mode", "aq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    assert main(args + ["--dist", str(workdir / "d.json")]) == 2
    assert message in capsys.readouterr().err


def test_pac_run_non_json_distribution_is_a_parse_error(workdir, capsys):
    (workdir / "d.json").write_text('{"examples": [\n  oops]}')
    args = ["pac", "run", "--mode", "aq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    assert main(args + ["--dist", str(workdir / "d.json")]) == 2
    assert "line 2, col 3: not JSON" in capsys.readouterr().err


def test_pac_run(workdir, capsys):
    (workdir / "p.q").write_text(
        "Q: AQ A(a)\nQ: AQ B(b)\nQ: IQ a : some r. B\nQ: IQ b : some s. B\n"
    )
    code = main(
        [
            "pac",
            "run",
            "--mode",
            "iq",
            str(workdir / "t.tbox"),
            str(workdir / "a.abox"),
            "--eps",
            "0.1",
            "--delta",
            "0.1",
            "--trials",
            "2",
            "--queries",
            str(workdir / "p.q"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["withinEps"] == 2
    assert all(t["schedule"][0] == 30 for t in report["trials"])


def test_pac_run_with_distribution_file_and_csv(workdir, capsys):
    dist = {
        "examples": [
            {"abox": EX1_ABOX, "query": "Q: AQ A(a)"},
            {"abox": EX1_ABOX, "query": "Q: IQ a : some r. B"},
        ],
        "weights": [0.5, 0.5],
        "seed": 4,
    }
    (workdir / "d.json").write_text(json.dumps(dist))
    code = main(
        [
            "pac",
            "run",
            "--mode",
            "aq",
            str(workdir / "t.tbox"),
            str(workdir / "a.abox"),
            "--dist",
            str(workdir / "d.json"),
            "--csv",
            str(workdir / "rows.csv"),
        ]
    )
    assert code == 0
    assert (workdir / "rows.csv").read_text().startswith("seed,")


def test_vc_check(capsys):
    assert main(["vc", "check", "--n", "2"]) == 0
    assert "SHATTERED" in capsys.readouterr().out
    assert main(["vc", "check", "--n", "2", "--extra-loop"]) == 1
    assert "NOT_SHATTERED" in capsys.readouterr().out
