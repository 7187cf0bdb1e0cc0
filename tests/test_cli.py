import contextlib
import functools
import io
import json
import logging
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import elhlearn
from elhlearn import cli, pac
from elhlearn.cli import main
from elhlearn.syntax import (
    Signature,
    StructuralError,
    check_namespaces,
    signature_of_abox,
    signature_of_tbox,
)
from elhlearn.textio import MAX_NESTING, parse_abox, parse_tbox
from reference_textio import check_disjoint_namespaces

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


@pytest.mark.parametrize(
    "line, where",
    [
        ("Q: IQ 1x : A", "line 1, col 7: unexpected character '1'"),
        ("Q: IQ : A", "line 1, col 7: expected a name, found ':'"),
        ("Q: CQ 1a ; exists y ; A(y)", "line 1, col 7: unexpected character '1'"),
        ("Q: CQ a ; exists 9y ; A(a)", "line 1, col 18: unexpected character '9'"),
        ("Q: CQ a ; exists y ; Aé(y), r(a,y)", "line 1, col 22: bad CQ atoms near 'Aé(y),'"),
    ],
)
def test_reason_bad_name_in_a_query_is_a_parse_error(workdir, capsys, line, where):
    (workdir / "bad.q").write_text(f"{line}\n", encoding="utf-8")
    code = main(["reason", str(workdir / "t.tbox"), str(workdir / "a.abox"), str(workdir / "bad.q")])
    assert code == 2
    assert capsys.readouterr().err == f"parse error: {where}\n"


@pytest.mark.parametrize(
    "command, abox",
    [
        ("reason", "A: r(a,b)\nA: B(A)\n"),  # an individual named like a concept
        ("reason", "A: r(a,b)\nA: s(b,r)\n"),  # ... like a role
        ("reason", "A: r(a,b)\nA: B(b)\nA: a(b)\n"),  # a concept named like an individual
        ("learn", "A: r(a,b)\nA: B(A)\n"),
        ("update-check", "A: r(a,b)\nIND: s\n"),
        ("batch-build", "A: r(a,b)\nA: B(b)\nA: s(b,B)\n"),
        ("pac-run", "A: r(a,b)\nA: B(b)\nA: r(b,A)\n"),
    ],
)
def test_a_name_of_two_kinds_exits_2(workdir, capsys, command, abox):
    (workdir / "clash.abox").write_text(abox)
    (workdir / "q.q").write_text("Q: AQ A(a)\n")
    t, a, clash, q = (str(workdir / f) for f in ("t.tbox", "a.abox", "clash.abox", "q.q"))
    argv = {
        "reason": ["reason", t, clash, q],
        "learn": ["learn", "--mode", "iq", t, clash],
        "update-check": ["update-check", t, t, a, clash],
        "batch-build": ["batch", "build", "--mode", "iq", t, clash],
        "pac-run": ["pac", "run", "--mode", "aq", t, clash, "--queries", q],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: name used in two namespaces: ")
    assert "ENTAILED" not in captured.out


def test_namespace_check_gives_the_messages_of_the_signature_check():
    """``check_namespaces`` reads each ABox once and says what
    ``check_disjoint_namespaces`` over the signatures and individuals says;
    without a clash it returns the union of those signatures."""
    def outcome(check, tboxes, aboxes):
        try:
            return check(tboxes, aboxes)
        except StructuralError as exc:
            return str(exc)

    def by_signatures(tboxes, aboxes):
        sigs = [signature_of_tbox(t) for t in tboxes] + [signature_of_abox(a) for a in aboxes]
        check_disjoint_namespaces(sigs, [ind for a in aboxes for ind in a.individuals()])
        return functools.reduce(Signature.union, sigs, Signature())

    names = ["A", "B", "r", "s", "a", "b"]
    rng = random.Random(3)
    seen = set()
    for _ in range(400):
        tboxes = [
            parse_tbox(f"CI: {rng.choice(names)} [= some {rng.choice(names)}. {rng.choice(names)}\n")
            for _ in range(rng.randrange(3))
        ]
        aboxes = []
        for _ in range(rng.randrange(1, 3)):
            lines = [f"A: {rng.choice(names)}({rng.choice(names)})" for _ in range(rng.randrange(3))]
            lines += [f"A: {rng.choice(names)}({rng.choice(names)},{rng.choice(names)})" for _ in range(rng.randrange(3))]
            lines += [f"IND: {rng.choice(names)}" for _ in range(rng.randrange(2))]
            aboxes.append(parse_abox("\n".join(lines)))
        want = outcome(by_signatures, tboxes, aboxes)
        assert outcome(check_namespaces, tboxes, aboxes) == want
        seen.add(isinstance(want, str))
    assert seen == {True, False}


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


def _elh(*args: str) -> subprocess.CompletedProcess:
    src = Path(elhlearn.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "elhlearn.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("Q: AQueen(x)", "query kind 'AQ' needs a blank after it"),
        ("Q: IQrole(a,b)", "query kind 'IQ' needs a blank after it"),
        ("Q: CQa ; exists ; A(a)", "query kind 'CQ' needs a blank after it"),
    ],
)
def test_a_query_kind_glued_to_its_query_exits_2_without_a_traceback(workdir, line, message):
    (workdir / "glued.q").write_text(f"Q: AQ A(a)\n{line}\n")
    done = _elh("reason", str(workdir / "t.tbox"), str(workdir / "a.abox"), str(workdir / "glued.q"))
    assert done.returncode == 2
    assert done.stderr == f"parse error: line 2, col 6: {message}\n"


def _chain_batch(workdir, n: int, label: str | None = None) -> list[str]:
    """A batch of one ``tree`` item, an r-chain of ``n`` edges below c0, and its ABox.

    With ``label``, every individual of the chain has that concept name.
    """
    chain = "\n".join(f"A: r(c{i},c{i + 1})" for i in range(n))
    if label:
        chain += "".join(f"\nA: {label}(c{i})" for i in range(n + 1))
    item = {"kind": "tree", "abox": chain, "query": "Q: AQ M(c0)", "label": 1}
    (workdir / "chain.jsonl").write_text(json.dumps(item) + "\n")
    (workdir / "chain.abox").write_text(chain + "\n")
    return [str(workdir / "chain.jsonl"), str(workdir / "chain.abox")]


def test_a_tree_item_nested_to_the_cap_learns_and_reads_back(workdir):
    out = str(workdir / "h.tbox")
    done = _elh("batch", "learn", "--mode", "aq", *_chain_batch(workdir, MAX_NESTING), "--out", out)
    assert done.returncode == 0, done.stderr
    (workdir / "m.q").write_text("Q: AQ M(c0)\n")
    done = _elh("reason", out, str(workdir / "chain.abox"), str(workdir / "m.q"))
    assert (done.returncode, done.stdout) == (0, "AQ M(c0): ENTAILED\n"), done.stderr


@pytest.mark.parametrize("n", [MAX_NESTING + 1, 1500])
def test_a_deeper_tree_item_exits_2_without_a_traceback(workdir, n):
    out = workdir / "h.tbox"
    done = _elh("batch", "learn", "--mode", "aq", *_chain_batch(workdir, n), "--out", str(out))
    assert done.returncode == 2
    assert done.stderr == f"error: tree nested deeper than {MAX_NESTING} levels\n"
    assert not out.exists()


def test_a_tree_item_too_deep_to_write_exits_2_and_writes_nothing(workdir):
    # 150 edges, but each labelled node adds ``some`` and a parenthesis
    out = workdir / "h.tbox"
    batch = _chain_batch(workdir, 150, "B")
    done = _elh("batch", "learn", "--mode", "aq", *batch, "--out", str(out))
    assert done.returncode == 2
    assert done.stderr == f"error: concept nested deeper than {MAX_NESTING} levels\n"
    assert not out.exists()


@pytest.mark.parametrize("to_file", [True, False])
def test_a_hypothesis_too_deep_to_write_exits_2(workdir, capsys, monkeypatch, to_file):
    from elhlearn.learn_aq import LearnResult
    from elhlearn.textio import parse_concept, serialize_tbox
    from elhlearn.syntax import CI, Atom, Exists, terminology

    deep = parse_concept("some r. (B and " * 100 + "A" + ")" * 100)
    hypothesis = terminology([CI(Atom("A"), Exists("r", deep))])
    monkeypatch.setitem(cli.LEARNERS, "aq", lambda session: LearnResult(hypothesis))
    out = workdir / "h.tbox"
    args = ["learn", "--mode", "aq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    assert main(args + (["--out", str(out)] if to_file else [])) == 2
    written = capsys.readouterr()
    assert written.err == f"error: concept nested deeper than {MAX_NESTING} levels\n"
    assert written.out == ""
    # the output was opened before the run and removed again: a failed run leaves none
    assert not out.exists()


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
        # JSON's booleans are not labels, although Python's bool is an int
        (
            ['{"kind": "ci", "abox": "A: A(p0)", "query": "Q: AQ B(p0)", "label": true}'],
            "line 1, col 1: key 'label' must be of type int",
        ),
    ],
)
def test_batch_learn_bad_item_is_a_parse_error(workdir, capsys, lines, message):
    (workdir / "bad.jsonl").write_text("\n".join(lines) + "\n")
    code = main(["batch", "learn", "--mode", "iq", str(workdir / "bad.jsonl"), str(workdir / "a.abox")])
    assert code == 2
    _one_error_line(capsys.readouterr().err, message)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"examples": [{"abox": EX1_ABOX, "query": "Q: AQ A(a)"}]}, "missing key 'weights'"),
        ({"weights": [1.0]}, "missing key 'examples'"),
        ({"examples": [{"query": "Q: AQ A(a)"}], "weights": [1.0]}, "missing key 'abox'"),
        ({"examples": [{"abox": EX1_ABOX, "query": "Q: AQ A(a)"}], "weights": ["x"]}, "numbers"),
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


def test_pac_run_ignores_a_seed_in_the_distribution_file(workdir, capsys):
    dist = {
        "examples": [
            {"abox": EX1_ABOX, "query": "Q: AQ A(a)"},
            {"abox": EX1_ABOX, "query": "Q: IQ a : some r. B"},
        ],
        "weights": [0.25, 0.75],
    }
    args = ["pac", "run", "--mode", "iq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    args += ["--trials", "3", "--seed", "2", "--dist", str(workdir / "d.json")]
    reports = []
    for extra in ({}, {"seed": 4}, {"seed": 99}):
        (workdir / "d.json").write_text(json.dumps({**dist, **extra}))
        assert main(args) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]


def test_pac_run_builds_one_framework_for_all_trials(workdir, capsys, monkeypatch):
    # the report is the one the command gave when it built a framework per trial
    built = []
    framework_for = cli.teacher.framework_for

    def counted(*args, **kwargs):
        built.append(args)
        return framework_for(*args, **kwargs)

    monkeypatch.setattr(cli.teacher, "framework_for", counted)
    (workdir / "p.q").write_text(
        "Q: AQ A(a)\nQ: AQ B(b)\nQ: IQ a : some r. B\nQ: IQ b : some s. B\n"
    )
    args = ["pac", "run", "--mode", "iq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    args += ["--trials", "3", "--seed", "5", "--queries", str(workdir / "p.q")]
    assert main(args) == 0
    assert len(built) == 1
    assert json.loads(capsys.readouterr().out) == {
        "delta": 0.1,
        "eps": 0.1,
        "trials": [
            {"samplesUsed": 40, "schedule": [30, 37], "seed": 5, "trueError": 0.0},
            {"samplesUsed": 38, "schedule": [30, 37], "seed": 6, "trueError": 0.0},
            {"samplesUsed": 51, "schedule": [30, 37], "seed": 7, "trueError": 0.0},
        ],
        "withinEps": 3,
    }


def _one_error_line(err: str, message: str) -> None:
    assert err.count("\n") == 1 and message in err and "Traceback" not in err


# a file with one byte that is not UTF-8 at offset 5, and the command line reading it
NOT_UTF8 = {
    "reason": (b"A: A(\xff)\n", ["reason", "{t}", "{bad}", "{q}"]),
    "learn": (b"CI: A\xff [= B\n", ["learn", "--mode", "iq", "{bad}", "{a}"]),
    "batch-learn": (b'{"kin\xffd": "ci"}\n', ["batch", "learn", "--mode", "iq", "{bad}", "{a}"]),
    "pac-dist": (b'{"exa\xffmples": []}', ["pac", "run", "--mode", "aq", "{t}", "{a}", "--dist", "{bad}"]),
    "pac-queries": (b"Q: AQ\xff A(a)\n", ["pac", "run", "--mode", "aq", "{t}", "{a}", "--queries", "{bad}"]),
}


@pytest.mark.parametrize("command", sorted(NOT_UTF8))
def test_a_file_that_is_not_utf8_exits_2_without_a_traceback(workdir, capsys, command):
    data, template = NOT_UTF8[command]
    (workdir / "bad").write_bytes(data)
    (workdir / "q.q").write_text("Q: AQ A(a)\n")
    files = {"t": "t.tbox", "a": "a.abox", "q": "q.q", "bad": "bad"}
    argv = [arg.format(**{k: str(workdir / v) for k, v in files.items()}) for arg in template]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    _one_error_line(out.err, f"parse error: cannot read {workdir / 'bad'}: not UTF-8 at byte 5")


def test_pac_run_without_a_distribution_exits_2(workdir, capsys):
    args = ["pac", "run", "--mode", "aq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    assert main(args) == 2
    _one_error_line(capsys.readouterr().err, "error: pac run needs --dist or --queries")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_pac_run_needs_at_least_one_trial(workdir, capsys, trials):
    (workdir / "p.q").write_text("Q: AQ A(a)\n")
    args = ["pac", "run", "--mode", "aq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    assert main(args + ["--queries", str(workdir / "p.q"), "--trials", trials]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    _one_error_line(out.err, "error: --trials must be at least 1")


def test_pac_run_with_both_dist_and_queries_exits_2(workdir, capsys):
    dist = {"examples": [{"abox": EX1_ABOX, "query": "Q: AQ A(a)"}], "weights": [1]}
    (workdir / "d.json").write_text(json.dumps(dist))
    args = ["pac", "run", "--mode", "aq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    args += ["--dist", str(workdir / "d.json"), "--queries", "/nonexistent/q.q"]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    _one_error_line(out.err, "error: pac run takes --dist or --queries, not both")


@pytest.mark.parametrize(
    "weights, message",
    [
        ("[NaN]", "error: weights must be finite and nonnegative"),
        ("[0.5, NaN, 0.5]", "error: weights must be finite and nonnegative"),
        ("[true]", "error: weights must be numbers"),
    ],
    ids=["nan", "nan-among-numbers", "true"],
)
def test_pac_run_rejects_weights_that_are_not_finite_numbers(workdir, capsys, weights, message):
    # one example per weight; Python's JSON reader takes a bare NaN
    examples = [{"abox": EX1_ABOX, "query": "Q: AQ A(a)"}] * len(json.loads(weights))
    (workdir / "d.json").write_text(f'{{"examples": {json.dumps(examples)}, "weights": {weights}}}')
    args = ["pac", "run", "--mode", "aq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    assert main(args + ["--dist", str(workdir / "d.json")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    _one_error_line(out.err, message)


# one command line per output flag; files are named relative to the work
# directory, and the flag's value points into a directory that does not exist
UNWRITABLE = {
    "learn --out": "learn --mode aq t.tbox a.abox --out",
    "learn --stats": "learn --mode aq t.tbox a.abox --stats",
    "learn --transcript": "learn --mode aq t.tbox a.abox --transcript",
    # batch construction needs every name of the target in the ABox
    "batch build --out": "batch build --mode aq t.tbox full.abox --out",
    "batch learn --out": "batch learn --mode aq empty.jsonl a.abox --out",
    "pac run --stats": "pac run --mode aq t.tbox a.abox --queries p.q --stats",
    "pac run --csv": "pac run --mode aq t.tbox a.abox --queries p.q --csv",
}


def _unwritable_run(workdir, flag: str) -> tuple[list[str], str]:
    (workdir / "p.q").write_text("Q: AQ A(a)\n")
    (workdir / "empty.jsonl").write_text("")
    (workdir / "full.abox").write_text("A: r(a,b)\nA: B(b)\nA: A(c)\nA: s(d,d)\n")
    bad = str(workdir / "missing" / "out")
    words = UNWRITABLE[flag].split()
    return [str(workdir / w) if "." in w else w for w in words] + [bad], bad


@pytest.mark.parametrize("flag", UNWRITABLE)
def test_an_unwritable_output_exits_2(workdir, capsys, flag):
    args, bad = _unwritable_run(workdir, flag)
    assert main(args) == 2
    _one_error_line(capsys.readouterr().err, f"error: cannot write {bad}: ")


def test_an_unwritable_partial_hypothesis_exits_2(workdir, capsys, monkeypatch):
    from elhlearn import cli
    from elhlearn.syntax import BudgetExceededError, TBox

    def over_budget(session):
        raise BudgetExceededError("query budget 0 exceeded", partial=TBox())

    monkeypatch.setitem(cli.LEARNERS, "aq", over_budget)
    args, bad = _unwritable_run(workdir, "learn --out")
    assert main(args) == 2
    _one_error_line(capsys.readouterr().err, f"error: cannot write {bad}: ")


@pytest.mark.parametrize(
    "flag",
    [
        "learn --out",
        "learn --stats",
        "learn --transcript",
        "batch build --out",
        "batch learn --out",
        "pac run --stats",
        "pac run --csv",
    ],
)
def test_an_unwritable_output_exits_2_before_the_run(workdir, capsys, monkeypatch, flag):
    from elhlearn import batch, pac

    def not_reached(*args, **kwargs):
        pytest.fail("the run started before its outputs were checked")

    monkeypatch.setitem(cli.LEARNERS, "aq", not_reached)
    monkeypatch.setattr(batch, "build_batch", not_reached)
    monkeypatch.setattr(batch, "learn_from_batch", not_reached)
    monkeypatch.setattr(pac, "pac_from_exact", not_reached)
    args, bad = _unwritable_run(workdir, flag)
    assert main(args) == 2
    _one_error_line(capsys.readouterr().err, f"error: cannot write {bad}: ")


def test_a_failed_run_leaves_an_existing_output_as_it_was(workdir, monkeypatch):
    from elhlearn.syntax import ConfigurationError

    def fails(session):
        raise ConfigurationError("the run fails")

    monkeypatch.setitem(cli.LEARNERS, "aq", fails)
    for name in ("h.tbox", "s.json", "t.jsonl"):
        (workdir / name).write_text("kept\n")
    args = ["learn", "--mode", "aq", str(workdir / "t.tbox"), str(workdir / "a.abox")]
    args += ["--out", str(workdir / "h.tbox"), "--stats", str(workdir / "s.json")]
    args += ["--transcript", str(workdir / "t.jsonl")]
    assert main(args) == 2
    assert all((workdir / name).read_text() == "kept\n" for name in ("h.tbox", "s.json", "t.jsonl"))


def test_vc_check(capsys):
    assert main(["vc", "check", "--n", "2"]) == 0
    assert "SHATTERED" in capsys.readouterr().out
    assert main(["vc", "check", "--n", "2", "--extra-loop"]) == 1
    assert "NOT_SHATTERED" in capsys.readouterr().out


@pytest.mark.parametrize("n", range(3, 8))
def test_vc_check_verdicts_below_the_bound(capsys, n):
    assert main(["vc", "check", "--n", str(n)]) == 0
    assert main(["vc", "check", "--n", str(n), "--extra-loop"]) == 1
    assert capsys.readouterr().out.split() == ["SHATTERED", "NOT_SHATTERED"]


@pytest.mark.parametrize("n", ["14", "1000000000"])
@pytest.mark.parametrize("loop", [[], ["--extra-loop"]])
def test_vc_check_refuses_a_size_past_the_budget_at_once(capsys, n, loop):
    start = time.monotonic()
    assert main(["vc", "check", "--n", n, *loop]) == 4
    assert time.monotonic() - start < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert f"budget exceeded: shattering {n} examples takes {n} + 1 evaluations but lists" in out.err


@pytest.mark.parametrize("n", ["-1000000000", "-1", "0", "1"])
def test_vc_check_needs_two_examples(capsys, n):
    assert main(["vc", "check", "--n", n]) == 2
    assert "the ring needs at least two individuals" in capsys.readouterr().err


def test_vc_check_at_the_largest_size_under_the_bound_ends_quickly():
    start = time.monotonic()
    done = _elh("vc", "check", "--n", "13")
    assert done.returncode == 0 and done.stdout.split() == ["SHATTERED"]
    assert time.monotonic() - start < 10.0


def test_shattering_bound_is_n_times_two_to_the_n():
    # 13 * 2**13 = 106,496 labels fit in the budget, 14 * 2**14 = 229,376 do not
    flagged = [n for n in range(-3, 64) if pac.shattering_exceeds_budget(n)]
    assert flagged == [n for n in range(-3, 64) if n > 0 and n * 2**n > pac.SHATTER_BUDGET]
    assert flagged[0] == 14


def _chain_query(n: int) -> str:
    variables = [f"x{k}" for k in range(1, n + 1)]
    atoms = [f"r({s},{o})" for s, o in zip(["a"] + variables, variables)]
    return f"Q: CQ a ; exists {', '.join(variables)} ; {', '.join(atoms)}\n"


def test_reason_answers_a_cq_with_as_many_variables_as_the_cap(workdir, capsys):
    (workdir / "loop.abox").write_text("A: r(a,a)\n")
    (workdir / "long.q").write_text(_chain_query(MAX_NESTING))
    code = main(["reason", *(str(workdir / n) for n in ("t.tbox", "loop.abox", "long.q"))])
    assert code == 0
    assert capsys.readouterr().out.endswith(": ENTAILED\n")


@pytest.mark.parametrize("variables", [MAX_NESTING + 1, 1500])
def test_reason_rejects_a_cq_with_more_variables_than_the_cap(workdir, capsys, variables):
    (workdir / "loop.abox").write_text("A: r(a,a)\n")
    (workdir / "long.q").write_text(_chain_query(variables))
    code = main(["reason", *(str(workdir / n) for n in ("t.tbox", "loop.abox", "long.q"))])
    assert code == 2
    assert f"line 1, col 11: CQ has more than {MAX_NESTING} variables" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, abox, query, message",
    [
        ("ci", "A: A(p0)\\nA: C(p0)", "Q: AQ B(p0)",
         "'ci' item needs exactly one concept assertion"),
        ("ci", "A: A(p0)", "Q: AQ B(p1)", "'ci' item needs a query on p0"),
        ("iq", "", "Q: IQ e0 : some r. B", "'iq' item needs exactly one concept assertion"),
        ("iq", "A: A(e0)", "Q: AQ B(e0)", "'iq' item needs a query on e0"),
        ("ri", "A: A(p0)", "Q: AQ s(p0,p1)", "'ri' item needs exactly one role assertion"),
        ("ri", "A: r(p0,p1)", "Q: AQ B(p0)", "'ri' item needs a query on p0, p1"),
        ("tree", "A: A(p0)", "Q: AQ B(p1)", "'tree' item needs a unary query on an individual"),
    ],
)
def test_batch_learn_rejects_a_malformed_item(workdir, capsys, kind, abox, query, message):
    line = f'{{"kind": "{kind}", "abox": "{abox}", "query": "{query}", "label": 1}}'
    (workdir / "bad.jsonl").write_text(line + "\n")
    (workdir / "out.tbox").write_text("")
    args = ["batch", "learn", "--mode", "iq", str(workdir / "bad.jsonl"), str(workdir / "a.abox")]
    assert main(args + ["--out", str(workdir / "out.tbox")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert (workdir / "out.tbox").read_text() == ""


def test_elh_log_is_read_on_every_call(monkeypatch, capsys):
    levels = []
    # "basic_format" names a string attribute of logging, not a level
    for value in (None, "DEBUG", None, "basic_format"):
        if value is None:
            monkeypatch.delenv("ELH_LOG", raising=False)
        else:
            monkeypatch.setenv("ELH_LOG", value)
        assert main(["vc", "check", "--n", "2"]) == 0
        levels.append(logging.getLogger("elhlearn").getEffectiveLevel())
    assert levels == [logging.WARNING, logging.DEBUG, logging.WARNING, logging.WARNING]


# every subcommand, with most of its flags, interleaved with command lines
# that argparse rejects or answers with help; paths are never opened
PARSER_ARGV = [
    "reason t.tbox a.abox q.q --explain",
    "",
    "learn --mode iq t.tbox a.abox --oracle-policy randomized --seed 3 --budget 9 "
    "--out h.tbox --stats s.json --transcript tr.jsonl",
    "frobnicate t.tbox",
    "update-check t.tbox h.tbox a0.abox a.abox",
    "reason t.tbox a.abox",
    "batch build --mode aq t.tbox a.abox --seed 2 --out b.jsonl",
    "learn --mode cq t.tbox a.abox",
    "batch learn --mode cqr b.jsonl a.abox --out h.tbox",
    "pac run --mode aq t.tbox a.abox --trials two --queries q.q",
    "pac run --mode aq t.tbox a.abox --eps 0.2 --delta 0.3 --trials 2 --seed 1 "
    "--dist d.json --stats s.json --csv rows.csv",
    "vc check --n 3 --verbose",
    "vc check --n 3 --extra-loop",
    "--help",
    "learn --mode aq t.tbox a.abox",
    "pac run --help",
]


def _parse(parser, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as exc:
            parsed = exc.code
    return parsed, out.getvalue(), err.getvalue()


def test_the_shared_parser_parses_like_a_fresh_one():
    assert cli.build_parser() is cli.build_parser()
    outcomes = []
    for line in PARSER_ARGV * 2:
        argv = line.split()
        got = _parse(cli.build_parser(), argv)
        assert got == _parse(cli.build_parser.__wrapped__(), argv), line
        outcomes.append(got[0] if isinstance(got[0], int) else "ok")
    # eight command lines parse (learn twice), six are rejected, two print help
    assert outcomes == outcomes[: len(PARSER_ARGV)] * 2
    assert [outcomes.count(kind) for kind in ("ok", 2, 0)] == [16, 12, 4]
