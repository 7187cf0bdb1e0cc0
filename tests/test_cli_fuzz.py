"""Every ``elh`` subcommand on mutated input files: an exit code, never a traceback.

Each example starts from small valid inputs of one subcommand, mutates one
of its files (lines dropped, repeated or swapped; words replaced by pieces
of every statement kind, bad names and stray characters), and runs
``cli.main`` in-process.  The property: it returns an exit code from 0 to
4 and raises nothing.  JSON inputs are mutated inside their text fields,
so that most of them still reach the parsers and the learners.

A byte-level mutation inserts one byte that cannot stand there in UTF-8
into one file of a subcommand; the run must exit 2 and name the offset.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from elhlearn.cli import main

TBOX = "CI: B [= some s. B\nCI: some r. some s. B [= A\nRI: s [= t\n"
ABOX = "A: r(a,b)\nA: B(b)\nA: A(c)\nA: s(c,b)\nA: t(c,c)\nIND: d\n"
QUERIES = (
    "Q: AQ A(a)\nQ: IQ a : some r. B\nQ: IQ r(a,b)\n"
    "Q: CQ a ; exists x, y ; r(a,x), s(x,y), t(x,y), B(y)\n"
)
BATCH = "\n".join(
    json.dumps({"kind": kind, "abox": abox, "query": query, "label": 1}, sort_keys=True)
    for kind, abox, query in [
        ("ci", "A: B(p0)", "Q: AQ A(p0)"),
        ("ri", "A: s(p0,p1)", "Q: AQ t(p0,p1)"),
        ("tree", "A: r(e0,e1)\nA: B(e1)", "Q: AQ A(e0)"),
        ("iq", "A: B(e0)", "Q: IQ e0 : some s. B"),
    ]
) + "\n"
DIST = json.dumps(
    {
        "examples": [
            {"abox": ABOX, "query": "Q: AQ A(a)"},
            {"abox": ABOX, "query": "Q: CQ a ; exists x ; r(a,x), B(x)"},
        ],
        "weights": [0.5, 0.5],
        "seed": 4,
    }
)

# subcommand -> (argument list with {file} slots, the files it reads)
COMMANDS = {
    "reason": (["reason", "{t}", "{a}", "{q}"], {"t": TBOX, "a": ABOX, "q": QUERIES}),
    "learn": (["learn", "--mode", "cqr", "{t}", "{a}"], {"t": TBOX, "a": ABOX}),
    "update-check": (
        ["update-check", "{t}", "{h}", "{a0}", "{a}"],
        {"t": TBOX, "h": TBOX, "a0": ABOX, "a": ABOX + "A: r(d,b)\n"},
    ),
    "batch-build": (["batch", "build", "--mode", "iq", "{t}", "{a}"], {"t": TBOX, "a": ABOX}),
    "batch-learn": (["batch", "learn", "--mode", "iq", "{b}", "{a}"], {"b": BATCH, "a": ABOX}),
    "pac-dist": (
        ["pac", "run", "--mode", "cqr", "{t}", "{a}", "--dist", "{d}"],
        {"t": TBOX, "a": ABOX, "d": DIST},
    ),
    "pac-queries": (
        ["pac", "run", "--mode", "cqr", "{t}", "{a}", "--queries", "{q}"],
        {"t": TBOX, "a": ABOX, "q": QUERIES},
    ),
}

PIECES = [
    "CI:", "RI:", "A:", "IND:", "Q:", "AQ", "IQ", "CQ", "exists", "some", "and", "top",
    "[=", "==", "(", ")", ",", ";", ".", ":", "#", " ", "",
    "A", "B", "C", "r", "s", "t", "a", "b", "x", "y", "p0", "e0", "1x", "é", "ci", "ri", "iq",
]
WORD = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]+")

edits = st.lists(
    st.tuples(
        st.sampled_from(["drop", "repeat", "swap", "word"]),
        st.integers(0, 10_000),
        st.sampled_from(PIECES),
    ),
    min_size=1,
    max_size=3,
)


def mutate(text: str, steps) -> str:
    lines = text.splitlines()
    for kind, at, piece in steps:
        if not lines:
            lines = [piece]
            continue
        k = at % len(lines)
        if kind == "drop":
            del lines[k]
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "swap":
            lines[k], lines[-1] = lines[-1], lines[k]
        else:
            words = list(WORD.finditer(lines[k]))
            if words:
                w = words[at % len(words)]
                lines[k] = lines[k][: w.start()] + piece + lines[k][w.end():]
    return "\n".join(lines) + "\n"


def mutate_json(text: str, steps) -> str:
    """Mutate the text fields of each JSON line, keeping it JSON."""

    def walk(value):
        if isinstance(value, str):
            return mutate(value, steps)
        if isinstance(value, list):
            return [walk(v) for v in value]
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        return value

    return "\n".join(json.dumps(walk(json.loads(line))) for line in text.splitlines()) + "\n"


def run(command: str, files: dict[str, str | bytes], err: io.StringIO | None = None) -> int:
    """Exit code of ``command`` on ``files``, text or raw bytes; its standard error goes to ``err``."""
    template, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = str(Path(tmp) / name)
            data = text if isinstance(text, bytes) else text.encode("utf-8")
            Path(paths[name]).write_bytes(data)
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in template]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err or io.StringIO()):
            return main(argv)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(which=st.integers(0, 3), steps=edits)
@example(which=0, steps=[])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_every_subcommand_exits_with_a_code(command, which, steps):
    _, files = COMMANDS[command]
    files = dict(files)
    name = sorted(files)[which % len(files)]
    files[name] = (mutate_json if name in ("b", "d") else mutate)(files[name], steps)
    assert 0 <= run(command, files) <= 4


# bytes that are never valid UTF-8 before an ASCII byte or at the end:
# continuation bytes, lead bytes of 2, 3 and 4 bytes, and bytes no sequence uses
NOT_UTF8 = [0x80, 0xBF, 0xC2, 0xDF, 0xE0, 0xEF, 0xF0, 0xF4, 0xC0, 0xF5, 0xFF]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(which=st.integers(0, 3), at=st.integers(0, 10_000), byte=st.sampled_from(NOT_UTF8))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_an_invalid_utf8_byte_exits_2_with_its_offset(command, which, at, byte):
    _, files = COMMANDS[command]
    files = dict(files)
    name = sorted(files)[which % len(files)]
    data = files[name].encode("ascii")
    k = at % (len(data) + 1)
    files[name] = data[:k] + bytes([byte]) + data[k:]
    err = io.StringIO()
    assert run(command, files, err) == 2
    assert f": not UTF-8 at byte {k}\n" in err.getvalue()


@pytest.mark.parametrize("n", ["-1", "0", "1", "2", "3"])
@pytest.mark.parametrize("loop", [[], ["--extra-loop"]])
def test_vc_check_exits_with_a_code(n, loop):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert 0 <= main(["vc", "check", "--n", n, *loop]) <= 4


def _item(kind: str, abox: str, query: str) -> str:
    return json.dumps({"kind": kind, "abox": abox, "query": query, "label": 1}) + "\n"


@pytest.mark.parametrize(
    "command, files",
    [
        # a ci item with two concept assertions
        ("batch-learn", {"b": _item("ci", "A: B(p0)\nA: C(p0)", "Q: AQ A(p0)"), "a": ABOX}),
        # an iq item with an empty ABox
        ("batch-learn", {"b": _item("iq", "", "Q: IQ e0 : some s. B"), "a": ABOX}),
        # an ri item with a concept assertion
        ("batch-learn", {"b": _item("ri", "A: B(p0)", "Q: AQ t(p0,p1)"), "a": ABOX}),
        # an ri item with a unary query
        ("batch-learn", {"b": _item("ri", "A: s(p0,p1)", "Q: AQ B(p0)"), "a": ABOX}),
        # a CQ line with far more variables than the cap
        (
            "reason",
            {
                "t": TBOX,
                "a": "A: r(a,a)\n",
                "q": "Q: CQ a ; exists "
                + ", ".join(f"x{k}" for k in range(1500))
                + " ; r(a,x0), "
                + ", ".join(f"r(x{k},x{k + 1})" for k in range(1499))
                + "\n",
            },
        ),
        # tree items: a chain far deeper than the cap, a root with a parent, two
        # roots, an individual not below the root, and a node with two parents
        (
            "batch-learn",
            {
                "b": _item(
                    "tree", "\n".join(f"A: r(e{k},e{k + 1})" for k in range(1500)), "Q: AQ A(e0)"
                ),
                "a": ABOX,
            },
        ),
        ("batch-learn", {"b": _item("tree", "A: r(e1,e0)", "Q: AQ A(e0)"), "a": ABOX}),
        ("batch-learn", {"b": _item("tree", "A: r(e0,e1)\nA: B(e2)", "Q: AQ A(e0)"), "a": ABOX}),
        (
            "batch-learn",
            {"b": _item("tree", "A: r(e0,e1)\nA: r(e2,e3)\nA: r(e3,e2)", "Q: AQ A(e0)"), "a": ABOX},
        ),
        ("batch-learn", {"b": _item("tree", "A: r(e0,e1)\nA: s(e0,e1)", "Q: AQ A(e0)"), "a": ABOX}),
    ],
)
def test_reported_crashes_exit_2(command, files):
    assert run(command, files) == 2
