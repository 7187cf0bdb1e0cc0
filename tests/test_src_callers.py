"""Every top-level definition of ``elhlearn`` is used outside tests.

A definition is a function, a class, or a name that a module-level
assignment binds: a constant or a type alias.  It is used when a root
reaches it through the names that definitions mention.  The roots are:

* the module-level statements of ``src/elhlearn`` other than imports and
  assignments to a name, which run on import (``__init__``, whose re-exports
  do not count, is skipped);
* the console script ``elh`` (``cli.main``);
* everything ``perfbench/`` names, in code or in the dotted string of a
  traced layer;
* ``ALLOWED``, whose entries each say why they stay in the package.

Code that only tests reach belongs under ``tests/``.

Likewise every parameter of every function in ``src/elhlearn``, nested
functions and methods included, is read in its body; ``self``, ``cls`` and
names starting with ``_`` are exempt, and so is each entry of
``UNREAD_ALLOWED``, which says why it stays.

And every parameter with a default, an option, is passed by some call in
``src/elhlearn`` or ``perfbench/``, by keyword or by position.  A call
matches a function by its bare name, a class by its name for ``__init__``;
a call with ``*args`` passes every positional option of that name, one with
``**kwargs`` every option.  Each entry of ``OPTION_ALLOWED`` says why its
option stays although no such call passes it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "elhlearn"
BENCH = ROOT / "perfbench"

# the console script of pyproject.toml
ENTRY_POINTS = {"main"}

ALLOWED = {
    "reasoner.simulation": "the greatest simulation, public next to bisimilar",
    "reasoner.is_simulation": "checks a claimed simulation, public next to simulation",
    "textio.parse_concept": "the text format's public entry point for one concept",
}

# ``module.function.parameter`` -> why the parameter stays although unread
UNREAD_ALLOWED = {
    "batch.learn_from_batch.a0": "perfbench/workloads.py passes it; the benchmark is kept as is",
    "batch.learn_from_batch.lang": "perfbench/workloads.py passes it; the benchmark is kept as is",
    "pac.true_error.a0": "perfbench/workloads.py passes it; the benchmark is kept as is",
    "pac.uniform_distribution.seed": "perfbench/workloads.py passes it; the benchmark is kept as is",
}

# ``module.function.parameter`` -> why the option stays although no call
# in ``src`` or ``perfbench/`` passes it
OPTION_ALLOWED = {
    "reasoner.ModelCache.__init__.limit": "tests reach eviction with small caches",
    "reasoner.entails_ci.cache": "acceptance criterion 5 passes it",
    "learn_aq.learn_aq.on_tree": "acceptance criteria 2-4 count the tree examples through it",
    "learn_cqr.saturate_counterexample.stats": "ROADMAP item 4 turns it into per-phase counters",
    "reasoner.simulation.bundles": "elhlearn.simulation is public",
}

DEFINITION = (ast.FunctionDef, ast.ClassDef)
ASSIGNMENT = (ast.Assign, ast.AnnAssign)
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
# an import in ``src`` only binds a name; it is used where it is mentioned
IMPORT = (ast.Import, ast.ImportFrom)


def _names(node: ast.AST) -> set[str]:
    """Identifiers that ``node`` mentions: names, attributes, imports and
    the dotted parts of string constants."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(part for part in sub.value.split(".") if part.isidentifier())
    return out


def _modules(src: Path) -> dict[str, list[ast.stmt]]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8")).body
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }


def _bound(node: ast.stmt) -> list[str]:
    """Names a top-level def, class or assignment to plain names binds."""
    if isinstance(node, DEFINITION):
        return [node.name]
    if isinstance(node, ASSIGNMENT):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unused(src: Path = SRC, bench: Path = BENCH) -> list[str]:
    """``module.name`` of every top-level definition no root reaches."""
    modules = _modules(src)
    defs = {
        f"{mod}.{name}": node
        for mod, body in modules.items()
        for node in body
        for name in _bound(node)
    }
    by_name: dict[str, list[ast.AST]] = {}
    for key, node in defs.items():
        by_name.setdefault(key.split(".")[1], []).append(node)
    reached = set(ENTRY_POINTS) | {key.split(".")[1] for key in ALLOWED}
    for body in modules.values():
        for node in body:
            if not isinstance(node, IMPORT) and not _bound(node):
                reached |= _names(node)
    for path in sorted(bench.glob("*.py")):
        reached |= _names(ast.parse(path.read_text(encoding="utf-8")))
    frontier = list(reached)
    while frontier:
        for node in by_name.get(frontier.pop(), ()):
            for name in _names(node) - reached:
                reached.add(name)
                frontier.append(name)
    return sorted(key for key in defs if key.split(".")[1] not in reached)


def test_every_definition_is_used_outside_tests():
    assert unused() == []


def test_allowlist_names_definitions_that_need_it():
    """An entry names a definition that would be flagged without it."""
    saved = dict(ALLOWED)
    try:
        for key in saved:
            del ALLOWED[key]
            assert key in unused(), key
            ALLOWED[key] = saved[key]
    finally:
        ALLOWED.clear()
        ALLOWED.update(saved)


def unread_parameters(src: Path = SRC) -> list[str]:
    """``module.function.parameter`` for every parameter its function never reads."""
    out: list[str] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, FUNCTION + (ast.ClassDef,)):
                visit(child, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if isinstance(child, FUNCTION):
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                body = [sub for stmt in child.body for sub in ast.walk(stmt)]
                read = {sub.id for sub in body if isinstance(sub, ast.Name)}
                out.extend(
                    f"{name}.{p}"
                    for p in params
                    if p not in read and p not in ("self", "cls") and not p.startswith("_")
                )
            visit(child, name)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return out


def test_every_parameter_is_read():
    assert [p for p in unread_parameters() if p not in UNREAD_ALLOWED] == []


def test_unread_allowlist_names_parameters_that_need_it():
    assert sorted(UNREAD_ALLOWED) == sorted(set(unread_parameters()) & set(UNREAD_ALLOWED))


INF = float("inf")


def _passed(paths: list[Path]) -> dict[str, tuple[float, set[str]]]:
    """Per bare callee name: the most positional arguments any call passes,
    and the keywords passed (``"**"`` for a ``**kwargs``)."""
    out: dict[str, tuple[float, set[str]]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            n = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                n = INF
            most, keywords = out.get(name, (0, set()))
            keywords |= {kw.arg or "**" for kw in node.keywords}
            out[name] = (max(most, n), keywords)
    return out


def unpassed_options(src: Path = SRC, bench: Path = BENCH) -> list[str]:
    """``module.function.parameter`` for every option no call passes."""
    passed = _passed(sorted(src.glob("*.py")) + sorted(bench.glob("*.py")))
    out: list[str] = []

    def visit(node: ast.AST, prefix: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, FUNCTION + (ast.ClassDef,)):
                visit(child, prefix, cls)
                continue
            name = f"{prefix}.{child.name}"
            if isinstance(child, FUNCTION):
                args = child.args
                positional = args.posonlyargs + args.args
                # a method's calls do not pass ``self``; a keyword-only
                # option is passed by keyword alone
                skip = 1 if cls and positional and positional[0].arg in ("self", "cls") else 0
                callee = cls if child.name == "__init__" else child.name
                most, keywords = passed.get(callee, (0, set()))
                first = len(positional) - len(args.defaults)
                options = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
                options += [
                    (INF, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                out.extend(
                    f"{name}.{p}"
                    for i, p in options
                    if i >= most and p not in keywords and "**" not in keywords
                )
            visit(child, name, child.name if isinstance(child, ast.ClassDef) else None)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return out


def test_every_option_is_passed_by_some_caller():
    assert [p for p in unpassed_options() if p not in OPTION_ALLOWED] == []


def test_option_allowlist_names_options_that_need_it():
    assert sorted(OPTION_ALLOWED) == sorted(set(unpassed_options()) & set(OPTION_ALLOWED))
