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

Every name that an ``import`` in a module of ``src/elhlearn`` binds is
mentioned in that module (``__init__`` and ``from __future__`` imports
aside), unless ``IMPORT_ALLOWED`` says why it stays.

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

And there is one counterexample loop: ``learn_aq.check_budget`` is called
from ``learn_aq.refine`` alone, and neither the atomic phase nor the
equivalence loop that run through it loops itself.

And a ``reasoner.ModelCache`` is made only where ``MODEL_CACHE_SITES``
says: the teacher's private per-target stores, the learner's store that
each session backs with one of them, and the few calls that own a cache
for their own length.

And no function nested in another function refers to its own name.  Such a
function closes over its own cell, a reference cycle that keeps everything
else it closes over (a model's labels and edges, say) alive after its call
until the cyclic collector runs.  A recursive helper is a module function
or a method that takes what it reads as arguments.

And every ``@dataclass`` passes ``slots=True``: the package holds many
small values, and a slotted one has no per-instance dict.
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

# ``module.name`` -> why the module imports the name although it never
# mentions it
IMPORT_ALLOWED = {
    "learn_cqr.iq_step": "perfbench/test_perfbench.py reads it (ROADMAP 2b)",
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


def unused_imports(src: Path = SRC) -> list[str]:
    """``module.name`` for every name an import binds but its module never mentions."""
    out: list[str] = []
    for mod, body in _modules(src).items():
        nodes = [sub for stmt in body for sub in ast.walk(stmt)]
        mentioned = {sub.id for sub in nodes if isinstance(sub, ast.Name)}
        for node in nodes:
            if not isinstance(node, IMPORT) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in mentioned:
                    out.append(f"{mod}.{name}")
    return out


def test_every_import_is_mentioned():
    assert [i for i in unused_imports() if i not in IMPORT_ALLOWED] == []


def test_import_allowlist_names_imports_that_need_it():
    assert sorted(IMPORT_ALLOWED) == sorted(set(unused_imports()) & set(IMPORT_ALLOWED))


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


def call_sites(function: str, src: Path = SRC) -> list[str]:
    """``module.function`` enclosing each call of ``function`` by bare name, innermost."""
    out: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == function:
                    out.append(where)
            if isinstance(child, FUNCTION + (ast.ClassDef,)):
                visit(child, f"{where}.{child.name}")
            else:
                visit(child, where)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return out


def test_the_budget_is_checked_by_the_one_counterexample_loop():
    assert call_sites("check_budget") == ["learn_aq.refine"]
    for module, name in [("learn_aq", "aq_phase"), ("learn_iq", "counterexample_loop")]:
        (node,) = [n for n in _modules(SRC)[module] if isinstance(n, FUNCTION) and n.name == name]
        assert not [sub for sub in ast.walk(node) if isinstance(sub, (ast.For, ast.While))], name


# ``module.function`` -> why it makes a ``ModelCache`` of its own
MODEL_CACHE_SITES = {
    "teacher._target_cache": "the two private stores of the target asked about last",
    "teacher.OracleSession.__init__": "the learner's store of one session, backed by a private one",
    "cli.cmd_reason": "elh reason opens no session; its queries share one cache",
    "reasoner.inseparable": "perfbench fixes its signature; the gap and its check share one cache",
    "pac.true_error": "perfbench fixes its signature; it has no session",
    "pac.ring_shattered": "one model of the ring, with no session",
}


def test_model_caches_are_made_only_at_the_listed_sites():
    assert sorted(set(call_sites("ModelCache"))) == sorted(MODEL_CACHE_SITES)


def self_referencing_nested(src: Path = SRC) -> list[str]:
    """``module.outer.inner`` for every nested function that mentions its own name."""
    out: list[str] = []

    def visit(node: ast.AST, prefix: str, nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, FUNCTION + (ast.ClassDef,)):
                visit(child, prefix, nested)
                continue
            name = f"{prefix}.{child.name}"
            if nested and isinstance(child, FUNCTION):
                body = [sub for stmt in child.body for sub in ast.walk(stmt)]
                if any(isinstance(sub, ast.Name) and sub.id == child.name for sub in body):
                    out.append(name)
            visit(child, name, nested or isinstance(child, FUNCTION))

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    return out


def test_no_nested_function_refers_to_itself():
    assert self_referencing_nested() == []


def test_a_nested_recursive_function_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def outer(xs):\n"
        "    def walk(x):\n"
        "        return [walk(y) for y in x]\n"
        "    return walk(xs)\n"
        "\n"
        "class C:\n"
        "    def method(self):\n"
        "        def gen(n):\n"
        "            yield from gen(n - 1)\n"
        "        return self.method\n",
        encoding="utf-8",
    )
    assert self_referencing_nested(tmp_path) == ["mod.outer.walk", "mod.C.method.gen"]


def unslotted_dataclasses(src: Path = SRC) -> list[str]:
    """``module.Class`` for every class whose ``@dataclass`` does not pass ``slots=True``."""
    out: list[str] = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                func = call.func if call else deco
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name != "dataclass":
                    continue
                slots = [k.value for k in call.keywords if k.arg == "slots"] if call else []
                if not (slots and isinstance(slots[0], ast.Constant) and slots[0].value is True):
                    out.append(f"{path.stem}.{node.name}")
    return out


def test_every_dataclass_has_slots():
    assert unslotted_dataclasses() == []


def test_a_dataclass_without_slots_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "\n"
        "@dataclass(frozen=True, slots=False)\n"
        "class B:\n"
        "    x: int\n"
        "\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class D:\n"
        "    x: int\n",
        encoding="utf-8",
    )
    assert unslotted_dataclasses(tmp_path) == ["mod.A", "mod.B", "mod.C"]
