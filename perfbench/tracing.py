"""Outside-in tracing: wrap the package's layer functions, record spans.

``Tracer.installed()`` replaces each function in ``LAYERS`` under every
name it is bound to in the package and in the benchmark's own modules
(``learn_iq``, ``learn_cqr``, ``updates`` and ``batch`` import the learner
phases by name, ``reasoner`` imports ``canonical``), and puts the originals
back on exit.  Each call records a span (name, start, end, parent) in
memory; ``write`` dumps them as tab-separated lines.  A span's self time
is its duration minus the time its child spans cover.

Direct recursion (``canonical`` calling itself) folds into the outermost
call, so ``calls`` counts calls from other code.  A generator function
(``enumerate_closure``) records one span per resumption and one call per
generator made.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

from elhlearn.syntax import AtomicQuery, ConjunctiveQuery, RoleQuery, is_existential_atom_query


def _query_kind(args, kwargs) -> str:
    q = kwargs.get("q", args[2] if len(args) > 2 else None)
    if isinstance(q, AtomicQuery):
        return "aq" if len(q.args) == 1 else "role"
    if isinstance(q, RoleQuery):
        return "role"
    if isinstance(q, ConjunctiveQuery):
        return "bcq" if is_existential_atom_query(q) else "cq"
    return "iq"


def _pairs(tracer, args, result, before):
    gi, gj = args[0], args[2]
    tracer.counters["reasoner.separating_witness.pairs"] += len(list(gi.elements())) * len(
        list(gj.elements())
    )


def _elements(tracer, args, result, before):
    tracer.counters["reasoner.build_model.elements"] += len(result.labels)


def _session_sums(args):
    return args[0].mq_input_size_sum, args[0].eq_input_size_sum


def _mq_input(tracer, args, result, before):
    tracer.counters["teacher.OracleSession.membership.input_size"] += (
        args[0].mq_input_size_sum - before[0]
    )


def _eq_input(tracer, args, result, before):
    session = args[0]
    tracer.counters["teacher.OracleSession.inseparability.input_size"] += (
        session.eq_input_size_sum - before[1]
    )
    tracer.counters["teacher.counterexample_size_max"] = max(
        tracer.counters["teacher.counterexample_size_max"], session.largest_counterexample
    )


class Layer:
    def __init__(self, module, attr, metrics=("calls", "self_s"), kinds=None, after=None,
                 before=None):
        self.module = module  # module name inside the package
        self.attr = attr  # "function" or "Class.method"
        self.name = f"{module}.{attr}"
        self.metrics = metrics
        self.kinds = kinds  # span name suffix chosen per call
        self.before = before  # before(args): state handed to ``after``
        self.after = after


LAYERS = [
    Layer("reasoner", "separating_witness", after=_pairs),
    Layer("reasoner", "inseparability_gap", ("self_s",)),
    Layer("reasoner", "build_model", after=_elements),
    Layer("reasoner", "ModelCache.get", ("calls",)),
    Layer("reasoner", "kb_key", ("self_s",)),
    Layer("reasoner", "abox_key", ("self_s",)),
    Layer("syntax", "canonical"),
    Layer("reasoner", "answers_query", kinds=_query_kind),
    Layer("reasoner", "entails_ci"),
    Layer("updates", "enumerate_closure"),
    Layer("updates", "generalise"),
    Layer("reasoner", "bisimilar"),
    Layer("updates", "check_bisim_preservation"),
    Layer("reasoner", "inseparable"),
    Layer("teacher", "OracleSession.membership",
          before=_session_sums, after=_mq_input),
    Layer("teacher", "OracleSession.inseparability",
          before=_session_sums, after=_eq_input),
    Layer("learn_aq", "CachedOracle.membership", ("calls",)),
    Layer("learn_aq", "bootstrap_atomic"),
    Layer("learn_aq", "tree_shape"),
    Layer("learn_aq", "aq_phase"),
    Layer("learn_iq", "iq_step"),
    Layer("learn_iq", "reduce_counterexample"),
    Layer("learn_iq", "reduce_ci"),
    Layer("learn_iq", "merge_reduced"),
    Layer("learn_cqr", "saturate_counterexample"),
    Layer("learn_cqr", "cq_to_iq"),
    Layer("batch", "build_batch"),
    Layer("batch", "learn_from_batch"),
    Layer("pac", "pac_from_exact"),
    Layer("pac", "true_error"),
    Layer("textio", "parse_tbox"),
    Layer("textio", "parse_abox"),
    Layer("textio", "parse_queries"),
    Layer("cli", "main", ()),
]
QUERY_KINDS = ("aq", "iq", "role", "cq", "bcq")
# per-layer metrics the traced run adds from its own tallies
RUN_METRICS = ("mq_count", "eq_count", "oracle_input_total", "budget_ratio_max", "trace_overhead_s")
# modules outside the package that bind layer functions by name
BENCH_MODULES = ("workloads",)


def metric_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        if layer.kinds:
            names += [f"{layer.name}.{k}.{m}" for k in QUERY_KINDS for m in layer.metrics]
        else:
            names += [f"{layer.name}.{m}" for m in layer.metrics]
    return names + [
        "reasoner.separating_witness.pairs",
        "reasoner.build_model.elements",
        "reasoner.ModelCache.hit_ratio",
        "teacher.OracleSession.membership.input_size",
        "teacher.OracleSession.inseparability.input_size",
        "teacher.counterexample_size_max",
        "learn_aq.mq_memo_hit_ratio",
        "cli.main.total_s",
    ]


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._funcs: list[object] = []  # the layer of each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, layer) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._funcs.append(layer)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._funcs.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: Layer, orig):
        tracer = self

        if inspect.isgeneratorfunction(orig):
            @functools.wraps(orig)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    return (yield from orig(*args, **kwargs))
                tracer.calls[layer.name] += 1
                inner = orig(*args, **kwargs)
                while True:
                    idx = tracer._open(layer.name, layer)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active or (tracer._funcs and tracer._funcs[-1] is layer):
                return orig(*args, **kwargs)
            name = f"{layer.name}.{layer.kinds(args, kwargs)}" if layer.kinds else layer.name
            tracer.calls[name] += 1
            before = layer.before(args) if layer.before else None
            idx = tracer._open(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if layer.after:
                layer.after(tracer, args, result, before)
            return result

        return wrapper

    def _bind(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        homes = {layer.module: importlib.import_module(f"elhlearn.{layer.module}")
                 for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "elhlearn" or n.startswith("elhlearn.") or n in BENCH_MODULES]
        for layer in LAYERS:
            home = homes[layer.module]
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(home, cls_name)
                self._bind(cls, meth, self._wrap(layer, cls.__dict__[meth]))
                continue
            orig = getattr(home, layer.attr)
            wrapped = self._wrap(layer, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._bind(mod, attr, wrapped)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        names = self.span_names
        for i in range(len(self.name_of)):
            dur = self.end[i] - self.start[i]
            out[names[self.name_of[i]]] += dur
            if self.parent[i] >= 0:
                out[names[self.name_of[self.parent[i]]]] -= dur
        return out

    def _count_children(self, child: str, parent: str) -> int:
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        return sum(
            1 for i in range(len(self.name_of))
            if self.name_of[i] == cid and self.parent[i] >= 0
            and self.name_of[self.parent[i]] == pid
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        self_s = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in metric_names():
            base, _, what = name.rpartition(".")
            if what == "calls":
                out[name] = (self.calls.get(base, 0), "count")
            elif what == "self_s":
                out[name] = (self_s.get(base, 0.0), "s")
            else:
                out[name] = (self.counters.get(name, 0), "count")
        gets = self.calls.get("reasoner.ModelCache.get", 0)
        builds = self._count_children("reasoner.build_model", "reasoner.ModelCache.get")
        out["reasoner.ModelCache.hit_ratio"] = (1 - builds / gets if gets else 0.0, "ratio")
        asks = self.calls.get("learn_aq.CachedOracle.membership", 0)
        passed = self._count_children(
            "teacher.OracleSession.membership", "learn_aq.CachedOracle.membership")
        out["learn_aq.mq_memo_hit_ratio"] = (1 - passed / asks if asks else 0.0, "ratio")
        main_id = self._ids.get("cli.main")
        out["cli.main.total_s"] = (
            sum(self.end[i] - self.start[i] for i in range(len(self.name_of))
                if self.name_of[i] == main_id),
            "s",
        )
        return out

    def span_count(self) -> int:
        return len(self.name_of)

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated lines; parent -1 marks a root."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.span_names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\n")
            for i in range(len(self.name_of)):
                fh.write(f"{i}\t{names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")


# Workloads on which each per-layer metric must be non-zero; a zero there
# means a wrapper was bound under the wrong name or a layer went unused.
# The first prefix a metric name starts with decides.
REQUIRED = [
    ("reasoner.separating_witness.", ("corpus",)),
    ("reasoner.inseparability_gap.", ("corpus",)),
    ("reasoner.build_model.", ("reason-stream", "corpus")),
    ("reasoner.ModelCache.", ("corpus",)),
    ("reasoner.kb_key.", ("corpus",)),
    ("reasoner.abox_key.", ("corpus",)),
    ("syntax.canonical.", ("corpus",)),
    # the corpus learners ask no boolean CQ
    ("reasoner.answers_query.bcq.", ("reason-stream",)),
    ("reasoner.answers_query.", ("reason-stream", "corpus")),
    ("reasoner.entails_ci.", ("corpus",)),
    ("updates.", ("corpus",)),
    ("reasoner.bisimilar.", ("corpus",)),
    ("reasoner.inseparable.", ("corpus",)),
    ("teacher.", ("corpus",)),
    ("learn_aq.", ("corpus",)),
    ("learn_iq.", ("corpus",)),
    ("learn_cqr.", ("corpus",)),
    ("batch.", ("corpus",)),
    ("pac.", ("corpus",)),
    ("textio.", ("reason-stream",)),
    ("cli.", ("reason-stream",)),
    ("mq_count", ("corpus",)),
    ("eq_count", ("corpus",)),
    ("oracle_input_total", ("corpus",)),
    ("budget_ratio_max", ("corpus",)),
]


def self_check(workload: str, metrics: dict) -> list[str]:
    """Metrics that are zero on a workload that must exercise them."""
    zero = []
    for name, (value, _) in sorted(metrics.items()):
        workloads = next((w for prefix, w in REQUIRED if name.startswith(prefix)), ())
        if workload in workloads and not value > 0:
            zero.append(name)
    return zero
