"""Outside-in layer tracing, installed at run time.

Each public module-level function of a leavitt module is replaced, in every
leavitt namespace that binds it (``classify.enumerate_cycles`` included), by
a wrapper that records a span: function, start, end and parent span.  Hot
leaf helpers get a call counter instead of a span, because a span on
``is_bundle_ref`` (millions of calls) would swamp the time it measures.
Generator functions also get counters only: their body runs interleaved with
the caller, so a span could not bound it.  The ``enumerate``, ``sigma``,
``sigma_inv`` and ``in_window`` methods of the chen branching systems get
counters as well.  Nothing under ``src/`` is edited; ``uninstall`` restores
every binding.

A layer is the leavitt module that defines a function; a span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
import time

PACKAGE = "leavitt"
COUNT_ONLY = {
    "graphs.make_path", "graphs.make_cycle", "graphs.is_bundle_ref", "graphs.ref_str",
    "algebra.monomial",
}
SYSTEM_METHODS = ("sigma", "sigma_inv", "in_window")
LAYERS = (
    "graphs", "algebra", "ideals", "classify", "branching", "chen",
    "verification", "graphio", "cli", "fields", "catalog",
)


class Tracer:
    """Spans and counts of one traced pass: install, run, uninstall, report."""

    def __init__(self):
        self._restore = []  # (namespace, attribute, original)
        self._wrappers = {}  # original -> its one wrapper, whatever binds it
        self.names = []  # function id -> "layer.function"
        self.counts = {}  # "layer.function" -> [calls]
        self.fn, self.parent, self.start, self.end = [], [], [], []  # the spans
        self._stack = []
        self.graphs_seen = {}  # id -> graph, for enumerate_cycles per graph
        self.cycles_emitted = 0
        self.pairs_emitted = 0
        self.classified = set()
        self.op_index = 0

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrapped = self._wrappers
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(obj)
                self._set(module, attr, wrapped[obj])
        chen = sys.modules.get(PACKAGE + ".chen")
        branching = sys.modules.get(PACKAGE + ".branching")
        if chen is not None and branching is not None:
            for obj in vars(chen).values():
                if not (inspect.isclass(obj) and issubclass(obj, branching.BranchingSystem)):
                    continue
                for meth in SYSTEM_METHODS:
                    if meth in vars(obj):
                        self._set(obj, meth, self._once(vars(obj)[meth], self._counted, f"chen.{meth}"))
                if "enumerate" in vars(obj):
                    self._set(obj, "enumerate", self._once(
                        vars(obj)["enumerate"], self._counted_yield, "branching.window_elements"))

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def _set(self, namespace, attr, value):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _once(self, f, make, name):
        if f not in self._wrappers:
            self._wrappers[f] = make(f, name)
        return self._wrappers[f]

    def _cell(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, f):
        name = f"{f.__module__.rsplit('.', 1)[-1]}.{f.__name__}"
        if name in COUNT_ONLY or inspect.isgeneratorfunction(f):
            return self._counted(f, name)
        fid = len(self.names)
        self.names.append(name)
        after = {
            "graphs.enumerate_cycles": self._after_enumerate_cycles,
            "ideals.enumerate_admissible_pairs": self._after_enumerate_pairs,
            "classify.classify_graded_ideal": self._after_classify,
        }.get(name)
        tracer = self
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.fn.append(fid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = f(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        span.__wrapped__ = f
        return span

    def _counted(self, f, name):
        cell = self._cell(name)

        def counted(*args, **kwargs):
            cell[0] += 1
            return f(*args, **kwargs)

        counted.__wrapped__ = f
        return counted

    def _counted_yield(self, f, name):
        cell = self._cell(name)

        def counted(*args, **kwargs):
            for x in f(*args, **kwargs):
                cell[0] += 1
                yield x

        counted.__wrapped__ = f
        return counted

    # The hooks read the arguments and results of three functions; they stay
    # total so that a changed call shape cannot fail the op being traced.

    def _after_enumerate_cycles(self, args, kwargs, result):
        g = args[0] if args else kwargs.get("g")
        self.graphs_seen[id(g)] = g
        self.cycles_emitted += len(result) if hasattr(result, "__len__") else 0

    def _after_enumerate_pairs(self, args, kwargs, result):
        self.pairs_emitted += len(result) if hasattr(result, "__len__") else 0

    def _after_classify(self, args, kwargs, result):
        pair = args[1] if len(args) > 1 else kwargs.get("pair")
        self.classified.add((self.op_index, getattr(pair, "H", None), getattr(pair, "S", None)))

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str):
        """Write the recorded spans as gzip TSV: name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\n")
            for i, (f, s, e, p) in enumerate(zip(self.fn, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{self.names[f]}\t{s:.9f}\t{e:.9f}\t{p}\n")

    def layer_metrics(self, traced_wall: float) -> dict:
        """Per-layer metrics of the recorded spans and counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        fn_self, fn_total, fn_calls = {}, {}, {}
        for i in range(n):
            name = self.names[self.fn[i]]
            fn_self[name] = fn_self.get(name, 0.0) + dur[i] - child[i]
            fn_total[name] = fn_total.get(name, 0.0) + dur[i]
            fn_calls[name] = fn_calls.get(name, 0) + 1
        layer_self = {layer: 0.0 for layer in LAYERS}  # plus any module added later
        for name, s in fn_self.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + s
        # graphio time, counting graphio calls nested in graphio once
        parse_s = sum(
            dur[i] for i in range(n)
            if self.names[self.fn[i]].startswith("graphio.")
            and not (self.parent[i] >= 0
                     and self.names[self.fn[self.parent[i]]].startswith("graphio."))
        )

        def calls(name):
            return fn_calls.get(name, 0) + self.counts.get(name, [0])[0]

        def per_call(name, scale):
            c = fn_calls.get(name, 0)
            return fn_total.get(name, 0.0) * scale / c if c else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        # is_hereditary spans running under enumerate_admissible_pairs
        enum_id = self.names.index("ideals.enumerate_admissible_pairs") \
            if "ideals.enumerate_admissible_pairs" in self.names else -2
        her_id = self.names.index("graphs.is_hereditary") \
            if "graphs.is_hereditary" in self.names else -2
        her_under = 0
        for i in range(n):
            if self.fn[i] != her_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.fn[p] != enum_id:
                p = self.parent[p]
            her_under += p >= 0

        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update({
            "graphs.enumerate_cycles.calls": calls("graphs.enumerate_cycles"),
            "graphs.enumerate_cycles.self_s": fn_self.get("graphs.enumerate_cycles", 0.0),
            "graphs.enumerate_cycles.calls_per_graph":
                ratio(calls("graphs.enumerate_cycles"), len(self.graphs_seen)),
            "graphs.cycles_emitted": self.cycles_emitted,
            "graphs.classify_cycle.calls": calls("graphs.classify_cycle"),
            "graphs.is_hereditary.calls": calls("graphs.is_hereditary"),
            "graphs.closure.calls": calls("graphs.root") + calls("graphs.tree"),
            "graphs.closure.self_s":
                fn_self.get("graphs.root", 0.0) + fn_self.get("graphs.tree", 0.0),
            "graphs.make_path.calls": calls("graphs.make_path"),
            "graphs.make_cycle.calls": calls("graphs.make_cycle"),
            "graphs.is_bundle_ref.calls": calls("graphs.is_bundle_ref"),
            "ideals.enumerate_admissible_pairs.self_s":
                fn_self.get("ideals.enumerate_admissible_pairs", 0.0),
            "ideals.pair_yield": ratio(self.pairs_emitted, her_under),
            "ideals.contains.calls": calls("ideals.contains"),
            "ideals.contains.us_per_call": per_call("ideals.contains", 1e6),
            "ideals.quotient_graph.per_contains":
                ratio(calls("ideals.quotient_graph"), calls("ideals.contains")),
            "ideals.admissible_pair.calls": calls("ideals.admissible_pair"),
            "algebra.multiply.calls": calls("algebra.multiply"),
            "algebra.multiply.us_per_call": per_call("algebra.multiply", 1e6),
            "algebra.monomial.calls": calls("algebra.monomial"),
            "classify.classify_graded_ideal.calls": calls("classify.classify_graded_ideal"),
            "classify.ms_per_pair": per_call("classify.classify_graded_ideal", 1e3),
            "classify.chen_witness.calls": calls("classify.chen_witness"),
            "classify.reclassify_ratio":
                ratio(calls("classify.classify_graded_ideal"), len(self.classified)),
            "branching.window_elements": calls("branching.window_elements"),
            "branching.check_axioms.s": fn_total.get("branching.check_axioms", 0.0),
            "branching.act.calls": calls("branching.act"),
            "branching.act.us_per_call": per_call("branching.act", 1e6),
            "chen.validate_module.calls": calls("chen.validate_module"),
            "chen.build_module.calls": calls("chen.build_module"),
            "chen.recover_generator.us_per_call": per_call("chen.recover_generator", 1e6),
            "chen.sigma.calls": calls("chen.sigma"),
            "chen.sigma_inv.calls": calls("chen.sigma_inv"),
            "chen.in_window.calls": calls("chen.in_window"),
            "graphio.parse_s": parse_s,
            "trace.coverage": ratio(sum(layer_self.values()), traced_wall),
            "trace.spans": n,
        })
        for suite in ("graph_core", "term_engine", "ideal", "classification", "module"):
            m[f"verification.suite_s.{suite}"] = fn_total.get(f"verification.{suite}_suite", 0.0)
        return m
