"""Outside-in tracing of blockmech's layers for the benchmark's traced run.

The tracer wraps public functions of each layer from outside the package:
every module of the package that holds a function under its defining name
gets the wrapper, so calls that go through a module-level import are seen
too. Spans (name, start, end, parent) are kept in memory; a layer's self
time is its spans' duration minus the part covered by their child spans.
Counters are taken at the same boundaries. `with tracer.active():` installs
the wrappers and restores every original on exit.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import blockmech
from blockmech import default_algo, harness, mechanism

# Span names whose `.calls` and `.self_s` are reported.
TIMED_LAYERS = (
    "conflict.groups",
    "default_algo.block_building",
    "default_algo.counterfactual_blocks",
    "default_algo.resolve_group",
    "default_algo.resolve_cf",
    "model.block_bids",
    "mechanism.refund_default",
    "mechanism.run",
    "mechanism.produce",
    "baselines.greedy",
    "oracle.vcg",
    "strategies.sweep",
    "harness.verify",
    "workload.generate",
)



class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end); parent 0 = root
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._groups_by_run = defaultdict(set)  # run span id -> groups resolved

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _nearest(self, name: str):
        for sid, span_name in reversed(self._stack()):
            if span_name == name:
                return sid
        return None

    def _timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        """Wrap a generator function, counting the items it yields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self._add(name, n)

        return wrapper

    def _ordered_map(self, original):
        """Span around the map. Items that run on pool threads inherit the
        caller's span stack, so their spans get the map as parent; a call
        counts as pooled when any item ran off the calling thread."""

        @functools.wraps(original)
        def mapped(func, items, threads=1):
            caller = threading.get_ident()
            snapshot = list(self._stack())  # ends with this call's span
            pooled = []

            def call(x):
                if threading.get_ident() == caller:
                    return func(x)
                pooled.append(True)
                self._local.stack = list(snapshot)
                try:
                    return func(x)
                finally:
                    self._local.stack = []

            result = original(call, items, threads)
            if pooled:
                self._add("model.ordered_map.pooled")
            return result

        return self._timed("model.ordered_map", mapped)

    # -- hooks ---------------------------------------------------------------

    def _on_groups(self, args, kwargs, result):
        self._add("conflict.groups.count", len(result))

    def _on_block_bids(self, args, kwargs, result):
        block = args[0] if args else kwargs["block"]
        self._add("model.block_bids.entries", len(block))

    def _on_resolution(self, args, kwargs, result):
        resolution = result[0] if isinstance(result, tuple) else result
        self._add(f"default_algo.strategy.{resolution.strategy.value}")
        run = self._nearest("mechanism.run")
        if run is not None:
            self._add("default_algo.resolutions_in_run")
            self._groups_by_run[run].add(resolution.group.members)

    def _on_run(self, args, kwargs, result):
        scenario = args[0] if args else kwargs["scenario"]
        self._add("mechanism.run.bundles", len(scenario.bundles))
        if self._nearest("strategies.sweep") is not None:
            self._add("strategies.runs_in_sweep")

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(defining module, attribute, wrapper factory) for every wrapped
        function."""
        t = self._timed
        out = [
            ("conflict", "get_conflict_groups",
             lambda f: t("conflict.groups", f, self._on_groups)),
            ("default_algo", "block_building",
             lambda f: t("default_algo.block_building", f)),
            ("default_algo", "counterfactual_blocks",
             lambda f: t("default_algo.counterfactual_blocks", f)),
            ("default_algo", "resolve_group",
             lambda f: t("default_algo.resolve_group", f, self._on_resolution)),
            ("default_algo", "resolve_group_with_counterfactuals",
             lambda f: t("default_algo.resolve_cf", f, self._on_resolution)),
            ("default_algo", "candidate_set",
             lambda f: self._counted("default_algo.candidates", f)),
            ("model", "block_bids",
             lambda f: t("model.block_bids", f, self._on_block_bids)),
            ("model", "ordered_map", self._ordered_map),
            ("mechanism", "run_mechanism",
             lambda f: t("mechanism.run", f, self._on_run)),
            ("mechanism", "refund_default",
             lambda f: t("mechanism.refund_default", f)),
            ("baselines", "greedy_by_bid", lambda f: t("baselines.greedy", f)),
            ("baselines", "greedy_by_density", lambda f: t("baselines.greedy", f)),
            ("oracle", "vcg_outcome", lambda f: t("oracle.vcg", f)),
            ("oracle", "full_omega", lambda f: self._counted("oracle.omega.blocks", f)),
            ("workload", "generate_scenario", lambda f: t("workload.generate", f)),
        ]
        for name in ("searcher_deviation_sweep", "builder_deviation_sweep",
                     "integration_game"):
            out.append(("strategies", name, lambda f: t("strategies.sweep", f)))
        for name in sorted(vars(harness)):
            if name.startswith("verify_"):
                out.append(("harness", name, lambda f: t("harness.verify", f)))
        return out

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "blockmech" or name.startswith("blockmech.")
        ]
        patches = []  # (owner, attribute, original)
        try:
            for module_name, attr, factory in self._targets():
                original = getattr(getattr(blockmech, module_name), attr)
                wrapper = factory(original)
                for module in modules:
                    if vars(module).get(attr) is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
            builder_classes = {
                type(factory({})) for factory in mechanism.BUILDER_REGISTRY.values()
            }
            for cls in sorted(builder_classes, key=lambda c: c.__name__):
                original = vars(cls)["produce"]
                patches.append((cls, "produce", original))
                cls.produce = self._timed("mechanism.produce", original)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> summed self time in seconds."""
        children = defaultdict(list)
        for sid, parent, name, start, end in self.spans:
            children[parent].append((start, end))
        out = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] += (end - start) - covered
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> (value, unit)."""
        calls = Counter(name for _, _, name, _, _ in self.spans)
        self_s = self.self_times()
        c = self.counts
        out = {}
        for name in TIMED_LAYERS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out["conflict.groups.count"] = (c["conflict.groups.count"], "count")
        run_groups = sum(len(g) for g in self._groups_by_run.values())
        out["default_algo.passes_per_run"] = (
            c["default_algo.resolutions_in_run"] / run_groups if run_groups else 0.0,
            "passes/run",
        )
        resolve_s = (
            self_s.get("default_algo.resolve_group", 0.0)
            + self_s.get("default_algo.resolve_cf", 0.0)
        )
        out["default_algo.candidates"] = (c["default_algo.candidates"], "count")
        out["default_algo.candidates_per_s"] = (
            c["default_algo.candidates"] / resolve_s if resolve_s else 0.0,
            "1/s",
        )
        for strategy in default_algo.Strategy:
            key = f"default_algo.strategy.{strategy.value}"
            out[key] = (c[key], "count")
        out["model.block_bids.entries"] = (c["model.block_bids.entries"], "count")
        out["oracle.omega.blocks"] = (c["oracle.omega.blocks"], "count")
        sweeps = calls["strategies.sweep"]
        out["strategies.mechanism_runs_per_sweep"] = (
            c["strategies.runs_in_sweep"] / sweeps if sweeps else 0.0,
            "runs/sweep",
        )
        out["model.ordered_map.calls"] = (calls["model.ordered_map"], "count")
        out["model.ordered_map.pooled"] = (c["model.ordered_map.pooled"], "count")
        return out
