"""Traced runs: spans around each layer's public entry points, from outside.

:func:`install_layer_wrappers` replaces the public entry points of the
``gevo``, ``gpu``, ``workloads``, ``runtime`` and ``analysis`` layers with
wrappers that record one span per call, and returns the :class:`Tracer`
whose :meth:`Tracer.restore` puts every original back.  The program itself
is not changed: untraced runs never import this module's wrappers.

Spans stay in memory (:attr:`Tracer.spans`) until the job writes them out
at exit; :func:`layer_metrics` turns a span list into the per-layer
metrics.  A span is ``[id, parent_id, name, start, end, attrs]`` with
``parent_id`` ``-1`` at the top.
"""

from __future__ import annotations

import builtins
import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter

#: Spans of these names are device launches; nested ones are solo
#: fallbacks of a batched launch and must not be counted twice.
LAUNCH_SPANS = ("gpu.launch", "gpu.launch_batched")
DECODE_SPANS = ("gpu.decode.lookup", "gpu.decode.build")


class Tracer:
    """An in-memory span recorder plus the wrappers it installed."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[list] = []
        #: ``(owner, attribute, original)`` in installation order.
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------------------
    def call(self, name: str, fn: Callable, args, kwargs,
             describe: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*.

        *describe*, if given, is called as ``describe(attrs, result, args)``
        after the call to add counts (instructions, rows, bytes) to the span.
        """
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, 0.0, 0.0, {}]
        self.spans.append(span)
        self._stack.append(span)
        span[3] = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = _clock()
            self._stack.pop()
        if describe is not None:
            describe(span[5], result, args)
        return result

    def count(self, key: str, amount: int = 1) -> None:
        """Add *amount* to counter *key* of the innermost open span."""
        if self._stack:
            attrs = self._stack[-1][5]
            attrs[key] = attrs.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------------------
    def _wrapper(self, name: str, original: Callable, describe=None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, describe)

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap_method(self, cls, attribute: str, name: str, describe=None) -> None:
        """Trace ``cls.attribute`` (a plain function defined on *cls*)."""
        self._patch(cls, attribute,
                    self._wrapper(name, cls.__dict__[attribute], describe))

    def wrap_function(self, module, attribute: str, name: str, describe=None) -> None:
        """Trace ``module.attribute`` and every ``repro`` module's binding of it.

        Modules that did ``from x import f`` hold their own reference, so
        each one that holds the same object is patched too.
        """
        original = module.__dict__[attribute]
        traced = self._wrapper(name, original, describe)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if (namespace is not None
                    and getattr(loaded, "__name__", "").split(".")[0] == "repro"
                    and namespace.get(attribute) is original):
                self._patch(loaded, attribute, traced)

    def wrap_builtin_compile(self) -> None:
        """Count ``compile()`` calls against the innermost open span."""
        original = builtins.compile
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count("compiles")
            return original(*args, **kwargs)

        self._patches.append((builtins, "compile", original))
        builtins.compile = counted

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    def dump(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


# -- what gets wrapped ---------------------------------------------------------------

def _launch_instructions(attrs, result, args):
    attrs["instructions"] = result.instructions_executed


def _batched_instructions(attrs, results, args):
    attrs["instructions"] = sum(getattr(item, "instructions_executed", 0)
                                for item in results)


def _batched_rows(attrs, result, args):
    # execute_batched raises BatchAbort before returning when it falls back.
    attrs["rows"] = len(args[0])


def _cache_lookup(attrs, result, args):
    attrs["hit"] = 0 if result is None else 1


def _planned_rows(attrs, result, args):
    groups, _ = result
    attrs["grouped"] = sum(len(group) for group in groups)


def _checkpoint_bytes(attrs, result, args):
    path = args[1]
    attrs["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0


def install_layer_wrappers() -> Tracer:
    """Wrap every traced entry point; ``tracer.restore()`` undoes it all."""
    from repro.analysis import epistasis, minimization, subsets
    from repro.gevo import fitness, genome, search
    from repro.gpu import batched, jitted, simulator
    from repro.ir import function
    from repro.runtime import cache, checkpoint, engine
    from repro.workloads.adept import driver as adept_driver
    from repro.workloads.simcov import driver as simcov_driver
    from repro.workloads import toy

    tracer = Tracer()
    try:
        # gevo
        tracer.wrap_method(search.GevoSearch, "run", "gevo.search")
        tracer.wrap_function(genome, "apply_edits", "gevo.apply_edits")
        # gpu: decode (lookups, and the builder calls that are the misses)
        original_lookup = function.Function.__dict__["cached_decoding"]

        def cached_decoding(self, key, build):
            def traced_build(fn):
                return tracer.call("gpu.decode.build", build, (fn,), {})
            return tracer.call("gpu.decode.lookup", original_lookup,
                               (self, key, traced_build), {})

        tracer._patch(function.Function, "cached_decoding",
                      functools.wraps(original_lookup)(cached_decoding))
        # gpu: JIT and launches
        tracer.wrap_function(jitted, "attach_jit", "gpu.jit")
        tracer.wrap_builtin_compile()
        tracer.wrap_method(simulator.GpuDevice, "launch", "gpu.launch",
                           _launch_instructions)
        tracer.wrap_method(simulator.GpuDevice, "launch_batched",
                           "gpu.launch_batched", _batched_instructions)
        tracer.wrap_function(batched, "execute_batched", "gpu.execute_batched",
                             _batched_rows)
        # workloads
        for cls in (fitness.WorkloadAdapter, toy.ToyWorkloadAdapter,
                    simcov_driver.SimCovWorkloadAdapter,
                    adept_driver.AdeptWorkloadAdapter):
            for attribute in ("evaluate", "evaluate_batched"):
                if attribute in cls.__dict__ and not getattr(
                        cls.__dict__[attribute], "__isabstractmethod__", False):
                    tracer.wrap_method(cls, attribute, "workloads.evaluate")
        # runtime
        original_many = engine.EvaluationEngine.__dict__["evaluate_many"]

        def evaluate_many(self, edit_sets):
            before = self.evaluations

            def fresh(attrs, result, args):
                attrs["fresh"] = self.evaluations - before
            return tracer.call("runtime.evaluate_many", original_many,
                               (self, edit_sets), {}, fresh)

        tracer._patch(engine.EvaluationEngine, "evaluate_many",
                      functools.wraps(original_many)(evaluate_many))
        tracer.wrap_method(engine.BatchPlanner, "plan", "runtime.plan",
                           _planned_rows)
        tracer.wrap_method(cache.FitnessCache, "get", "runtime.cache",
                           _cache_lookup)
        tracer.wrap_method(cache.FitnessCache, "put", "runtime.cache")
        tracer.wrap_method(cache.FitnessCache, "maybe_save", "runtime.cache")
        tracer.wrap_method(search.GevoSearch, "capture_checkpoint",
                           "runtime.checkpoint")
        tracer.wrap_method(checkpoint.SearchCheckpoint, "save",
                           "runtime.checkpoint.save", _checkpoint_bytes)
        # analysis
        tracer.wrap_function(minimization, "identify_weak_edits",
                             "analysis.minimize")
        tracer.wrap_function(epistasis, "separate_edits", "analysis.separate")
        tracer.wrap_function(subsets, "exhaustive_subset_analysis",
                             "analysis.subsets")
    except BaseException:
        tracer.restore()
        raise
    return tracer


# -- deriving the per-layer metrics ---------------------------------------------------

def layer_metrics(spans: List[list], fresh_evaluations: int) -> Dict[str, float]:
    """Per-layer metrics of one traced job from its span list.

    Self time is a span's duration minus the durations of its direct
    children.  *fresh_evaluations* is the job's count of cache-miss
    evaluations (the engine's own figure, which the spans must match).
    """
    children: Dict[int, List[list]] = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        children[span[1]].append(span)

    def duration(span) -> float:
        return span[4] - span[3]

    def self_time(span) -> float:
        return duration(span) - sum(duration(child) for child in children[span[0]])

    def has_ancestor(span, names) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = by_id.get(parent[1])
        return False

    named: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        named[span[2]].append(span)

    def total(names, measure=duration, where=None) -> float:
        return sum(measure(span) for name in names for span in named[name]
                   if where is None or where(span))

    def attr_sum(names, key, where=None) -> int:
        return sum(span[5].get(key, 0) for name in names for span in named[name]
                   if where is None or where(span))

    top_launch = lambda span: not has_ancestor(span, LAUNCH_SPANS)  # noqa: E731
    in_launch = lambda span: has_ancestor(span, LAUNCH_SPANS)  # noqa: E731
    top_evaluate = lambda span: not has_ancestor(span, ("workloads.evaluate",))  # noqa: E731

    launch_s = total(LAUNCH_SPANS, where=top_launch)
    decode_in_launch = total(DECODE_SPANS, self_time, in_launch)
    jit_in_launch = total(("gpu.jit",), self_time, in_launch)
    simulate_s = launch_s - decode_in_launch - jit_in_launch
    instructions = attr_sum(LAUNCH_SPANS, "instructions", top_launch)
    evaluate_s = total(("workloads.evaluate",), where=top_evaluate)
    launch_in_evaluate = total(
        LAUNCH_SPANS,
        where=lambda span: top_launch(span) and has_ancestor(span, ("workloads.evaluate",)))
    lookups = sum(1 for span in named["runtime.cache"] if "hit" in span[5])
    hits = attr_sum(("runtime.cache",), "hit")
    fresh = attr_sum(("runtime.evaluate_many",), "fresh")
    batched_ok = [span for span in named["gpu.execute_batched"] if "rows" in span[5]]
    search_s = total(("gevo.search",))
    evaluate_in_search = total(
        ("runtime.evaluate_many",),
        where=lambda span: has_ancestor(span, ("gevo.search",)))
    apply_calls = len(named["gevo.apply_edits"])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "gevo.loop.s": search_s - evaluate_in_search,
        "gevo.apply_edits.calls": apply_calls,
        "gevo.apply_edits.s": total(("gevo.apply_edits",)),
        "gevo.apply_edits.per_eval": ratio(apply_calls, fresh_evaluations),
        "gpu.decode.calls": len(named["gpu.decode.lookup"]),
        "gpu.decode.misses": len(named["gpu.decode.build"]),
        "gpu.decode.s": total(DECODE_SPANS, self_time),
        "gpu.jit.functions": len(named["gpu.jit"]),
        "gpu.jit.source_compiles": sum(span[5].get("compiles", 0) for span in spans),
        "gpu.jit.s": total(("gpu.jit",), self_time),
        "gpu.jit.share_of_launch": ratio(jit_in_launch, launch_s),
        "gpu.launch.calls": sum(1 for name in LAUNCH_SPANS for span in named[name]
                                if top_launch(span)),
        "gpu.launch.s": launch_s,
        "gpu.simulate.s": simulate_s,
        "gpu.sim_instructions": instructions,
        "gpu.simulate.us_per_kinst": ratio(simulate_s * 1e6, instructions / 1000.0),
        "gpu.batched.launches": len(batched_ok),
        "gpu.batched.rows": sum(span[5]["rows"] for span in batched_ok),
        "runtime.batched_fraction": ratio(attr_sum(("runtime.plan",), "grouped"),
                                          fresh_evaluations),
        "workloads.evaluate.calls": sum(1 for span in named["workloads.evaluate"]
                                        if top_evaluate(span)),
        "workloads.evaluate.s": evaluate_s,
        "workloads.host.s": evaluate_s - launch_in_evaluate,
        "runtime.evaluate_many.calls": len(named["runtime.evaluate_many"]),
        "runtime.evaluate_many.s": total(("runtime.evaluate_many",)),
        "runtime.fresh_evaluations": fresh,
        "runtime.cache.hits": hits,
        "runtime.cache.misses": lookups - hits,
        "runtime.cache.hit_ratio": ratio(hits, lookups),
        "runtime.cache.s": total(("runtime.cache",), self_time),
        "runtime.checkpoint.saves": len(named["runtime.checkpoint.save"]),
        "runtime.checkpoint.s": total(("runtime.checkpoint", "runtime.checkpoint.save")),
        "runtime.checkpoint.bytes": attr_sum(("runtime.checkpoint.save",), "bytes"),
        "analysis.minimize.s": total(("analysis.minimize",)),
        "analysis.separate.s": total(("analysis.separate",)),
        "analysis.subsets.s": total(("analysis.subsets",)),
    }
