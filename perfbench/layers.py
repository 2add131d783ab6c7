"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions and methods that
``analyze()``, ``sweep_space()`` and ``validate_predictors()`` reach,
records each layer's self time (its calls' duration minus the time of
the traced calls nested inside them) and its work counts, and restores
the originals on exit.  Nothing inside ``src/`` changes; a wrapper only
records while :attr:`LayerTracer.enabled` is set, so untimed checks
between ops stay out of the figures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _entry_bytes(directory) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


class LayerTracer:
    """Context manager that installs the layer wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        #: layer -> self seconds
        self.busy: Dict[str, float] = defaultdict(float)
        #: counter name -> total
        self.counts: Dict[str, float] = defaultdict(float)
        #: predictor name -> abs % errors of every validated point
        self.errors: Dict[str, List[float]] = defaultdict(list)
        self._children: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ---- wrapping ---------------------------------------------------

    def _wrap(self, layer: Optional[str], fn: Callable,
              count: Optional[Callable] = None) -> Callable:
        """*fn* timed as *layer* (``None``: not timed, only counted);
        ``count(counts, args, result)`` runs after the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                tracer._children.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    nested = tracer._children.pop()
                    tracer.busy[layer] += elapsed - nested
                    if tracer._children:
                        tracer._children[-1] += elapsed
                tracer.counts[f"{layer}.calls"] += 1
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _patch_method(self, cls, name: str, layer, count=None) -> None:
        self._patch(cls, name, self._wrap(layer, cls.__dict__[name], count))

    def _patch_function(self, fn, layer, count=None) -> None:
        """Rebind *fn* in every loaded module that holds it by name, so
        callers that imported it directly see the wrapper too."""
        wrapper = self._wrap(layer, fn, count)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is fn:
                    self._patch(module, name, wrapper)

    def __enter__(self) -> "LayerTracer":
        from repro.baselines.cp1 import CP1Predictor
        from repro.baselines.fmt import FMTPredictor
        from repro.core import generator
        from repro.core.model import RpStacksModel
        from repro.core.native import NativeReduction
        from repro.dse import sweep, validate
        from repro.graphmodel import builder
        from repro.graphmodel.reeval import GraphReevalPredictor
        from repro.runtime.cache import ArtifactCache
        from repro.simulator.machine import Machine

        try:
            self._patch_method(Machine, "__init__", "simulator")
            self._patch_method(Machine, "simulate", "simulator", _count_sim)
            self._patch_function(builder.build_graph, "graphmodel", _count_graph)
            self._patch_function(
                generator.generate_rpstacks, "core.walk", _count_walk
            )
            self._patch_method(
                NativeReduction, "reduce_node_indices", "core.reduce",
                _count_native_reduce,
            )
            self._patch_function(
                generator.reduce_blocks, "core.reduce", _count_block_reduce
            )
            for cls in (CP1Predictor, FMTPredictor, GraphReevalPredictor):
                self._patch_method(cls, "__init__", "baselines.init")
            self._patch_method(
                RpStacksModel, "predict_cycles_matrix", "core.predict",
                _count_predict,
            )
            self._patch_function(sweep.sweep_space, "dse.sweep", _count_sweep)
            self._patch_method(
                ArtifactCache, "load", "runtime.cache.load", _count_load
            )
            self._patch_method(
                ArtifactCache, "store", "runtime.cache.store", _count_store
            )
            self._patch_function(
                validate.validate_predictors, None, _count_validation
            )
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ---- report -----------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics: name -> ``(value, unit)``."""
        busy, counts = self.busy, self.counts

        def rate(numerator: float, seconds: float) -> float:
            return numerator / seconds if seconds > 0 else 0.0

        def mean(values) -> float:
            return sum(values) / len(values) if values else 0.0

        reduce_calls = counts["core.reduce.calls"]
        loads = counts["runtime.cache.load.calls"]
        sweeps = counts["dse.sweep.calls"]
        generate_s = busy["core.walk"] + busy["core.reduce"]
        return {
            "core.walk.busy_ms": (busy["core.walk"] * 1e3, "ms"),
            "core.reductions_per_s": (
                rate(counts["reductions"], generate_s), "1/s"
            ),
            "core.reduce.busy_ms": (busy["core.reduce"] * 1e3, "ms"),
            "core.reduce.calls": (reduce_calls, "count"),
            "core.reduce.us_per_call": (
                rate(busy["core.reduce"] * 1e6, reduce_calls), "us"
            ),
            "core.reduce.rows_in": (counts["rows_in"], "count"),
            "core.reduce.keep_ratio": (
                rate(counts["rows_kept"], counts["rows_in"]), "ratio"
            ),
            "graphmodel.busy_ms": (busy["graphmodel"] * 1e3, "ms"),
            "graphmodel.edges_per_s": (
                rate(counts["edges"], busy["graphmodel"]), "1/s"
            ),
            "simulator.busy_ms": (busy["simulator"] * 1e3, "ms"),
            "simulator.uops_per_s": (
                rate(counts["sim_uops"], busy["simulator"]), "1/s"
            ),
            "simulator.sim_cycles": (counts["sim_cycles"], "cycles"),
            "runtime.cache.store_ms": (
                busy["runtime.cache.store"] * 1e3, "ms"
            ),
            "runtime.cache.bytes_written": (counts["bytes_written"], "bytes"),
            "runtime.cache.load_ms": (busy["runtime.cache.load"] * 1e3, "ms"),
            "runtime.cache.bytes_read": (counts["bytes_read"], "bytes"),
            "runtime.cache.hit_ratio": (
                rate(counts["cache_hits"], loads), "ratio"
            ),
            "baselines.init_ms": (busy["baselines.init"] * 1e3, "ms"),
            "baselines.cp1_err_pct": (mean(self.errors["cp1"]), "%"),
            "baselines.fmt_err_pct": (mean(self.errors["fmt"]), "%"),
            "core.predict.busy_ms": (busy["core.predict"] * 1e3, "ms"),
            "core.predict.points_per_s": (
                rate(counts["points_priced"], busy["core.predict"]), "1/s"
            ),
            "dse.sweep.busy_ms": (busy["dse.sweep"] * 1e3, "ms"),
            "dse.sweep.front_size": (
                rate(counts["front_size"], sweeps), "count"
            ),
            "dse.sweep.kept_ratio": (
                rate(counts["sweep_kept"], counts["sweep_points"]), "ratio"
            ),
        }


# ---- counters, one per wrapped call (``args[0]`` is ``self`` for methods)


def _count_sim(tracer, args, result) -> None:
    tracer.counts["sim_uops"] += len(args[0].workload)
    tracer.counts["sim_cycles"] += result.cycles


def _count_graph(tracer, args, graph) -> None:
    tracer.counts["edges"] += graph.num_edges


def _count_walk(tracer, args, model) -> None:
    tracer.counts["reductions"] += model.stats.reductions


def _count_native_reduce(tracer, args, kept) -> None:
    tracer.counts["rows_in"] += args[1].shape[0]
    tracer.counts["rows_kept"] += kept


def _count_block_reduce(tracer, args, kept) -> None:
    tracer.counts["rows_in"] += args[0].shape[0]
    tracer.counts["rows_kept"] += kept.shape[0]


def _count_predict(tracer, args, cycles) -> None:
    tracer.counts["points_priced"] += cycles.shape[0]


def _count_sweep(tracer, args, result) -> None:
    tracer.counts["front_size"] += len(result.pareto_front())
    tracer.counts["sweep_kept"] += len(result.candidates)
    tracer.counts["sweep_points"] += result.num_points


def _count_load(tracer, args, session) -> None:
    if session is None:
        return
    cache, key = args[0], args[1]
    tracer.counts["cache_hits"] += 1
    for entry in cache.root.glob(f"*/*/{key}"):
        tracer.counts["bytes_read"] += _entry_bytes(entry)


def _count_store(tracer, args, entry) -> None:
    tracer.counts["bytes_written"] += _entry_bytes(entry)


def _count_validation(tracer, args, report) -> None:
    for name, errors in report.errors.items():
        tracer.errors[name].extend(e.abs_error_percent for e in errors)
