"""Top-level simulation entry point (the ``Machine`` facade).

A :class:`Machine` binds one workload to one *structure-domain*
configuration and answers timing queries for any number of latency design
points, sharing the functional pre-pass (caches, TLBs, branch predictor,
dependencies) across them.  This mirrors the paper's exploration shape:
one structure, many latency configurations.

The prepass picks the pipeline (``native``: ``None`` follows the
``REPRO_NATIVE`` gate, ``False`` forces Python, ``True`` requires the
compiled kernels), and every latency point is timed by the loop of that
same pipeline, whatever the gate says by then.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

from repro.common.config import LatencyConfig, MicroarchConfig, baseline_config
from repro.isa.uop import Workload
from repro.obs import clock
from repro.obs.observer import get_observer
from repro.simulator.core import time_prepass
from repro.simulator.prepass import PrepassResult, run_prepass
from repro.simulator.trace import SimResult


class Machine:
    """Simulate one workload on one structure at many latency points.

    The functional pre-pass runs once (it depends only on the structure
    domain); each :meth:`simulate` call prices it under a different
    latency configuration.  Results are memoised per latency point.
    """

    def __init__(
        self,
        workload: Workload,
        config: Optional[MicroarchConfig] = None,
        warm_caches: bool = True,
        warm_stream: Optional[Workload] = None,
        predictor_extra_stream: Optional[Workload] = None,
        native: Optional[bool] = None,
    ) -> None:
        self.workload = workload
        self.config = config or baseline_config()
        # The observer is resolved ambiently (never stored) so Machine —
        # and the AnalysisSession wrapping it — stays picklable across
        # the worker pool and the artifact cache.
        with get_observer().span(
            "sim.prepass", workload=workload.name, uops=len(workload)
        ):
            self._prepass = run_prepass(
                workload,
                self.config,
                warm_caches=warm_caches,
                warm_stream=warm_stream,
                predictor_extra_stream=predictor_extra_stream,
                native=native,
            )
        self._cache: Dict[LatencyConfig, SimResult] = {}
        #: count of timing runs actually executed (for overhead reports)
        self.timing_runs = 0

    @property
    def prepass(self) -> PrepassResult:
        return self._prepass

    def simulate(
        self, latency: Optional[LatencyConfig] = None
    ) -> SimResult:
        """Timing-simulate under *latency* (baseline latency if omitted)."""
        latency = latency or self.config.latency
        cached = self._cache.get(latency)
        if cached is not None:
            return cached
        design = self.config.with_latency(latency)
        obs = get_observer()
        start = clock.perf_seconds()
        with obs.span(
            "sim.run", workload=self.workload.name, uops=len(self.workload)
        ):
            source = self._prepass
            if source.packed is not None:
                # Compiled pipeline: a per-run wrapper around the shared,
                # read-only packed arrays.  Each wrapper carries its own
                # sticky witness arrays, so every latency point starts
                # with unbound witnesses.
                prepass = PrepassResult(
                    stats=source.stats, packed=source.packed
                )
            else:
                # Python pipeline: each run stamps timestamps and
                # witnesses into the records, so each latency point gets
                # its own copies and cached results stay immutable.
                # Record fields are all immutable, so per-record shallow
                # copies suffice.
                prepass = PrepassResult(
                    records=[copy.copy(rec) for rec in source.records],
                    frees_reg_on_commit=source.frees_reg_on_commit,
                    needs_phys_reg=source.needs_phys_reg,
                    macro_last_uop=source.macro_last_uop,
                    stats=source.stats,
                )
            result = time_prepass(self.workload, design, prepass)
        if obs.enabled:
            obs.counter("sim.runs").inc()
            if prepass.packed is not None:
                obs.counter("sim.native_runs").inc()
            obs.counter("sim.uops_retired").inc(len(self.workload))
            obs.histogram("sim.seconds").observe(
                clock.perf_seconds() - start
            )
        self.timing_runs += 1
        self._cache[latency] = result
        return result

    def cycles(self, latency: Optional[LatencyConfig] = None) -> int:
        """Total cycles under *latency*."""
        return self.simulate(latency).cycles

    def cpi(self, latency: Optional[LatencyConfig] = None) -> float:
        """Cycles per µop under *latency*."""
        return self.simulate(latency).cpi
