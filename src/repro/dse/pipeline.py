"""High-level facade: one call from workload to a full analysis session.

``analyze(workload)`` runs the entire RpStacks pipeline of Fig 8a —
baseline timing simulation, dependence-graph construction, RpStacks
generation — and also instantiates the comparison predictors, so
examples, tests and benchmarks all start from the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.cp1 import CP1Predictor
from repro.baselines.fmt import FMTPredictor
from repro.common.config import LatencyConfig, MicroarchConfig, baseline_config
from repro.core.generator import generate_rpstacks
from repro.core.model import RpStacksModel
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import Explorer, ExplorationResult
from repro.graphmodel.builder import build_graph
from repro.graphmodel.graph import DependenceGraph
from repro.graphmodel.reeval import GraphReevalPredictor
from repro.isa.uop import Workload
from repro.simulator.machine import Machine
from repro.simulator.trace import SimResult


@dataclass
class AnalysisSession:
    """Everything derived from one baseline simulation of one workload.

    A cold analysis builds every field up front.  A cache hit
    (:meth:`from_artifacts`) holds only the config and the model; the
    other fields are built from the entry's verified bytes on first
    access and kept.
    """

    workload: Workload
    config: MicroarchConfig
    machine: Machine
    baseline_result: SimResult
    graph: DependenceGraph
    rpstacks: RpStacksModel
    cp1: CP1Predictor
    fmt: FMTPredictor
    reeval: GraphReevalPredictor

    #: a cache hit's :class:`~repro.runtime.cache.EntryArtifacts`
    #: (``None``: every field was built eagerly)
    _artifacts = None

    @classmethod
    def from_artifacts(
        cls,
        config: MicroarchConfig,
        rpstacks: RpStacksModel,
        artifacts,
        workload: Optional[Workload] = None,
    ) -> "AnalysisSession":
        """A cache-hit session whose other fields load on first access.

        *workload* is adopted as is when given; otherwise it comes from
        the trace archive.
        """
        session = cls.__new__(cls)
        session.config = config
        session.rpstacks = rpstacks
        session._artifacts = artifacts
        if workload is not None:
            session.workload = workload
        return session

    def __getattr__(self, name: str):
        # Only reached for names missing from the instance: a cache
        # hit's fields that have not been built yet.  Threads racing
        # here each build an equal value; the last write wins.
        build = _LAZY_FIELDS.get(name)
        if build is None or self._artifacts is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        value = build(self)
        setattr(self, name, value)
        return value

    @property
    def baseline_cycles(self) -> int:
        """Simulated cycles of the baseline run."""
        if self._artifacts is not None:
            return self._artifacts.baseline_cycles
        return self.baseline_result.cycles

    @property
    def baseline_cpi(self) -> float:
        """Simulated CPI of the baseline run (:attr:`SimResult.cpi`)."""
        if self._artifacts is not None:
            return self.baseline_cycles / max(1, self._artifacts.num_uops)
        return self.baseline_result.cpi

    def predictors(self) -> Dict[str, object]:
        """The paper's comparison trio, keyed by report name."""
        return {"rpstacks": self.rpstacks, "cp1": self.cp1, "fmt": self.fmt}

    def all_predictors(self) -> Dict[str, object]:
        """Every single-simulation predictor, including the related-work
        mechanistic interval model and exact graph re-evaluation."""
        from repro.baselines.interval import IntervalModelPredictor

        predictors = self.predictors()
        predictors["interval"] = IntervalModelPredictor(
            self.baseline_result
        )
        predictors["graph-reeval"] = self.reeval
        return predictors

    def explore(
        self,
        space: DesignSpace,
        target_cpi: Optional[float] = None,
    ) -> ExplorationResult:
        """Sweep *space* with the RpStacks predictor (Fig 6a, step 2)."""
        return Explorer(self.rpstacks).explore(space, target_cpi=target_cpi)

    def sweep(
        self,
        space: DesignSpace,
        target_cpi: Optional[float] = None,
        *,
        chunk_size: int = 65536,
        jobs: int = 1,
        top_k: Optional[int] = None,
        obs=None,
        progress_interval: Optional[float] = None,
        retry=None,
        checkpoint=None,
        checkpoint_interval: int = 16,
        resume: bool = False,
        abort_after_chunks: Optional[int] = None,
        backend=None,
    ) -> ExplorationResult:
        """Stream *space* through the bounded-memory sweep engine.

        The million-point version of :meth:`explore`: same Pareto front
        (bit-identical), but chunked, optionally sharded across worker
        processes, and never materialising the space.  ``obs`` /
        ``progress_interval`` forward to
        :func:`repro.dse.sweep.sweep_space` for chunk spans, metrics
        and progress lines; ``retry`` / ``checkpoint`` /
        ``checkpoint_interval`` / ``resume`` / ``abort_after_chunks``
        forward the fault-tolerance machinery (shard retries, crash-safe
        snapshots, bit-identical resume).
        """
        return Explorer(self.rpstacks).sweep(
            space,
            target_cpi=target_cpi,
            chunk_size=chunk_size,
            jobs=jobs,
            top_k=top_k,
            obs=obs,
            progress_interval=progress_interval,
            retry=retry,
            checkpoint=checkpoint,
            checkpoint_interval=checkpoint_interval,
            resume=resume,
            abort_after_chunks=abort_after_chunks,
            backend=backend,
        )

    def simulate(self, latency: LatencyConfig) -> SimResult:
        """Ground-truth re-simulation (validation only — the slow path)."""
        return self.machine.simulate(latency)


def _baseline_machine(session: AnalysisSession) -> Machine:
    """A machine whose memo already holds the baseline run, so
    ``session.simulate(baseline)`` and overhead accounting match a
    freshly analysed session."""
    machine = Machine(session.workload, session.config)
    machine._cache[session.config.latency] = session.baseline_result
    return machine


#: How a cache-hit session builds each deferred field from its artifacts.
_LAZY_FIELDS = {
    "baseline_result": lambda s: s._artifacts.load_result(),
    "workload": lambda s: s.baseline_result.workload,
    "graph": lambda s: s._artifacts.load_graph(),
    "machine": _baseline_machine,
    "cp1": lambda s: CP1Predictor(s.graph, s.config.latency),
    "fmt": lambda s: FMTPredictor(s.baseline_result),
    "reeval": lambda s: GraphReevalPredictor(s.graph),
}


def analyze(
    workload: Workload,
    config: Optional[MicroarchConfig] = None,
    similarity_threshold: float = 0.7,
    segment_length: int = 256,
    max_paths: int = 32,
    preserve_unique: bool = True,
    include_base_in_similarity: bool = False,
    jobs: int = 1,
    warm_caches: bool = True,
    cache=None,
    obs=None,
) -> AnalysisSession:
    """Run the full single-simulation analysis pipeline on *workload*.

    Args:
        workload: the dynamic micro-op stream to analyse.
        config: structure + baseline latencies (Table II default).
        similarity_threshold / segment_length / max_paths /
            preserve_unique / include_base_in_similarity: RpStacks
            generation parameters (§III-C).
        jobs: worker processes for segment-parallel stack generation.
            Segments are independent (§IV-D) and results are
            order-merged, so any ``jobs`` value yields a byte-identical
            model; ``jobs`` therefore never enters the cache key.
        warm_caches: warm caches/TLBs to steady state before measuring.
        cache: an :class:`~repro.runtime.cache.ArtifactCache` (or a
            cache directory path) for content-addressed reuse: when the
            exact same analysis has run before, the session comes from
            its archived artifacts instead of a new simulation (the
            model parsed at once, the rest on first access).
        obs: an :class:`~repro.obs.Observer`; installed as the ambient
            observer for the duration of the call so every stage below
            (simulation, graph build, stack generation, cache probes)
            records spans and metrics into it.  ``None`` keeps whatever
            observer is already ambient (the disabled one by default).

    Returns:
        An :class:`AnalysisSession` with the model and all baselines.
    """
    from repro.obs.observer import use_observer

    with use_observer(obs) as observer:
        return _analyze_instrumented(
            workload,
            config,
            similarity_threshold,
            segment_length,
            max_paths,
            preserve_unique,
            include_base_in_similarity,
            jobs,
            warm_caches,
            cache,
            observer,
        )


def _analyze_instrumented(
    workload,
    config,
    similarity_threshold,
    segment_length,
    max_paths,
    preserve_unique,
    include_base_in_similarity,
    jobs,
    warm_caches,
    cache,
    obs,
) -> AnalysisSession:
    config = config or baseline_config()
    if cache is not None:
        from repro.core.reduction import ReductionPolicy
        from repro.runtime.cache import open_cache

        cache = open_cache(cache)
        key = cache.key_for(
            workload,
            config,
            policy=ReductionPolicy(
                similarity_threshold=similarity_threshold,
                max_paths=max_paths,
                preserve_unique=preserve_unique,
                include_base_in_similarity=include_base_in_similarity,
            ),
            segment_length=segment_length,
            warm_caches=warm_caches,
        )
        with obs.span("cache.load", workload=workload.name) as span:
            session = cache.load(key, workload=workload)
        if session is not None:
            obs.counter("cache.hit").inc()
            span.set(outcome="hit")
            return session
        obs.counter("cache.miss").inc()
        span.set(outcome="miss")
    with obs.span("analyze", workload=workload.name, uops=len(workload)):
        machine = Machine(workload, config, warm_caches=warm_caches)
        result = machine.simulate()
        graph = build_graph(result)
        rpstacks = generate_rpstacks(
            graph,
            config.latency,
            similarity_threshold=similarity_threshold,
            segment_length=segment_length,
            max_paths=max_paths,
            preserve_unique=preserve_unique,
            include_base_in_similarity=include_base_in_similarity,
            jobs=jobs,
        )
        with obs.span("baselines.init", workload=workload.name):
            session = AnalysisSession(
                workload=workload,
                config=config,
                machine=machine,
                baseline_result=result,
                graph=graph,
                rpstacks=rpstacks,
                cp1=CP1Predictor(graph, config.latency),
                fmt=FMTPredictor(result),
                reeval=GraphReevalPredictor(graph),
            )
        if cache is not None:
            with obs.span("cache.store", workload=workload.name):
                cache.store(key, session)
    return session
