"""The benchmark's three closed-loop workloads.

Each one times a different stage of the RpStacks pipeline
(simulate -> graph -> stack walk/reduce -> cache -> price -> validate)
through the program's public API; see ``perfbench/README.md`` for why
these three and what each one bypasses.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
from typing import Dict, List, Sequence

from repro import ArtifactCache, Machine, analyze, make_workload, suite_names
from repro.common.events import EventType
from repro.dse.designspace import DesignSpace
from repro.dse.sweep import sweep_space
from repro.dse.validate import (
    bottleneck_reduction_scenarios,
    validate_predictors,
)

#: the seed whose output digests are recorded in ``reference.json``
DEFAULT_SEED = 1

#: Fig 11a and Fig 11b: bottleneck latencies scaled to these fractions
FIG11_FRACTIONS = (0.5, 0.2)

#: size of the fixed validation inputs (generation seed DEFAULT_SEED)
VALIDATE_MACROS = 1000


def fig11_scenarios(session) -> list:
    """The top two bottleneck events of the baseline CPI stack (branch
    mispredictions and base excluded), each scaled to one half and to
    0.2, singly and in pairs: six design points."""
    ranked = sorted(session.cp1.cpi_stack().items(), key=lambda kv: -kv[1])
    bottlenecks = [
        event
        for event, _share in ranked
        if event not in (EventType.BASE, EventType.BR_MISP)
    ][:2]
    scenarios = []
    for fraction in FIG11_FRACTIONS:
        scenarios += bottleneck_reduction_scenarios(
            session.config.latency, bottlenecks, fraction
        )
    return scenarios


def front_digest(result) -> str:
    """SHA-256 of a sweep's Pareto front (latencies, CPIs, costs)."""
    payload = json.dumps(
        [c.as_dict() for c in result.pareto_front()], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def validation_digest(report) -> str:
    """SHA-256 of every simulated and predicted cycle count in *report*."""
    rows = {
        name: [[e.simulated_cycles, e.predicted_cycles] for e in errors]
        for name, errors in report.errors.items()
    }
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


def accuracy(points: Sequence[float]) -> Dict[str, float]:
    """Mean and worst RpStacks abs % error over validated *points*."""
    return {
        "pred_err_pct": sum(points) / len(points),
        "pred_err_max_pct": max(points),
    }


def fixed_accuracy() -> Dict[str, float]:
    """RpStacks' error on the fixed Fig 11a+11b validation set: every
    analogue at :data:`VALIDATE_MACROS` macro-ops, generation seed
    :data:`DEFAULT_SEED`, the inputs ``sim_validate`` times.

    The workloads that validate no design points in their ops run it
    once per run, untimed and in a child process, so every workload
    reports the same exact accuracy figures.
    """
    points: List[float] = []
    for name in suite_names():
        workload = make_workload(name, VALIDATE_MACROS, seed=DEFAULT_SEED)
        session = analyze(workload)
        report = validate_predictors(
            Machine(workload, session.config),
            session.predictors(),
            fig11_scenarios(session),
        )
        points += [e.abs_error_percent for e in report.errors["rpstacks"]]
    return accuracy(points)


def prime(seed: int, rundir: pathlib.Path) -> None:
    """One small pass through every entry point the workloads time.

    It compiles the native simulator and reducer into the run-scoped
    native cache and pays every lazy import and first-call cost in
    set-up, so neither lands in the first timed op; and in the traced
    run it gives every layer at least one traced call on every workload.
    """
    workload = make_workload("gcc", 200, seed=seed)
    cache = ArtifactCache(rundir / "prime")
    cold = analyze(workload, cache=cache)
    warm = analyze(workload, cache=cache)
    if warm.rpstacks.content_digest() != cold.rpstacks.content_digest():
        raise RuntimeError("prime: warm reload differs from the cold build")
    sweep_space(
        warm.rpstacks,
        DesignSpace.from_mapping({EventType.L1D: [1, 2], EventType.L2D: [4, 8]}),
    )
    validate_predictors(
        Machine(workload, cold.config), cold.predictors(), fig11_scenarios(cold)
    )


class ColdAnalyze:
    """``analyze()`` of a freshly generated analogue into an empty cache.

    Unit: µops analysed.  Every op simulates, builds the graph, walks and
    reduces the stacks, builds the baselines and stores the artifacts.
    """

    name = "cold_analyze"
    unit = "uops"
    MACROS = 600
    #: inputs depend on the run's seed (reference digests: default seed only)
    seeded = True
    #: wall seconds of one rotation, op preparation and checks included,
    #: when the benchmark was defined; sizes a run's rotation count
    ROTATION_S = 4.0

    def setup(self, seed: int, rundir: pathlib.Path) -> None:
        self.seed = seed
        self.rundir = rundir
        self.reloaded: set = set()
        prime(seed, rundir)

    def keys(self) -> List[str]:
        return list(suite_names())

    def prepare(self, key: str):
        cache = self.rundir / "cold" / key
        shutil.rmtree(cache, ignore_errors=True)
        return make_workload(key, self.MACROS, seed=self.seed), cache

    def run(self, args):
        workload, cache = args
        return analyze(workload, cache=cache)

    def check(self, key: str, args, session):
        workload, cache = args
        digest = session.rpstacks.content_digest()
        error = None
        if key not in self.reloaded:
            # Self-consistency: the artifacts the op stored reload to
            # the model it built.
            self.reloaded.add(key)
            store = ArtifactCache(cache)
            reloaded = analyze(workload, cache=store)
            if store.hits != 1:
                error = f"{key}: the stored analysis did not reload"
            elif reloaded.rpstacks.content_digest() != digest:
                error = f"{key}: the warm reload differs from the cold build"
        return len(workload), digest, error


class WarmExplore:
    """A warm ``analyze()`` (cache hit) plus a latency sweep to a front.

    Unit: design points priced.  The stack walk does no work here: the
    op is the cache load (with the CP1 rebuild) and batch pricing.
    """

    name = "warm_explore"
    unit = "points"
    MACROS = 2000
    seeded = True
    ROTATION_S = 1.25
    NAMES = ("gamess", "mcf", "leslie3d", "libquantum")
    SPACE = {
        EventType.L1D: [1, 2, 3, 4],
        EventType.FP_ADD: [1, 2, 3, 4, 5, 6],
        EventType.MEM_D: [17, 33, 50, 66, 83, 100],
        EventType.L2D: [2, 4, 6, 8, 10, 12],
        EventType.FP_MUL: [1, 2, 3, 4, 5, 6],
        EventType.LD: [1, 2, 3, 4],
        EventType.ST: [1, 2],
    }

    def setup(self, seed: int, rundir: pathlib.Path) -> None:
        self.seed = seed
        prime(seed, rundir)
        self.space = DesignSpace.from_mapping(self.SPACE)
        self.cache = ArtifactCache(rundir / "warm")
        #: analogue -> model digest of the cold build that primed the cache
        self.cold: Dict[str, str] = {
            name: analyze(
                make_workload(name, self.MACROS, seed=seed), cache=self.cache
            ).rpstacks.content_digest()
            for name in self.NAMES
        }
        self.hits = self.cache.hits

    def keys(self) -> List[str]:
        return list(self.NAMES)

    def prepare(self, key: str):
        return make_workload(key, self.MACROS, seed=self.seed)

    def run(self, workload):
        session = analyze(workload, cache=self.cache)
        return session, sweep_space(session.rpstacks, self.space)

    def check(self, key: str, workload, output):
        session, result = output
        hits, self.hits = self.hits, self.cache.hits
        error = None
        if self.cache.hits != hits + 1:
            error = f"{key}: analyze() missed the primed cache"
        elif session.rpstacks.content_digest() != self.cold[key]:
            error = f"{key}: the warm reload differs from the cold build"
        return result.num_points, front_digest(result), error


class SimValidate:
    """Fig 11a+11b validation of one analogue against fresh simulation.

    Unit: design points simulated.  Its inputs are fixed (generation
    seed :data:`DEFAULT_SEED` whatever the run's seed, which only picks
    the analogue the rotation starts from), so ``pred_err_pct`` and
    ``pred_err_max_pct`` are exact figures that compare across commits.
    """

    name = "sim_validate"
    unit = "points"
    MACROS = VALIDATE_MACROS
    seeded = False
    ROTATION_S = 0.7

    def setup(self, seed: int, rundir: pathlib.Path) -> None:
        prime(seed, rundir)
        names = list(suite_names())
        start = seed % len(names)
        self.order = names[start:] + names[:start]
        #: analogue -> (config, predictors, scenarios, baseline cycles)
        self.cases = {}
        for name in names:
            session = analyze(make_workload(name, self.MACROS, seed=DEFAULT_SEED))
            self.cases[name] = (
                session.config,
                session.predictors(),
                fig11_scenarios(session),
                session.baseline_result.cycles,
            )
        #: analogue -> RpStacks abs % error of each validated point
        self.errors: Dict[str, List[float]] = {}

    def keys(self) -> List[str]:
        return list(self.order)

    def prepare(self, key: str):
        return key, make_workload(key, self.MACROS, seed=DEFAULT_SEED)

    def run(self, args):
        key, workload = args
        config, predictors, scenarios, _ = self.cases[key]
        return validate_predictors(Machine(workload, config), predictors, scenarios)

    def check(self, key: str, args, report):
        _, workload = args
        config, _, scenarios, baseline_cycles = self.cases[key]
        error = None
        if key not in self.errors:
            # Self-consistency: a fresh machine re-simulates the
            # analysis baseline to the same cycle count.
            self.errors[key] = [
                e.abs_error_percent for e in report.errors["rpstacks"]
            ]
            if Machine(workload, config).cycles(config.latency) != baseline_cycles:
                error = f"{key}: re-simulated baseline differs from the analysis"
        return len(scenarios), validation_digest(report), error

    def accuracy(self) -> Dict[str, float]:
        """Mean and worst RpStacks error over every validated point."""
        return accuracy([e for errors in self.errors.values() for e in errors])


WORKLOADS = {cls.name: cls for cls in (ColdAnalyze, WarmExplore, SimValidate)}
