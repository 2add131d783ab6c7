"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run  # noqa: E402
from perfbench.layers import LayerTracer  # noqa: E402


def test_tail_leaves_ten_samples_beyond_it():
    samples = list(range(1, 101))  # 1..100 ms
    value, percentile, count = harness.tail(samples)
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == harness.TAIL_BEYOND


def test_tail_of_24_samples_is_the_eleventh_largest():
    samples = [float(s) for s in range(24, 0, -1)]
    value, percentile, count = harness.tail(samples)
    assert value == 14.0
    assert percentile == pytest.approx(100 * 14 / 24)
    assert count == 24


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        harness.tail([1.0] * harness.TAIL_BEYOND)


def test_work_per_s_divides_by_summed_op_time():
    ops = [
        harness.OpRecord("a", seconds=0.5, cpu_seconds=0.5, units=100),
        harness.OpRecord("b", seconds=1.5, cpu_seconds=1.5, units=300),
    ]
    # 400 units over 2 s of op time, however long the run's wall time was.
    assert harness.work_per_s(ops) == pytest.approx(200.0)


def test_work_per_s_counts_failed_ops_time_but_not_their_work():
    ops = [
        harness.OpRecord("a", 1.0, 1.0, 100),
        harness.OpRecord("b", 1.0, 1.0, 100, error="b: differs"),
    ]
    assert harness.work_per_s(ops) == pytest.approx(50.0)


class _EchoWorkload:
    """Digest of an op is its key, unless the key names a crash."""

    def keys(self):
        return ["x", "y", "boom"]

    def prepare(self, key):
        return key

    def run(self, key):
        if key == "boom":
            raise RuntimeError("exploded")
        return key

    def check(self, key, args, output):
        return 1, f"digest-{output}", None


def test_corrupted_reference_digest_counts_a_failure_without_raising():
    book = harness.DigestBook({"x": "digest-x", "y": "corrupted"})
    ops = harness.run_pass(_EchoWorkload(), book, 2)
    failed = {op.key for op in ops if op.error}
    assert len(ops) == 6
    assert failed == {"y", "boom"}


def test_a_digest_that_changes_within_a_run_is_a_failure():
    book = harness.DigestBook()
    assert book.check("x", "first") is None
    assert book.check("x", "first") is None
    assert "differs" in book.check("x", "second")


def test_blocks_split_rotations_into_near_equal_non_empty_parts():
    assert run.blocks(12, 4) == [3, 3, 3, 3]
    assert run.blocks(5, 3) == [2, 2, 1]
    assert run.blocks(2, 4) == [1, 1]


class _LoggingWorkload(_EchoWorkload):
    def __init__(self, log):
        self.log = log

    def keys(self):
        return ["x"]

    def run(self, key):
        self.log.append("op")
        return key


def test_measure_runs_the_gaps_between_blocks_and_every_gap_once():
    log = []
    gaps = [lambda n=n: log.append(f"gap{n}") for n in range(3)]
    ops = run.measure(_LoggingWorkload(log), harness.DigestBook(), harness, 2, gaps)
    assert len(ops) == 2
    assert log == ["op", "gap0", "op", "gap1", "gap2"]


def _public_callables():
    from repro.baselines.cp1 import CP1Predictor
    from repro.baselines.fmt import FMTPredictor
    from repro.core import generator
    from repro.core.model import RpStacksModel
    from repro.core.native import NativeReduction
    from repro.dse import pipeline, sweep, validate
    from repro.graphmodel import builder
    from repro.graphmodel.reeval import GraphReevalPredictor
    from repro.runtime.cache import ArtifactCache
    from repro.simulator.machine import Machine

    return {
        "Machine.__init__": Machine.__init__,
        "Machine.simulate": Machine.simulate,
        "builder.build_graph": builder.build_graph,
        "pipeline.build_graph": pipeline.build_graph,
        "generator.generate_rpstacks": generator.generate_rpstacks,
        "pipeline.generate_rpstacks": pipeline.generate_rpstacks,
        "generator.reduce_blocks": generator.reduce_blocks,
        "NativeReduction.reduce_node_indices": NativeReduction.reduce_node_indices,
        "CP1Predictor.__init__": CP1Predictor.__init__,
        "FMTPredictor.__init__": FMTPredictor.__init__,
        "GraphReevalPredictor.__init__": GraphReevalPredictor.__init__,
        "RpStacksModel.predict_cycles_matrix": RpStacksModel.predict_cycles_matrix,
        "sweep.sweep_space": sweep.sweep_space,
        "ArtifactCache.load": ArtifactCache.load,
        "ArtifactCache.store": ArtifactCache.store,
        "validate.validate_predictors": validate.validate_predictors,
    }


def test_tracer_wraps_then_restores_the_originals():
    before = _public_callables()
    with LayerTracer():
        during = _public_callables()
        assert all(during[name] is not before[name] for name in before)
    assert _public_callables() == before


def test_tracer_restores_the_originals_when_the_body_raises():
    before = _public_callables()
    with pytest.raises(KeyError):
        with LayerTracer():
            raise KeyError("body failed")
    assert _public_callables() == before


def test_tracer_attributes_self_time_and_counts(tmp_path):
    from repro import analyze, make_workload

    workload = make_workload("gcc", 60, seed=3)
    plain = analyze(workload, cache=tmp_path / "plain")
    with LayerTracer() as tracer:
        tracer.enabled = True
        traced = analyze(workload, cache=tmp_path / "traced")
        tracer.enabled = False
        analyze(workload, cache=tmp_path / "untimed")
    assert traced.rpstacks.content_digest() == plain.rpstacks.content_digest()
    metrics = tracer.metrics()
    for layer in ("core.walk", "simulator", "graphmodel", "baselines.init"):
        assert tracer.busy[layer] > 0, layer
    assert tracer.counts["runtime.cache.store.calls"] == 1
    assert metrics["runtime.cache.bytes_written"][0] > 0
    assert metrics["simulator.sim_cycles"][0] == traced.baseline_result.cycles
    assert metrics["core.reduce.calls"][0] == traced.rpstacks.stats.reductions
