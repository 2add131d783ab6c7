"""A cache hit parses only the model; everything else loads on first use.

The hit verifies every artifact's checksum and the trace and graph
archives' format versions up front, so a bad entry is still a miss at
load time.  The trace, graph, machine and baseline predictors are then
built from the verified bytes when first touched, and must equal the
cold build field for field.
"""

import io
import json
import pickle
import shutil

import numpy as np
import pytest

from repro.baselines.cp1 import CP1Predictor
from repro.baselines.fmt import FMTPredictor
from repro.common.events import EventType
from repro.dse.pipeline import _LAZY_FIELDS, analyze
from repro.obs.observer import Observer
from repro.runtime import graphio
from repro.runtime.cache import ArtifactCache
from repro.runtime.fingerprint import file_checksum
from repro.workloads.suite import make_workload

from tests.runtime.test_differential import (
    PROBES,
    _assert_sessions_identical,
)

MACROS = 60


def _entry(cache):
    (entry,) = [p for p in cache.root.glob("v1/*/*") if p.is_dir()]
    return entry


@pytest.fixture
def primed(tmp_path):
    """A cache holding one cold analysis, plus that cold session."""
    cache = ArtifactCache(tmp_path / "cache")
    workload = make_workload("leslie3d", MACROS)
    cold = analyze(workload, cache=cache)
    return cache, workload, cold


def test_hit_parses_nothing_but_the_model(primed, monkeypatch):
    cache, workload, _ = primed
    calls = []
    original = graphio.load_graph
    monkeypatch.setattr(
        graphio, "load_graph",
        lambda *a, **k: calls.append("load_graph") or original(*a, **k),
    )
    for cls in (CP1Predictor, FMTPredictor):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__",
            lambda self, *a, _init=init, _name=cls.__name__, **k: (
                calls.append(_name) or _init(self, *a, **k)
            ),
        )
    obs = Observer(enabled=True)
    warm = analyze(workload, cache=cache, obs=obs)
    assert cache.hits == 1
    assert obs.metrics.counter_value("traceio.loads.v2") == 0
    assert obs.metrics.counter_value("trace.materializations") == 0
    assert calls == []
    assert set(warm.__dict__) == {
        "config", "rpstacks", "workload", "_artifacts"
    }
    assert warm.workload is workload

    warm.cp1
    assert calls == ["load_graph", "CP1Predictor"]


def test_baseline_cpi_is_served_without_the_trace(primed):
    cache, workload, cold = primed
    warm = analyze(workload, cache=cache)
    assert warm.baseline_cpi == cold.baseline_cpi
    assert warm.baseline_cycles == cold.baseline_result.cycles
    assert "baseline_result" not in warm.__dict__


@pytest.mark.parametrize("name", sorted(_LAZY_FIELDS))
def test_each_lazy_field_equals_the_cold_build_on_first_access(primed, name):
    cache, workload, cold = primed
    # Loaded without the caller's workload, so that field is lazy too.
    warm = cache.load(_entry(cache).name)
    assert name not in warm.__dict__
    getattr(warm, name)
    assert name in warm.__dict__
    _assert_sessions_identical(cold, warm)


def test_lazy_fields_resolve_after_the_entry_is_removed(primed):
    cache, workload, cold = primed
    warm = analyze(workload, cache=cache)
    shutil.rmtree(_entry(cache))
    for name in _LAZY_FIELDS:
        getattr(warm, name)
    _assert_sessions_identical(cold, warm)
    assert warm.simulate(warm.config.latency).cycles == cold.baseline_cycles
    assert warm.machine.timing_runs == 0


def test_unresolved_hit_session_pickles(primed):
    cache, workload, cold = primed
    warm = analyze(workload, cache=cache)
    clone = pickle.loads(pickle.dumps(warm))
    assert set(clone.__dict__) == set(warm.__dict__)
    base = cold.config.latency
    for overrides in PROBES:
        probe = base.with_overrides(overrides)
        for name, predictor in cold.all_predictors().items():
            assert clone.all_predictors()[name].predict_cycles(
                probe
            ) == predictor.predict_cycles(probe), (name, overrides)


def test_hit_machine_keeps_the_analysis_cache_warming(tmp_path):
    """A hit's machine re-simulates with the analysis's ``warm_caches``
    setting, also after an unresolved hit session is pickled."""
    cache = ArtifactCache(tmp_path / "cache")
    workload = make_workload("mcf", MACROS)
    cold = analyze(workload, warm_caches=False, cache=cache)
    hit = analyze(workload, warm_caches=False, cache=cache)
    assert "machine" not in hit.__dict__
    clone = pickle.loads(pickle.dumps(hit))
    probe = cold.config.latency.with_overrides({EventType.L1D: 2})
    cycles = cold.simulate(probe).cycles
    assert hit.simulate(probe).cycles == cycles
    assert clone.simulate(probe).cycles == cycles


def test_unknown_attribute_still_raises(primed):
    cache, workload, _ = primed
    warm = analyze(workload, cache=cache)
    with pytest.raises(AttributeError):
        warm.no_such_field


def _rewrite_version(path):
    """Re-save *path* with an unreadable ``format_version``."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
    meta["format_version"] = 99
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path.write_bytes(buffer.getvalue())


@pytest.mark.parametrize("artifact", ["trace.npz", "graph.npz"])
def test_unreadable_version_with_good_checksum_is_a_miss(primed, artifact):
    cache, workload, cold = primed
    entry = _entry(cache)
    _rewrite_version(entry / artifact)
    meta = json.loads((entry / "meta.json").read_text())
    meta["checksums"][artifact] = file_checksum(entry / artifact)
    (entry / "meta.json").write_text(json.dumps(meta))

    recomputed = analyze(workload, cache=cache)
    assert cache.corruptions == 1
    assert cache.hits == 0
    _assert_sessions_identical(cold, recomputed)
