"""Per-segment batch pricing is bit-identical to per-point pricing.

``predict_cycles_matrix`` prices one segment at a time into an
accumulator.  Every intermediate is an integer-valued float64, so the
result must equal both per-point :meth:`RpStacksModel.predict_cycles`
and the whole-matrix ``maximum.reduceat`` formula it replaced, exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS, EventType
from repro.core.model import RpStacksModel
from repro.dse.sweep import DEFAULT_CHUNK_SIZE as CHUNK


def _reduceat_oracle(model, thetas):
    """The previous kernel: full (paths × n) product, grouped max."""
    values = model._matrix @ thetas
    maxima = np.maximum.reduceat(values, model._segment_starts, axis=0)
    return maxima.sum(axis=0)


def _model(rng, segment_sizes):
    segments = [
        rng.integers(0, 400, size=(size, NUM_EVENTS)).astype(np.float64)
        for size in segment_sizes
    ]
    return RpStacksModel(
        segments, baseline=LatencyConfig(), num_uops=1000
    )


def _thetas(rng, n):
    thetas = rng.integers(0, 300, size=(NUM_EVENTS, n)).astype(np.float64)
    thetas[EventType.BASE] = 1.0
    return thetas


@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    segment_sizes=st.one_of(
        st.lists(st.integers(1, 12), min_size=1, max_size=1),
        st.lists(st.just(1), min_size=1, max_size=6),
        st.lists(st.integers(1, 12), min_size=1, max_size=10),
    ),
    n=st.one_of(st.just(0), st.just(1), st.integers(2, 40)),
)
@settings(max_examples=80, deadline=None)
def test_matrix_equals_per_point_and_reduceat(seed, segment_sizes, n):
    rng = np.random.default_rng(seed)
    model = _model(rng, segment_sizes)
    thetas = _thetas(rng, n)
    batch = model.predict_cycles_matrix(thetas)
    assert batch.shape == (n,)
    assert np.array_equal(batch, _reduceat_oracle(model, thetas))
    per_point = [
        model.predict_cycles(LatencyConfig(tuple(int(v) for v in column)))
        for column in thetas.T
    ]
    assert np.array_equal(batch, np.array(per_point, dtype=np.float64))


def test_more_points_than_one_sweep_chunk():
    rng = np.random.default_rng(7)
    model = _model(rng, [1, 9, 3, 1, 17, 5])
    thetas = _thetas(rng, CHUNK + 3)
    batch = model.predict_cycles_matrix(thetas)
    assert np.array_equal(batch, _reduceat_oracle(model, thetas))
    for column in (0, 1, CHUNK - 1, CHUNK, CHUNK + 2):
        point = LatencyConfig(tuple(int(v) for v in thetas[:, column]))
        assert batch[column] == model.predict_cycles(point)

