"""Segment-parallel generation differentials (§IV-D).

Segments are independent by construction — cross-boundary dependences
are dropped and every segment starts from a fresh zero stack — so the
parallel walk must be *invisible* in the results:

1. ``jobs=N`` produces a byte-identical :class:`RpStacksModel` to
   ``jobs=1`` on every suite workload (order-merged segment results);
2. the array-native segment walk is bit-identical to the reference
   whole-graph dictionary walk it replaced;
3. the compiled C per-node reducer and the general ``reduce_stacks``
   are bit-identical to the numpy spec ``reduce_blocks``, both at the
   reduce level (fuzz over block-structured populations) and, for C,
   end-to-end with the fallback forced via ``REPRO_NATIVE=0``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.common.config import baseline_config
from repro.common.events import NUM_EVENTS, EventType
from repro.core.generator import RpStacksGenerator, generate_rpstacks
from repro.core.native import load_native
from repro.core.reduction import ReductionPolicy, reduce_blocks, reduce_stacks
from repro.graphmodel.builder import build_graph
from repro.simulator.core import simulate
from repro.workloads.suite import make_workload, suite_names

MACROS = 120
SEGMENT_LENGTH = 64


def _graph(name, macros=MACROS):
    workload = make_workload(name, macros)
    result = simulate(workload, baseline_config())
    return build_graph(result)


class TestSerialParallelParity:
    @pytest.mark.parametrize("name", suite_names())
    def test_models_byte_identical_across_jobs(self, name):
        graph = _graph(name)
        base = baseline_config().latency
        serial = generate_rpstacks(
            graph, base, segment_length=SEGMENT_LENGTH, jobs=1
        )
        parallel = generate_rpstacks(
            graph, base, segment_length=SEGMENT_LENGTH, jobs=2
        )
        assert serial.num_segments == parallel.num_segments
        for mine, theirs in zip(
            serial.segment_stacks, parallel.segment_stacks
        ):
            assert mine.shape == theirs.shape
            assert (mine == theirs).all()
        assert serial.content_digest() == parallel.content_digest()

    def test_content_digest_detects_differences(self):
        graph = _graph("gamess")
        base = baseline_config().latency
        a = generate_rpstacks(graph, base, segment_length=SEGMENT_LENGTH)
        b = generate_rpstacks(graph, base, segment_length=2 * SEGMENT_LENGTH)
        assert a.content_digest() != b.content_digest()


class TestArrayWalkMatchesReference:
    @pytest.mark.parametrize("name", ["gamess", "mcf", "omnetpp"])
    def test_segment_walk_matches_reference_walk(self, name):
        graph = _graph(name)
        generator = RpStacksGenerator(
            graph,
            baseline_config().latency,
            segment_length=SEGMENT_LENGTH,
        )
        fast = generator._generate()
        reference = generator._generate_reference()
        assert fast.num_segments == reference.num_segments
        for mine, theirs in zip(
            fast.segment_stacks, reference.segment_stacks
        ):
            assert mine.shape == theirs.shape
            assert (mine == theirs).all()

    def test_include_base_threads_through_generation(self):
        graph = _graph("gamess")
        base = baseline_config().latency
        off = generate_rpstacks(
            graph, base, segment_length=SEGMENT_LENGTH,
            include_base_in_similarity=False,
        )
        on = generate_rpstacks(
            graph, base, segment_length=SEGMENT_LENGTH,
            include_base_in_similarity=True,
        )
        assert off.content_digest() != on.content_digest()


class TestSegmentView:
    def test_covers_all_nodes_without_overlap(self):
        graph = _graph("gamess")
        count = graph.num_segments(SEGMENT_LENGTH)
        assert count > 1
        total = 0
        for seg in range(count):
            view = graph.segment_view(seg, SEGMENT_LENGTH)
            assert view.node_offset == total
            total += view.num_nodes
        assert total == graph.num_nodes

    def test_drops_only_cross_boundary_edges(self):
        graph = _graph("gamess")
        count = graph.num_segments(SEGMENT_LENGTH)
        kept = sum(
            graph.segment_view(seg, SEGMENT_LENGTH).edge_src.shape[0]
            for seg in range(count)
        )
        # Count intra-segment edges straight off the flat edge list.
        seg_of = lambda node: node // (
            SEGMENT_LENGTH * (graph.num_nodes // graph.num_uops)
        )
        intra = sum(
            1
            for s, d in zip(graph.edge_src, graph.edge_dst)
            if seg_of(int(s)) == seg_of(int(d))
        )
        assert kept == intra
        assert kept < graph.edge_src.shape[0]

    def test_local_edges_stay_in_range(self):
        graph = _graph("mcf")
        view = graph.segment_view(0, SEGMENT_LENGTH)
        assert (view.edge_src >= 0).all()
        assert (view.edge_src < view.num_nodes).all()
        assert view.in_indptr[-1] == view.edge_src.shape[0]

    def test_out_of_range_segment_rejected(self):
        graph = _graph("gamess")
        count = graph.num_segments(SEGMENT_LENGTH)
        with pytest.raises(IndexError):
            graph.segment_view(count, SEGMENT_LENGTH)
        with pytest.raises(IndexError):
            graph.segment_view(-1, SEGMENT_LENGTH)


def _random_block_population(rng):
    """A concatenation of pre-reduced, constant-shifted blocks — the
    invariant ``reduce_blocks`` (and the C reducer) relies on."""
    policy = ReductionPolicy(
        similarity_threshold=float(rng.choice([0.0, 0.3, 0.7, 0.9, 1.0])),
        max_paths=int(rng.integers(1, 9)),
        preserve_unique=bool(rng.integers(0, 2)),
        include_base_in_similarity=bool(rng.integers(0, 2)),
    )
    theta = rng.integers(0, 5, size=NUM_EVENTS).astype(np.float64)
    theta[EventType.BASE] = 1.0
    blocks = []
    for _ in range(int(rng.integers(2, 5))):
        raw = rng.integers(0, 4, size=(int(rng.integers(1, 6)), NUM_EVENTS))
        reduced = reduce_stacks(
            np.asarray(raw, dtype=np.float64), theta, policy
        )
        shift = rng.integers(0, 3, size=NUM_EVENTS).astype(np.float64)
        blocks.append(reduced + shift)
    sizes = np.asarray([b.shape[0] for b in blocks], dtype=np.int32)
    return np.ascontiguousarray(np.vstack(blocks)), sizes, theta, policy


class TestNativeReducerParity:
    def test_native_matches_numpy_reduction(self):
        native = load_native()
        rng = np.random.default_rng(7)
        out = np.empty(256, dtype=np.int32)
        for _ in range(150):
            stacks, sizes, theta, policy = _random_block_population(rng)
            expected = reduce_blocks(stacks, sizes, theta, policy)
            # Block structure is only a shortcut: the general reduction
            # of the same rows is bit-identical.
            general = reduce_stacks(stacks, theta, policy)
            assert general.shape == expected.shape
            assert (general == expected).all()
            if native is None:
                continue  # no C toolchain: numpy parity only
            sim_lo = (
                0
                if policy.include_base_in_similarity
                else EventType.BASE + 1
            )
            kept = native.reduce_node_indices(
                stacks,
                sizes,
                np.ascontiguousarray(theta),
                sim_lo,
                policy.similarity_threshold,
                policy.max_paths,
                policy.preserve_unique,
                out,
            )
            got = stacks[out[:kept]]
            assert got.shape == expected.shape
            assert (got == expected).all()

    def test_native_rejects_inconsistent_buffers(self):
        native = load_native()
        if native is None:
            pytest.skip("no C toolchain available in this environment")
        stacks = np.ascontiguousarray(
            np.arange(6 * NUM_EVENTS, dtype=np.float64).reshape(6, -1)
        )
        theta = np.ones(NUM_EVENTS)
        sizes = np.asarray([3, 3], dtype=np.int32)
        out = np.empty(6, dtype=np.int32)

        def reduce(stacks, sizes, theta, out):
            return native.reduce_node_indices(
                stacks, sizes, theta, 1, 0.7, 32, True, out
            )

        assert reduce(stacks, sizes, theta, out) >= 1
        with pytest.raises(ValueError, match="sum to the row count"):
            reduce(stacks, np.asarray([1, 1], dtype=np.int32), theta, out)
        with pytest.raises(ValueError, match="non-negative"):
            reduce(stacks, np.asarray([7, -1], dtype=np.int32), theta, out)
        with pytest.raises(ValueError, match="one slot per candidate row"):
            reduce(stacks, sizes, theta, np.empty(1, dtype=np.int32))
        wide = np.zeros((6, 65))
        with pytest.raises(ValueError, match="at most 64 dimensions"):
            reduce(wide, sizes, np.ones(65), out)

    def test_numpy_fallback_is_byte_identical_end_to_end(self):
        graph = _graph("gamess", macros=80)
        base = baseline_config().latency
        local = generate_rpstacks(graph, base, segment_length=SEGMENT_LENGTH)
        script = (
            "import sys\n"
            "from repro.common.config import baseline_config\n"
            "from repro.core.generator import generate_rpstacks\n"
            "from repro.graphmodel.builder import build_graph\n"
            "from repro.simulator.core import simulate\n"
            "from repro.workloads.suite import make_workload\n"
            "result = simulate(make_workload('gamess', 80),"
            " baseline_config())\n"
            "model = generate_rpstacks(build_graph(result),"
            f" baseline_config().latency, segment_length={SEGMENT_LENGTH})\n"
            "sys.stdout.write(model.content_digest())\n"
        )
        env = dict(os.environ, REPRO_NATIVE="0")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == local.content_digest()
