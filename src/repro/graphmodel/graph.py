"""Dependence-graph container, longest-path evaluation, re-pricing.

A :class:`DependenceGraph` is a DAG over pipeline-stage nodes whose edges
carry sparse *event charges*: up to three ``(event, units)`` pairs.  An
edge's weight under a latency configuration θ is ``Σ units · θ[event]``,
so the whole graph re-prices for a new design point without rebuilding —
the property both the Fields-style re-evaluation baseline and the
RpStacks generator exploit.

The longest path from the virtual start (all-zero sources) to the final
commit node is the graph model's predicted execution time; backtracking
its parent chain yields the critical path's stall-event stack (CP1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS, EventType
from repro.graphmodel.nodes import NODES_PER_UOP, Stage, node_id

#: Sparse event charge type alias: ((event, units), ...), at most 3 pairs.
EventCharge = Tuple[Tuple[EventType, int], ...]

#: Maximum (event, units) pairs an edge can carry.
MAX_EDGE_EVENTS = 3

#: Index-to-member lookup; ~5x faster than calling ``EventType(i)`` in
#: per-edge loops.
_EVENT_MEMBERS: Tuple[EventType, ...] = tuple(EventType)


class GraphBuildError(ValueError):
    """Raised when edge lists are malformed (e.g. cyclic)."""


def _charge_matrix(events: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Dense (m x NUM_EVENTS) unit matrix from packed charge arrays.

    One flat ``bincount`` over row-offset event ids; an order of
    magnitude faster than ``np.add.at`` scatter on the same data
    (padding slots carry zero units, so they land harmlessly in bin 0).
    """
    count = events.shape[0]
    if count == 0:
        return np.zeros((0, NUM_EVENTS), dtype=np.float64)
    flat_ids = events + (
        np.arange(count, dtype=np.int64)[:, None] * NUM_EVENTS
    )
    flat = np.bincount(
        flat_ids.ravel(),
        weights=units.ravel(),
        minlength=count * NUM_EVENTS,
    )
    return flat.reshape(count, NUM_EVENTS)


@dataclass
class SegmentView:
    """One segment's slice of a dependence graph (Fig 7b).

    Segmentation makes segments *independent by construction*: edges
    crossing a segment boundary are dropped and every segment starts
    from a fresh zero stack.  A view therefore carries everything a
    traversal of that segment needs — the intra-segment edges in local
    (segment-relative) CSR form plus their packed event charges — and
    nothing else, which keeps it cheap to pickle into pool workers.

    Local node ``v`` corresponds to global node ``node_offset + v``; the
    in-edge order per node matches the parent graph's CSR order, so a
    walk over a view gathers predecessor blocks in exactly the order the
    whole-graph walk would.
    """

    segment: int
    first_uop: int
    num_uops: int
    node_offset: int
    num_nodes: int
    #: (num_nodes + 1,) CSR row pointer over *intra-segment* in-edges.
    in_indptr: np.ndarray
    #: (m,) local source node per intra-segment edge, CSR order.
    edge_src: np.ndarray
    #: (m, MAX_EDGE_EVENTS) packed event ids (zero-padded).
    events: np.ndarray
    #: (m, MAX_EDGE_EVENTS) packed event units (zero-padded).
    units: np.ndarray
    _topo: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def sink_local(self) -> int:
        """Local id of the segment's sink: the last µop's commit node."""
        return self.num_uops * NODES_PER_UOP - 1

    def charge_matrix(self) -> np.ndarray:
        """Dense (m x NUM_EVENTS) charge matrix of the intra edges."""
        return _charge_matrix(self.events, self.units)

    def topological_order(self) -> np.ndarray:
        """Topological order of the segment's nodes (computed once).

        Plain-list Kahn: segment graphs are small (a few thousand nodes)
        and shallow waves make per-wave vectorisation pay more in ufunc
        dispatch than it saves, so scalar Python wins here.  Any
        topological order yields bit-identical traversal results (a
        node's stacks depend only on its predecessors' stacks and its
        in-edge CSR order), so this order needs no relation to the
        parent graph's global order.
        """
        if self._topo is not None:
            return self._topo
        n = self.num_nodes
        indegree = np.diff(self.in_indptr).tolist()
        out_order = np.argsort(self.edge_src, kind="stable")
        out_dst = np.repeat(
            np.arange(n, dtype=np.int64), indegree
        )[out_order].tolist()
        out_counts = np.bincount(self.edge_src, minlength=n)
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_counts, out=out_indptr[1:])
        out_indptr = out_indptr.tolist()

        queue = deque(v for v in range(n) if indegree[v] == 0)
        topo: List[int] = []
        while queue:
            v = queue.popleft()
            topo.append(v)
            for e in range(out_indptr[v], out_indptr[v + 1]):
                w = out_dst[e]
                indegree[w] -= 1
                if indegree[w] == 0:
                    queue.append(w)
        if len(topo) != n:
            raise GraphBuildError("dependence graph contains a cycle")
        self._topo = np.asarray(topo, dtype=np.int64)
        return self._topo


class DependenceGraph:
    """Immutable dependence graph over ``13 * num_uops`` nodes.

    Build via :class:`~repro.graphmodel.builder.DependenceGraphBuilder`;
    construct directly only in tests.
    """

    def __init__(
        self,
        num_uops: int,
        edge_src: Sequence[int],
        edge_dst: Sequence[int],
        edge_charges: Sequence[EventCharge],
    ) -> None:
        if not (len(edge_src) == len(edge_dst) == len(edge_charges)):
            raise GraphBuildError("edge arrays must have equal length")
        self.num_uops = num_uops
        self.num_nodes = num_uops * NODES_PER_UOP
        self.num_edges = len(edge_src)

        order = np.argsort(np.asarray(edge_dst, dtype=np.int64), kind="stable")
        self.edge_src = np.asarray(edge_src, dtype=np.int64)[order]
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)[order]
        charges = [edge_charges[i] for i in order]
        self._edge_charges: Optional[Tuple[EventCharge, ...]] = tuple(charges)
        self._charge_lengths: Optional[np.ndarray] = None

        events = np.zeros((self.num_edges, MAX_EDGE_EVENTS), dtype=np.int16)
        units = np.zeros((self.num_edges, MAX_EDGE_EVENTS), dtype=np.int32)
        for i, charge in enumerate(charges):
            if len(charge) > MAX_EDGE_EVENTS:
                raise GraphBuildError(
                    f"edge {i} carries {len(charge)} event pairs "
                    f"(max {MAX_EDGE_EVENTS})"
                )
            for j, (event, count) in enumerate(charge):
                events[i, j] = int(event)
                units[i, j] = int(count)
        self._events = events
        self._units = units
        self._finish_init()

    @classmethod
    def from_packed(
        cls,
        num_uops: int,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        events: np.ndarray,
        units: np.ndarray,
        charge_lengths: np.ndarray,
    ) -> "DependenceGraph":
        """Deserialisation fast path: adopt pre-packed edge arrays.

        The arrays must already be sorted by destination node (the
        invariant the normal constructor establishes), with *events* and
        *units* of shape ``(num_edges, MAX_EDGE_EVENTS)`` zero-padded
        beyond each edge's *charge_lengths* entry.  Sparse charge tuples
        are materialised lazily on first ``edge_charges`` access, which
        keeps cache-hit loading free of per-edge Python loops.
        """
        graph = cls.__new__(cls)
        graph.num_uops = num_uops
        graph.num_nodes = num_uops * NODES_PER_UOP
        graph.num_edges = len(edge_src)
        graph.edge_src = np.asarray(edge_src, dtype=np.int64)
        graph.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        if not (graph.edge_dst[:-1] <= graph.edge_dst[1:]).all():
            raise GraphBuildError("packed edges must be sorted by dst")
        graph._edge_charges = None
        graph._charge_lengths = np.asarray(charge_lengths, dtype=np.int8)
        graph._events = np.asarray(events, dtype=np.int16)
        graph._units = np.asarray(units, dtype=np.int32)
        graph._finish_init()
        return graph

    def _finish_init(self) -> None:
        # CSR over incoming edges (edges are already sorted by dst).
        self.in_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.add.at(self.in_indptr, self.edge_dst + 1, 1)
        np.cumsum(self.in_indptr, out=self.in_indptr)

        self._topo: Optional[List[int]] = None
        # Hot-loop copies as plain Python lists (fast scalar indexing).
        self._src_list = self.edge_src.tolist()
        self._indptr_list = self.in_indptr.tolist()

    # ------------------------------------------------------------------

    @property
    def edge_charges(self) -> Tuple[EventCharge, ...]:
        """Sparse per-edge charges, materialised on demand."""
        if self._edge_charges is None:
            lengths = self._charge_lengths.tolist()
            events = self._events.tolist()
            units = self._units.tolist()
            self._edge_charges = tuple(
                tuple(
                    (_EVENT_MEMBERS[events[i][j]], units[i][j])
                    for j in range(lengths[i])
                )
                for i in range(self.num_edges)
            )
        return self._edge_charges

    def charge_lengths(self) -> np.ndarray:
        """``(num_edges,)`` int8 count of event pairs on each edge.

        Packed graphs hold it already; only record-built graphs count
        their sparse charges (once, then memoised).
        """
        if self._charge_lengths is None:
            self._charge_lengths = np.array(
                [len(charge) for charge in self._edge_charges], dtype=np.int8
            )
        return self._charge_lengths

    @property
    def sink(self) -> int:
        """Commit node of the last µop — the end of every execution path."""
        return node_id(self.num_uops - 1, Stage.C)

    def edge_weights(self, latency: LatencyConfig) -> np.ndarray:
        """Per-edge weights (cycles) under *latency*."""
        theta = latency.as_vector()
        return (self._units * theta[self._events]).sum(axis=1)

    def charge_vector(self, charge: EventCharge) -> np.ndarray:
        """Dense event-unit vector of a sparse charge."""
        vec = np.zeros(NUM_EVENTS, dtype=np.float64)
        for event, count in charge:
            vec[int(event)] += count
        return vec

    def edge_charge_vectors(self) -> np.ndarray:
        """Dense (num_edges x NUM_EVENTS) unit matrix (RpStacks traversal)."""
        return _charge_matrix(self._events, self._units)

    # ------------------------------------------------------------------

    def num_segments(self, segment_length: int) -> int:
        """Number of segments the graph splits into at *segment_length*."""
        if segment_length < 1:
            raise ValueError("segment_length must be positive")
        return (self.num_uops + segment_length - 1) // segment_length

    def segment_view(self, segment: int, segment_length: int) -> SegmentView:
        """Slice out one segment's nodes and intra-segment edges.

        Reuses the packed CSR arrays: edges are stored sorted by
        destination, so a segment's candidate in-edges occupy one
        contiguous slice, from which cross-boundary edges (sources
        outside the segment) are masked out — the paper's rule that
        boundary-crossing dependences are dropped.  The surviving edges
        keep their relative CSR order, so per-node predecessor order is
        identical to the whole-graph walk's.
        """
        count = self.num_segments(segment_length)
        if not 0 <= segment < count:
            raise IndexError(
                f"segment {segment} out of range ({count} segments)"
            )
        first_uop = segment * segment_length
        seg_uops = min(segment_length, self.num_uops - first_uop)
        lo = first_uop * NODES_PER_UOP
        n = seg_uops * NODES_PER_UOP
        hi = lo + n

        begin = int(self.in_indptr[lo])
        end = int(self.in_indptr[hi])
        src = self.edge_src[begin:end]
        intra = (src >= lo) & (src < hi)
        per_node = np.diff(self.in_indptr[lo : hi + 1])
        dst_local = np.repeat(np.arange(n, dtype=np.int64), per_node)[intra]
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst_local, minlength=n), out=in_indptr[1:])
        return SegmentView(
            segment=segment,
            first_uop=first_uop,
            num_uops=seg_uops,
            node_offset=lo,
            num_nodes=n,
            in_indptr=in_indptr,
            edge_src=(src[intra] - lo).astype(np.int64),
            events=self._events[begin:end][intra],
            units=self._units[begin:end][intra],
        )

    # ------------------------------------------------------------------

    def topological_order(self) -> List[int]:
        """Topological node order (computed once, cached).

        Kahn's algorithm; raises :class:`GraphBuildError` on a cycle.
        """
        if self._topo is not None:
            return self._topo
        indegree = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(indegree, self.edge_dst, 1)
        out_order = np.argsort(self.edge_src, kind="stable")
        out_dst = self.edge_dst[out_order].tolist()
        out_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.add.at(out_indptr, self.edge_src + 1, 1)
        np.cumsum(out_indptr, out=out_indptr)
        out_indptr = out_indptr.tolist()

        indegree = indegree.tolist()
        queue = deque(v for v in range(self.num_nodes) if indegree[v] == 0)
        topo: List[int] = []
        while queue:
            v = queue.popleft()
            topo.append(v)
            for k in range(out_indptr[v], out_indptr[v + 1]):
                w = out_dst[k]
                indegree[w] -= 1
                if indegree[w] == 0:
                    queue.append(w)
        if len(topo) != self.num_nodes:
            raise GraphBuildError("dependence graph contains a cycle")
        self._topo = topo
        return topo

    def longest_path_length(self, latency: LatencyConfig) -> float:
        """Predicted execution cycles: the longest path to the sink."""
        dist, _parent = self._relax(latency, track_parents=False)
        return dist[self.sink]

    def critical_path(
        self, latency: LatencyConfig
    ) -> Tuple[float, np.ndarray]:
        """Longest path to the sink plus its stall-event decomposition.

        Returns:
            ``(length, stack)`` where ``stack`` is the per-event unit
            vector accumulated along the critical path — repricing it
            under θ' gives ``stack @ θ'`` cycles (the CP1 predictor).
        """
        dist, parent = self._relax(latency, track_parents=True)
        path_edges: List[int] = []
        node = self.sink
        while parent[node] >= 0:
            edge = parent[node]
            path_edges.append(edge)
            node = self._src_list[edge]
        stack = np.zeros(NUM_EVENTS, dtype=np.float64)
        if path_edges:
            # Padded (event=0, units=0) slots contribute nothing.
            idx = np.asarray(path_edges, dtype=np.int64)
            np.add.at(
                stack, self._events[idx].ravel(), self._units[idx].ravel()
            )
        return dist[self.sink], stack

    def _relax(
        self, latency: LatencyConfig, track_parents: bool
    ) -> Tuple[List[float], List[int]]:
        weights = self.edge_weights(latency).tolist()
        src = self._src_list
        indptr = self._indptr_list
        dist: List[float] = [0.0] * self.num_nodes
        parent: List[int] = [-1] * self.num_nodes if track_parents else []
        for v in self.topological_order():
            begin, end = indptr[v], indptr[v + 1]
            if begin == end:
                continue
            best = 0.0
            best_edge = -1
            for e in range(begin, end):
                cand = dist[src[e]] + weights[e]
                if cand > best:
                    best = cand
                    best_edge = e
            dist[v] = best
            if track_parents:
                parent[v] = best_edge
        return dist, parent

    def node_distances(self, latency: LatencyConfig) -> List[float]:
        """Longest-path distance to every node (diagnostics, tests)."""
        dist, _ = self._relax(latency, track_parents=False)
        return dist
