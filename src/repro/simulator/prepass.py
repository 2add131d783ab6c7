"""Program-order functional pre-pass.

Everything about a run except pipeline *timing* is decided here, in
program order, before the cycle-accurate loop runs:

* cache / TLB service levels for every instruction line and data access,
* branch predictions (the predictor is consulted in fetch = program order),
* register data/address dependencies (rename-map walk),
* store-ordering barriers and cache-line fill sharing witnesses,
* physical-register bookkeeping metadata.

Doing this in program order makes every penalty event **latency
invariant**: re-simulating the same workload under a different latency
configuration replays byte-identical events, which is the founding
assumption of single-simulation design space exploration (the paper's
modified MARSSx86 relies on the same property by replaying one trace).
The timing loop (``repro.simulator.core``) then only assigns cycles.

:func:`run_prepass` is where a simulation picks its implementation, and
the only place that reads the ``REPRO_NATIVE`` gate: the compiled pass
(``repro.simulator.native``) returns packed outcome arrays, the Python
pass below returns per-µop records, and the timing run follows the form
it is given.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import MicroarchConfig
from repro.common.events import EventType
from repro.isa.uop import MicroOp, OpClass, Workload
from repro.simulator.branch import make_predictor
from repro.simulator.caches import AccessLevel, MemoryHierarchy
from repro.simulator.tlb import TLB
from repro.simulator.trace import (
    UopTrace,
    data_access_charge,
    fetch_access_charge,
)

#: Window (in µops) within which a load can merge with an earlier miss's
#: in-flight line fill (an MSHR-like capacity bound).
LINE_SHARE_WINDOW = 64


class PrepassResult:
    """Static (latency-invariant) facts about one run.

    Each pass fills its own form, and each form is timed by the loop of
    the same implementation (:func:`repro.simulator.core.time_prepass`):
    the Python pass fills the record fields and leaves :attr:`packed`
    ``None``; the compiled pass fills only :attr:`packed`.

    Attributes:
        records: per-µop trace records with all non-timing fields
            filled (Python pass).
        frees_reg_on_commit: µops whose commit returns a physical register
            to the free list (their destination had an earlier writer).
        needs_phys_reg: µops that allocate a physical register at rename.
        macro_last_uop: for each µop, the seq of the last µop of its
            macro-op (used for the SoM commit gate).
        stats: functional counters (cache hits/misses, mispredictions).
        packed: the ``repro.simulator.native.PackedPrepass`` outcome
            arrays (compiled pass).
    """

    __slots__ = (
        "records",
        "frees_reg_on_commit",
        "needs_phys_reg",
        "macro_last_uop",
        "stats",
        "packed",
        "_preg_witness",
        "_iq_witness",
    )

    def __init__(
        self,
        records: Optional[List[UopTrace]] = None,
        frees_reg_on_commit: Optional[List[bool]] = None,
        needs_phys_reg: Optional[List[bool]] = None,
        macro_last_uop: Optional[List[int]] = None,
        stats: Optional[Dict[str, int]] = None,
        packed: Optional[object] = None,
    ):
        if (records is None) == (packed is None):
            raise ValueError(
                "PrepassResult needs either records or a packed view"
            )
        self.records = records
        self.frees_reg_on_commit = frees_reg_on_commit
        self.needs_phys_reg = needs_phys_reg
        self.macro_last_uop = macro_last_uop
        self.stats = stats if stats is not None else {}
        self.packed = packed
        # Sticky structural-witness state for the compiled timing loop.
        # Witnesses bind on the first timing run over a prepass and
        # persist across later runs sharing it — the semantics the
        # Python loop gets by restamping the shared record list.
        self._preg_witness = None
        self._iq_witness = None

    def witness_arrays(self, n: int):
        """Sticky (phys_reg_freer, iq_freer) arrays for native timing."""
        import numpy as np

        if self._preg_witness is None:
            self._preg_witness = np.full(n, -1, np.int64)
            self._iq_witness = np.full(n, -1, np.int64)
        return self._preg_witness, self._iq_witness


def _declared_footprint(workload: Workload, key: str) -> Optional[int]:
    """Read the generator-declared footprint (bytes) from workload params."""
    for name, value in workload.params:
        if name == key:
            return int(value)
    return None


def _observed_footprint(workload: Workload, data_side: bool) -> int:
    """Fallback footprint estimate: distinct 64-byte lines in the stream."""
    lines = set()
    for uop in workload:
        if data_side:
            if uop.mem_addr is not None:
                lines.add(uop.mem_addr >> 6)
        else:
            lines.add(uop.pc >> 6)
    return 64 * len(lines)


def _warm_structures(
    workload: Workload,
    hierarchy: MemoryHierarchy,
    itlb: TLB,
    dtlb: TLB,
    predictor,
) -> None:
    """Warm caches/TLBs to their *steady-state* residency.

    Our dynamic streams are short samples of a notionally much longer
    execution (the paper measures 1M-instruction SimPoints after
    warm-up).  A short sample touches so few distinct lines that naively
    replaying it would make every structure hit regardless of the
    workload's true footprint.  We therefore warm a level only when the
    workload's steady-state footprint (declared by the generator via
    ``working_set_bytes`` / ``code_footprint_bytes``, or estimated from
    the stream) *fits* that level — at steady state a larger-than-cache
    footprint implies reuse distances exceeding capacity, i.e. misses.
    """
    from repro.workloads.phased import (
        CODE_REGION_BYTES,
        DATA_REGION_BYTES,
    )

    default_data_fp = _declared_footprint(workload, "working_set_bytes")
    if default_data_fp is None:
        default_data_fp = _observed_footprint(workload, data_side=True)
    default_code_fp = _declared_footprint(workload, "code_footprint_bytes")
    if default_code_fp is None:
        default_code_fp = _observed_footprint(workload, data_side=False)

    # Phased workloads relocate each phase into its own address region
    # and declare per-phase footprints; residency is decided per region.
    params = dict(workload.params)
    phase_data_fps = params.get("phase_data_footprints")
    phase_code_fps = params.get("phase_code_footprints")
    data_region_base = (
        min(u.mem_addr for u in workload if u.mem_addr is not None)
        // DATA_REGION_BYTES
        if phase_data_fps
        else 0
    )

    def data_footprint(addr: int) -> int:
        if not phase_data_fps:
            return default_data_fp
        region = addr // DATA_REGION_BYTES - data_region_base
        if 0 <= region < len(phase_data_fps):
            return phase_data_fps[region]
        return default_data_fp

    def code_footprint(pc: int) -> int:
        if not phase_code_fps:
            return default_code_fp
        region = pc // CODE_REGION_BYTES
        if 0 <= region < len(phase_code_fps):
            return phase_code_fps[region]
        return default_code_fp

    l1d_bytes = hierarchy.l1d.config.size_bytes
    l1i_bytes = hierarchy.l1i.config.size_bytes
    l2_bytes = hierarchy.l2.config.size_bytes
    dtlb_reach = dtlb.config.entries * dtlb.config.page_bytes
    itlb_reach = itlb.config.entries * itlb.config.page_bytes

    previous_line: Optional[int] = None
    for uop in workload:
        line = hierarchy.l1i.line_of(uop.pc)
        if line != previous_line:
            code_fp = code_footprint(uop.pc)
            if code_fp <= itlb_reach:
                itlb.warm(uop.pc)
            if code_fp <= l1i_bytes:
                hierarchy.l1i.access(uop.pc)
            if code_fp <= l2_bytes:
                hierarchy.l2.access(uop.pc)
            previous_line = line
        if uop.is_branch:
            # Train the predictor to steady state: predictor tables hold
            # far more sites than a short sample touches, so at steady
            # state every site has been seen before.
            predictor.predict_and_train(uop.pc, uop.taken)
        if uop.mem_addr is not None:
            data_fp = data_footprint(uop.mem_addr)
            if data_fp <= dtlb_reach:
                dtlb.warm(uop.mem_addr)
            if data_fp <= l1d_bytes:
                hierarchy.l1d.access(uop.mem_addr)
            if data_fp <= l2_bytes:
                hierarchy.l2.access(uop.mem_addr)
    hierarchy.reset_stats()
    itlb.reset_stats()
    dtlb.reset_stats()


def run_prepass(
    workload: Workload,
    config: MicroarchConfig,
    warm_caches: bool = True,
    warm_stream: Optional[Workload] = None,
    predictor_extra_stream: Optional[Workload] = None,
    native: Optional[bool] = None,
) -> PrepassResult:
    """Execute the functional pre-pass for *workload* under *config*.

    The result depends only on the structure domain of *config* (cache
    geometry, branch predictor) — never on its latency domain.

    Args:
        workload: the measured stream.
        config: the design point.
        warm_caches: warm caches/TLBs/predictor before measuring.
        warm_stream: stream to warm with instead of *workload* itself —
            e.g. the full program when *workload* is a SimPoint interval
            (the checkpoint-warming practice the paper's SimPoint flow
            relies on).
        predictor_extra_stream: additionally train the branch predictor
            on this stream after warming — for a SimPoint interval, the
            measured prefix preceding it, which reproduces the predictor
            state the interval would see in situ.
        native: ``None`` uses the compiled pass when available (the
            ``REPRO_NATIVE``-gated default), ``False`` forces the Python
            pass, ``True`` requires the compiled one.  The choice fixes
            the timing loop too: a compiled prepass is timed by the
            compiled loop, a Python one by ``TimingSimulator``.  Both
            pipelines are bit-identical by construction and pinned by
            the differential parity suite.
    """
    if len(workload) == 0:
        raise ValueError("cannot simulate an empty workload")

    if native is not False:
        result = _try_native_prepass(
            workload, config, warm_caches, warm_stream,
            predictor_extra_stream, native,
        )
        if result is not None:
            return result

    from repro.simulator.prefetch import make_prefetcher

    hierarchy = MemoryHierarchy(config.l1i, config.l1d, config.l2)
    itlb = TLB(config.itlb)
    dtlb = TLB(config.dtlb)
    predictor = make_predictor(config.core)
    prefetcher = make_prefetcher(config.prefetcher)
    if warm_caches:
        _warm_structures(
            warm_stream or workload, hierarchy, itlb, dtlb, predictor
        )
    if predictor_extra_stream is not None:
        for uop in predictor_extra_stream:
            if uop.is_branch:
                predictor.predict_and_train(uop.pc, uop.taken)

    records: List[UopTrace] = []
    frees_reg: List[bool] = []
    needs_reg: List[bool] = []
    macro_last: List[int] = []

    rename_map: Dict[int, int] = {}
    written_before: set = set()
    previous_line: Optional[int] = None
    last_store_seq = -1
    #: line -> (seq of most recent miss to it, seq bound of share window)
    inflight_fills: Dict[int, int] = {}
    mispredictions = 0

    # Pre-compute macro-op extents for the SoM commit gate.
    macro_end: Dict[int, int] = {}
    for uop in workload:
        macro_end[uop.macro_id] = uop.seq
    for uop in workload:
        macro_last.append(macro_end[uop.macro_id])

    for uop in workload:
        record = UopTrace(seq=uop.seq)

        # ---- fetch side: line-granular blocking I-cache ----
        line = hierarchy.l1i.line_of(uop.pc)
        if line != previous_line:
            itlb_hit = itlb.access(uop.pc)
            level = hierarchy.access_instruction(uop.pc)
            record.fetch_charge = fetch_access_charge(level, not itlb_hit)
            previous_line = line
        # ---- branch prediction (consulted in fetch order) ----
        if uop.is_branch:
            prediction = predictor.predict_and_train(uop.pc, uop.taken)
            record.mispredicted = prediction != uop.taken
            mispredictions += int(record.mispredicted)

        # ---- register dependencies via the rename map ----
        record.data_producers = tuple(
            rename_map.get(reg, -1) for reg in uop.src_regs
        )
        record.addr_producers = tuple(
            rename_map.get(reg, -1) for reg in uop.addr_src_regs
        )

        # ---- memory side ----
        if uop.mem_addr is not None:
            dtlb_hit = dtlb.access(uop.mem_addr)
            record.dtlb_miss = not dtlb_hit
            level = hierarchy.access_data(uop.mem_addr)
            prefetcher.access(
                hierarchy, uop.pc, uop.mem_addr, level > AccessLevel.L1
            )
            if uop.is_load:
                record.exec_charge = data_access_charge(level, record.dtlb_miss)
                data_line = hierarchy.l1d.line_of(uop.mem_addr)
                sharer = inflight_fills.get(data_line, -1)
                if sharer >= 0 and uop.seq - sharer <= LINE_SHARE_WINDOW:
                    record.line_sharer = sharer
                record.store_barrier = last_store_seq
            else:
                record.exec_charge = ((EventType.BASE, 1),)
                last_store_seq = uop.seq
            if level > 1:  # a fill is (notionally) in flight for a while
                inflight_fills[hierarchy.l1d.line_of(uop.mem_addr)] = uop.seq
        elif uop.opclass is OpClass.NOP:
            record.exec_charge = ((EventType.BASE, 1),)
        else:
            record.exec_charge = ((uop.exec_event, 1),)

        # ---- physical-register bookkeeping metadata ----
        if uop.dst_reg is not None:
            needs_reg.append(True)
            # Committing a writer frees the register its destination
            # previously mapped to — the initial architectural mapping
            # counts, so every committed writer returns one register.
            frees_reg.append(True)
            written_before.add(uop.dst_reg)
            rename_map[uop.dst_reg] = uop.seq
        else:
            needs_reg.append(False)
            frees_reg.append(False)

        records.append(record)

    stats = {
        "l1i_hits": hierarchy.l1i.hits,
        "l1i_misses": hierarchy.l1i.misses,
        "l1d_hits": hierarchy.l1d.hits,
        "l1d_misses": hierarchy.l1d.misses,
        "l2_hits": hierarchy.l2.hits,
        "l2_misses": hierarchy.l2.misses,
        "itlb_misses": itlb.misses,
        "dtlb_misses": dtlb.misses,
        "branch_mispredictions": mispredictions,
    }
    return PrepassResult(
        records=records,
        frees_reg_on_commit=frees_reg,
        needs_phys_reg=needs_reg,
        macro_last_uop=macro_last,
        stats=stats,
    )


def _try_native_prepass(
    workload: Workload,
    config: MicroarchConfig,
    warm_caches: bool,
    warm_stream: Optional[Workload],
    predictor_extra_stream: Optional[Workload],
    native: Optional[bool],
) -> Optional[PrepassResult]:
    """Run the compiled pre-pass, or return ``None`` to fall back."""
    from repro.simulator.native import (
        UnsupportedWorkloadError,
        resolve_native,
        run_native_prepass,
    )

    sim = resolve_native(native)
    if sim is None:
        return None
    try:
        packed, stats = run_native_prepass(
            workload, config, warm_caches, warm_stream,
            predictor_extra_stream, sim,
        )
    except UnsupportedWorkloadError:
        if native is True:
            raise
        return None
    return PrepassResult(stats=stats, packed=packed)
