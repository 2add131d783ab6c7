"""Functional pre-pass tests: latency invariance, deps, warming rules.

Per-µop prepass fields are read from ``simulate(...).uops``: timing never
changes them, and that view exists for either pipeline.  So these tests
check the compiled pass under the default ``REPRO_NATIVE`` gate and the
Python pass under ``REPRO_NATIVE=0``.
"""

import pytest

from repro.common.config import MicroarchConfig, baseline_config
from repro.common.events import EventType
from repro.isa.uop import MicroOp, OpClass, Workload
from repro.simulator.core import simulate
from repro.simulator.prepass import run_prepass
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.suite import make_workload


def charge_events(charge):
    return {event for event, _units in charge}


def hand_workload(uops):
    return Workload(name="hand", uops=tuple(uops))


def trace(workload, config=None):
    """The per-µop records of one baseline run (prepass fields intact)."""
    return simulate(workload, config or baseline_config()).uops


def bookkeeping(prepass):
    """``(needs_phys_reg, frees_reg_on_commit, macro_last_uop)`` read
    from whichever form the pass produced."""
    packed = prepass.packed
    if packed is None:
        return (
            prepass.needs_phys_reg,
            prepass.frees_reg_on_commit,
            prepass.macro_last_uop,
        )
    # The compiled timing loop frees a register at commit exactly when
    # the µop allocated one, so one mask serves both lists.
    needs = (packed.needs_reg != 0).tolist()
    return needs, needs, packed.workload.macro_last.tolist()


def alu(seq, macro, srcs=(), dst=None, pc=None):
    return MicroOp(
        seq=seq, macro_id=macro, som=True, eom=True,
        opclass=OpClass.INT_ALU, pc=pc if pc is not None else seq * 4,
        src_regs=srcs, dst_reg=dst,
    )


class TestLatencyInvariance:
    def test_prepass_ignores_latency_domain(self, tiny_workload):
        base = baseline_config()
        changed = base.with_latency_overrides(
            {EventType.L1D: 1, EventType.MEM_D: 40, EventType.FP_ADD: 1}
        )
        a = simulate(tiny_workload, base)
        b = simulate(tiny_workload, changed)
        for ra, rb in zip(a.uops, b.uops):
            assert ra.exec_charge == rb.exec_charge
            assert ra.fetch_charge == rb.fetch_charge
            assert ra.mispredicted == rb.mispredicted
            assert ra.data_producers == rb.data_producers
        assert a.stats == b.stats


class TestDependencies:
    def test_data_producers_follow_program_order(self):
        workload = hand_workload(
            [
                alu(0, 0, dst=1),
                alu(1, 1, dst=1),
                alu(2, 2, srcs=(1,), dst=2),
            ]
        )
        # The consumer must see the *latest* writer of register 1.
        assert trace(workload)[2].data_producers == (1,)

    def test_unwritten_register_has_no_producer(self):
        workload = hand_workload([alu(0, 0, srcs=(5,), dst=1)])
        assert trace(workload)[0].data_producers == (-1,)

    def test_store_barrier_points_to_last_store(self):
        store = MicroOp(
            seq=0, macro_id=0, som=True, eom=True, opclass=OpClass.STORE,
            pc=0, mem_addr=1 << 30, src_regs=(1,), addr_src_regs=(2,),
        )
        load = MicroOp(
            seq=1, macro_id=1, som=True, eom=True, opclass=OpClass.LOAD,
            pc=4, mem_addr=(1 << 30) + 4096, dst_reg=3, addr_src_regs=(2,),
        )
        assert trace(hand_workload([store, load]))[1].store_barrier == 0

    def test_phys_reg_bookkeeping(self):
        workload = hand_workload(
            [alu(0, 0, dst=1), alu(1, 1), alu(2, 2, dst=1)]
        )
        needs, frees, _ = bookkeeping(
            run_prepass(workload, baseline_config())
        )
        # Every writer allocates, and frees its destination's previous
        # mapping at commit (the initial architectural mapping counts);
        # µop 1 has no destination and touches no registers.
        assert needs == [True, False, True]
        assert frees == [True, False, True]

    def test_macro_last_uop(self):
        uops = [
            MicroOp(seq=0, macro_id=0, som=True, eom=False,
                    opclass=OpClass.INT_ALU, pc=0, dst_reg=1),
            MicroOp(seq=1, macro_id=0, som=False, eom=True,
                    opclass=OpClass.INT_ALU, pc=0, src_regs=(1,), dst_reg=2),
            alu(2, 1),
        ]
        _, _, macro_last = bookkeeping(
            run_prepass(hand_workload(uops), baseline_config())
        )
        assert macro_last == [1, 1, 2]


class TestEventCharges:
    def test_line_opener_carries_fetch_charge(self):
        # 17 sequential macro-ops cross a 64-byte line boundary once.
        workload = hand_workload([alu(i, i) for i in range(17)])
        records = trace(workload)
        openers = [r.seq for r in records if r.fetch_charge]
        assert openers == [0, 16]
        assert EventType.L1I in charge_events(records[0].fetch_charge)

    def test_resident_load_charges_l1_only(self):
        spec = WorkloadSpec(
            name="resident", num_macro_ops=300, p_load=0.4,
            working_set_bytes=4 * 1024, code_footprint_bytes=1024,
        )
        workload = generate(spec, seed=1)
        for record, uop in zip(trace(workload), workload):
            if uop.is_load:
                events = charge_events(record.exec_charge)
                assert EventType.L1D in events
                assert EventType.MEM_D not in events

    def test_huge_working_set_reaches_memory(self):
        workload = make_workload("mcf", 200)
        memory_loads = sum(
            1
            for record in trace(workload)
            if EventType.MEM_D in charge_events(record.exec_charge)
        )
        assert memory_loads > 10

    def test_mispredictions_counted(self, tiny_workload):
        result = simulate(tiny_workload, baseline_config())
        flagged = sum(1 for r in result.uops if r.mispredicted)
        assert flagged == result.stats["branch_mispredictions"]

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            run_prepass(
                Workload(name="empty", uops=()), baseline_config()
            )


class TestWarmingRules:
    def test_resident_set_warm_hits(self):
        spec = WorkloadSpec(
            name="small", num_macro_ops=200, p_load=0.4,
            working_set_bytes=8 * 1024, code_footprint_bytes=1024,
        )
        workload = generate(spec, seed=2)
        warmed = run_prepass(workload, baseline_config(), warm_caches=True)
        assert warmed.stats["l1d_misses"] == 0

    def test_oversized_set_not_warmed(self):
        workload = make_workload("lbm", 150)
        warmed = run_prepass(workload, baseline_config(), warm_caches=True)
        # 16MB footprint exceeds L2: steady state misses to memory remain.
        assert warmed.stats["l2_misses"] > 0

    def test_l2_sized_set_warms_into_l2(self):
        workload = make_workload("bzip2", 200)
        warmed = run_prepass(workload, baseline_config(), warm_caches=True)
        assert warmed.stats["l2_misses"] == 0
        assert warmed.stats["l1d_misses"] > 0

    def test_cold_run_differs_from_warm(self):
        spec = WorkloadSpec(
            name="small", num_macro_ops=200, p_load=0.4,
            working_set_bytes=8 * 1024, code_footprint_bytes=1024,
        )
        workload = generate(spec, seed=2)
        cold = run_prepass(workload, baseline_config(), warm_caches=False)
        assert cold.stats["l1d_misses"] > 0
