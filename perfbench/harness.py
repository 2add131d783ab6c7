"""The closed op loop, output checks and summary statistics.

A workload supplies four steps per op, of which only ``run`` is timed:

* ``prepare(key)`` builds the op's input (untimed: fresh generation, so
  no op is served by an in-process memo of an earlier one);
* ``run(args)`` is the timed call into the program's public API;
* ``check(key, args, output)`` returns ``(units, digest, error)``
  (untimed: digests and self-consistency checks).

An op that raises, or whose digest disagrees, is counted as failed; the
loop never stops on it.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: the reported tail percentile leaves at least this many samples beyond it
TAIL_BEYOND = 10


def tail(samples: Sequence[float]):
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it, by nearest rank.

    Returns ``(value, percentile, sample_count)``; raises ``ValueError``
    when there are too few samples to leave a tail.
    """
    count = len(samples)
    if count <= TAIL_BEYOND:
        raise ValueError(
            f"{count} samples leave no percentile with "
            f"{TAIL_BEYOND} samples beyond it"
        )
    rank = count - TAIL_BEYOND  # 1-based rank of the reported sample
    return sorted(samples)[rank - 1], 100.0 * rank / count, count


@dataclass
class OpRecord:
    """One timed op."""

    key: str
    seconds: float
    cpu_seconds: float
    units: int
    error: Optional[str] = None


def work_per_s(ops: Sequence[OpRecord]) -> float:
    """Units of work done by successful ops per second of summed op time.

    Summed op time, not run wall time, so untimed preparation, checks
    and garbage collection between ops do not dilute the rate.
    """
    busy = sum(op.seconds for op in ops)
    done = sum(op.units for op in ops if op.error is None)
    return done / busy


class DigestBook:
    """Checks each op's output digest.

    Every input must digest the same on every op of a run; when
    *reference* (input key -> recorded digest) is given, it must also
    match the recorded digest.
    """

    def __init__(self, reference: Optional[Dict[str, str]] = None) -> None:
        self.reference = reference
        self.seen: Dict[str, str] = {}

    def check(self, key: str, digest: str) -> Optional[str]:
        """An error message, or ``None`` when *digest* is as expected."""
        first = self.seen.setdefault(key, digest)
        if digest != first:
            return f"{key}: digest {digest[:16]} differs from {first[:16]} earlier in this run"
        if self.reference is not None:
            expected = self.reference.get(key)
            if digest != expected:
                return f"{key}: digest {digest[:16]} differs from reference {str(expected)[:16]}"
        return None


def run_op(workload, key: str, book: DigestBook, tracer=None) -> OpRecord:
    """Prepare, time and check one op."""
    args = workload.prepare(key)
    gc.collect()
    if tracer is not None:
        tracer.enabled = True
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        output = workload.run(args)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed op is counted
        output, error = None, f"{key}: {exc.__class__.__name__}: {exc}"
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    if tracer is not None:
        tracer.enabled = False
    units = 0
    if error is None:
        try:
            units, digest, error = workload.check(key, args, output)
        except Exception as exc:  # noqa: BLE001 - a failed check is counted
            error = f"{key}: check raised {exc.__class__.__name__}: {exc}"
        else:
            error = error or book.check(key, digest)
    return OpRecord(key, wall, cpu, units, error)


def run_pass(workload, book: DigestBook, rotations: int,
             tracer=None) -> List[OpRecord]:
    """Closed loop over *rotations* whole rotations of ``workload.keys()``.

    Whole rotations put every input in the sample equally often, and a
    fixed count gives every commit the same ops and the same tail
    percentile.
    """
    keys = workload.keys()
    return [
        run_op(workload, key, book, tracer)
        for _ in range(rotations)
        for key in keys
    ]


def end_to_end(ops: Sequence[OpRecord], setup_samples: Sequence[float],
               peak_rss_mb: float) -> Dict[str, dict]:
    """The end-to-end metrics shared by every workload."""
    times_ms = [op.seconds * 1e3 for op in ops]
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(times_ms), "unit": "ms"},
        "op_tail_ms": {"value": tail(times_ms)[0], "unit": "ms"},
        "work_per_s": {"value": work_per_s(ops), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
