"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_analyze --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --workload cold_analyze --record

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced run.
``--record`` rewrites the workload's reference digests instead.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import time

# One thread per BLAS/OpenMP pool: numpy's OpenBLAS otherwise starts a
# thread per core, which contends with the benchmark on a small box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: set-up runs per measured run: this many in child processes, plus the
#: measured process's own
SETUP_CHILDREN = 2
#: ops run and discarded before timing starts
WARMUP_OPS = 2
WORKLOAD_NAMES = ("cold_analyze", "warm_explore", "sim_validate")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite the workload's reference digests (default seed)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--accuracy-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_repro():
    """Import the program from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def make_rundir(name: str) -> pathlib.Path:
    """A directory inside the checkout for this process's caches,
    compiled native code and temporary files."""
    rundir = ROOT / ".perfbench_run" / f"{name}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(rundir / "tmp")
    os.environ["REPRO_NATIVE_CACHE"] = str(rundir / "native")
    return rundir


def rotations(workload, seconds: float) -> int:
    """Rotations that took about *seconds* when the benchmark was defined.

    The count depends on the run length only, not on how fast this
    commit runs, so two commits time the same ops.
    """
    return max(1, round(seconds / workload.ROTATION_S))


def child(args, flag: str) -> dict:
    """The JSON line a child ``run.py --<flag>`` prints.

    ``--setup-only`` times one fresh process's set-up (imports, native
    compile into its own empty cache, inputs, cache priming);
    ``--accuracy-only`` runs the fixed validation, reusing this
    process's compiled native code.  A child adds nothing to this
    process's peak memory.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), flag,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=150, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def blocks(total: int, parts: int) -> list:
    """*total* rotations in at most *parts* nearly equal, non-empty blocks."""
    parts = max(1, min(parts, total))
    return [total // parts + (i < total % parts) for i in range(parts)]


def measure(workload, book, harness, rotations_: int, gaps) -> list:
    """The measured pass, split into blocks with one of *gaps* (untimed
    child runs) after each block but the last.

    The host's speed drifts over tens of seconds; spreading the same ops
    over the whole run, not one stretch of it, averages more of that
    drift into each run's figures.
    """
    counts = blocks(rotations_, len(gaps) + 1)
    ops = []
    for i, count in enumerate(counts):
        ops += harness.run_pass(workload, book, count)
        if i < len(gaps):
            gaps[i]()
    for gap in gaps[len(counts):]:
        gap()
    return ops


def host_line() -> str:
    import numpy

    from repro.core.native import load_native
    from repro.simulator.native import load_native_sim

    def state(loaded) -> str:
        return "on" if loaded is not None else "off"

    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} native_sim={state(load_native_sim())} "
        f"native_reduce={state(load_native())}"
    )


def print_metrics(metrics) -> None:
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']}")


def result_line(ops, metrics) -> str:
    failed = sum(op.error is not None for op in ops)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        }
    )


def report_failures(ops) -> None:
    for op in ops:
        if op.error is not None:
            print(f"  FAILED {op.error}")


def run_workload(args) -> None:
    if args.accuracy_only:
        # Runs inside the parent's run directory, on its native cache.
        if "REPRO_NATIVE_CACHE" not in os.environ:
            sys.exit("perfbench: --accuracy-only runs only as a child of a run")
        import_repro()
        from perfbench import workloads

        print(json.dumps(workloads.fixed_accuracy()))
        return
    rundir = make_rundir(args.workload)
    try:
        imported = time.perf_counter()
        import_repro()
        from perfbench import harness, layers, workloads

        import_s = time.perf_counter() - imported
        workload = workloads.WORKLOADS[args.workload]()
        reference = None
        if not args.record and (args.seed == workloads.DEFAULT_SEED or not workload.seeded):
            reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
        book = harness.DigestBook(reference)

        if args.setup_only:
            setup_start = time.perf_counter()
            workload.setup(args.seed, rundir)
            print(json.dumps({"setup_s": import_s + time.perf_counter() - setup_start}))
            return
        if args.record:
            workload.setup(workloads.DEFAULT_SEED, rundir)
            ops = harness.run_pass(workload, book, 1)
            report_failures(ops)
            if any(op.error for op in ops):
                sys.exit("perfbench: not recording digests of failed ops")
            recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            recorded[workload.name] = dict(sorted(book.seen.items()))
            REFERENCE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
            print(f"recorded {len(book.seen)} digests for {workload.name}")
            return

        if args.trace:
            run_traced(args, workload, book, harness, layers, rundir)
            return

        setup_start = time.perf_counter()
        workload.setup(args.seed, rundir)
        setups = [import_s + time.perf_counter() - setup_start]
        gaps = [
            lambda: setups.append(child(args, "--setup-only")["setup_s"])
        ] * SETUP_CHILDREN
        # sim_validate validates in its ops; the others run the fixed
        # validation in a child.
        accuracy = getattr(workload, "accuracy", None)
        if accuracy is None:
            fixed = {}
            gaps.append(lambda: fixed.update(child(args, "--accuracy-only")))
            accuracy = lambda: fixed  # noqa: E731
        keys = workload.keys()
        warmup = [harness.run_op(workload, k, book) for k in keys[:WARMUP_OPS]]
        ops = measure(
            workload, book, harness, rotations(workload, args.seconds), gaps
        )
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = harness.end_to_end(ops, setups, peak_mb)
        for name, value in accuracy().items():
            metrics[name] = {"value": value, "unit": "%"}

        everything = warmup + ops
        _, tail_pct, count = harness.tail([op.seconds * 1e3 for op in ops])
        print(host_line())
        print(
            f"{workload.name} seed={args.seed}: {len(everything)} ops "
            f"({len(warmup)} warm-up discarded), "
            f"{sum(op.error is not None for op in everything)} failed; "
            f"work unit: {workload.unit}"
        )
        print(
            f"  set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}; "
            f"op_tail_ms is p{tail_pct:.1f} of {count} ops"
        )
        print_metrics(metrics)
        report_failures(everything)
        print(result_line(everything, metrics))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_traced(args, workload, book, harness, layers, rundir) -> None:
    """Traced set-up, then the same fixed ops untraced and traced."""
    tracer = layers.LayerTracer()
    with tracer:
        tracer.enabled = True
        workload.setup(args.seed, rundir)
        tracer.enabled = False
    keys = workload.keys()
    warmup = [harness.run_op(workload, k, book) for k in keys[:WARMUP_OPS]]
    count = rotations(workload, args.seconds / 2)
    plain = harness.run_pass(workload, book, count)
    with tracer:
        traced = harness.run_pass(workload, book, count, tracer=tracer)
    plain_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in tracer.metrics().items()
    }
    metrics["host.cpu_share"] = {
        "value": sum(op.cpu_seconds for op in plain) / plain_s,
        "unit": "ratio",
    }
    metrics["trace.overhead_pct"] = {
        "value": (traced_s - plain_s) / plain_s * 100.0,
        "unit": "%",
    }
    everything = warmup + plain + traced
    print(host_line())
    print(
        f"{workload.name} seed={args.seed} traced: set-up plus "
        f"{len(traced)} ops, checked against {len(plain)} untraced ops "
        f"(digests {'equal' if all(op.error is None for op in everything) else 'DIFFER'})"
    )
    print(
        f"  op time: {plain_s:.3f} s untraced, {traced_s:.3f} s traced; "
        f"layer self time incl. set-up: {sum(tracer.busy.values()):.3f} s"
    )
    print_metrics(metrics)
    report_failures(everything)
    print(result_line(everything, metrics))


def run_all(args) -> None:
    """Every workload in its own process, summarised in one table."""
    failed = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"== {name}: exit {done.returncode}\n{done.stderr}")
            failed += 1
            continue
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"  ops: {result['failed']} failed of {result['attempted']} attempted")
        failed += result["failed"] > 0
    sys.exit(1 if failed else 0)


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
