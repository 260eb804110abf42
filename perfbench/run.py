#!/usr/bin/env python3
"""The repository benchmark: one workload per run, closed loop, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ite-4x4-m4 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` measures the per-layer split (see ``perfbench/README.md``).
Human-readable lines go to standard output first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.  The program is built from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.
"""

import time

#: Process start as far as the benchmark can see it: before ``import repro``.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working files of the benchmark (references, golden values, traces).
WORK = os.path.join(HERE, "_work")

#: Set-ups per run: this process and fresh set-up-only processes; the
#: reported ``setup_s`` is their median.
SETUP_RUNS = 5

#: Speed-kernel samples each set-up process takes after its set-up.
SETUP_KERNELS = 30

#: BLAS threads of every process, pinned before NumPy loads.  One thread:
#: on a 2-vCPU host a second, spinning BLAS thread competes with the main
#: thread and makes step times depend on what the other vCPU is doing.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Build the workload up to its first timed operation."""
    from cases import CASES, SweepBench, InProcessBench

    if workload in CASES:
        return InProcessBench(CASES[workload], seed)
    return SweepBench(seed, WORK)


def fresh_setups(args, count: int):
    """``(setup seconds, host speed factor)`` of fresh set-up-only processes."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((result["setup_s"], result["factor"]))
    return out


def declared_mismatch() -> str:
    """Where ``BENCHMARK.json`` names other workloads or metrics than this code."""
    import measure
    from cases import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    pairs = (
        ("workloads", [w["name"] for w in declared["workloads"]], list(WORKLOADS)),
        ("end_to_end", [(m["name"], m["unit"]) for m in declared["end_to_end"]], list(measure.END_TO_END)),
        ("per_layer", [(m["name"], m["unit"]) for m in declared["per_layer"]], measure.per_layer_metrics()),
    )
    return "; ".join(f"{key}: declared {a}, measured {b}" for key, a, b in pairs if a != b)


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    from cases import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    bench = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    from checks import HostSpeed

    speed = HostSpeed()
    speed.sample(SETUP_KERNELS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "factor": speed.factor}))
        return 0
    mismatch = declared_mismatch()
    if mismatch:
        print(f"perfbench: BENCHMARK.json and the benchmark disagree: {mismatch}", file=sys.stderr)
        return 2

    import measure

    setups = [(setup_s, speed.factor)] + fresh_setups(args, SETUP_RUNS - 1)
    context = measure.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), root=ROOT, work=WORK, threads=BLAS_THREADS, setups=setups,
        speed=HostSpeed(),
    )
    try:
        outcome = measure.run(bench, context)
    finally:
        if args.workload == "sweep-queue":
            bench.close()
    outcome.put("peak_rss_mb", peak_rss_mb(include_children=args.workload == "sweep-queue"), "MB")
    return measure.emit(outcome, context)


if __name__ == "__main__":
    sys.exit(main())
