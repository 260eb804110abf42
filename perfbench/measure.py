"""Measurement loops, metrics and the result line of one benchmark run."""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from cases import (
    EPISODE_STEPS,
    MIN_STEPS,
    MODEL,
    SWEEP_STEPS,
    SWEEP_WORKERS,
    TAU,
    Episode,
    InProcessBench,
    SweepBench,
    SweepRound,
    check_episodes,
    coverage_check,
    sum_counts,
)
from checks import (
    CheckFailed,
    Golden,
    HostSpeed,
    check_energies,
    check_same_records,
    median,
    reference_energies,
    source_hash,
    tail,
)
from layers import COMPUTE_TARGETS, IO_TARGETS, UNATTRIBUTED, LayerTracer

#: ``(name, unit)`` of the end-to-end metrics (``--trace 0``), in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("step_s_p50", "s"),
    ("step_s_tail", "s"),
    ("energy_err", "per_site"),
    ("points_per_s", "1/s"),
    ("ckpt_write_s_p50", "s"),
    ("ckpt_restore_s_p50", "s"),
    ("ckpt_bytes", "B"),
    ("peak_rss_mb", "MB"),
)

FLOP_CATEGORIES = ("einsum", "einsum_batched", "tensordot", "svd", "qr", "eigh")


def per_layer_metrics() -> List[Tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric (``--trace 1``)."""
    out: List[Tuple[str, str]] = []
    for name, *_ in COMPUTE_TARGETS + IO_TARGETS:
        out += [(f"{name}.calls", "calls/op"), (f"{name}.self_s", "s/op")]
    out += [
        ("backends.path_cache_miss_ratio", "ratio"),
        ("backends.path_cache_misses_cold", "count"),
    ]
    out += [(f"backends.flops.{category}", "flop/op") for category in FLOP_CATEGORIES]
    out += [
        ("peps.contraction.row_absorptions", "count/op"),
        ("peps.envs.ctm_moves", "count/op"),
        ("peps.envs.batched_contractions", "count/op"),
        ("peps.envs.strip_cache_hit_ratio", "ratio"),
        ("sample_s_p50", "s"),
        ("sample_s_tail", "s"),
        ("sim.queue.claims", "count"),
        ("sim.queue.requeues", "count"),
        ("sim.sweep.point_s_p50", "s"),
        ("sim.sweep.busy_frac", "ratio"),
        (f"{UNATTRIBUTED}.self_s", "s/op"),
        ("benchmark.traced_wall_s", "s/op"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: str
    work: str
    threads: int
    #: ``(seconds, host speed factor)`` of every set-up
    setups: List[Tuple[float, float]]
    speed: HostSpeed


@dataclass
class Outcome:
    #: metric name -> (value, unit, note printed beside it)
    report: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    error: Optional[str] = None

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report[name] = (float(value), unit, note)


def run(bench, ctx: Context) -> Outcome:
    out = Outcome()
    out.put("setup_s", median([raw * factor for raw, factor in ctx.setups]), "s",
            f"median of {len(ctx.setups)} set-ups; raw median {median([raw for raw, _ in ctx.setups]):.4g} s")
    try:
        if isinstance(bench, SweepBench):
            _run_sweep(bench, ctx, out)
        else:
            _run_in_process(bench, ctx, out)
    except Exception as exc:  # any failure: report it, never a result marked correct
        out.failed += 1
        out.attempted += 1
        out.error = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, CheckFailed):
            traceback.print_exc()
    return out


def _timing(out: Outcome, prefix: str, values: List[float]) -> None:
    """Median and tail of times already in reference-host seconds."""
    out.put(f"{prefix}_p50", median(values), "s", f"n={len(values)}")
    value, percentile, n = tail(values)
    out.put(f"{prefix}_tail", value, "s", f"p{percentile:.1f}, n={n}")


# --------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------- #
def _run_in_process(bench: InProcessBench, ctx: Context, out: Outcome) -> None:
    case = bench.case
    code = source_hash(ctx.root)
    reference = reference_energies(ctx.work, code, case.lattice, MODEL, TAU, EPISODE_STEPS)
    golden = Golden(ctx.work, case.name, ctx.seed, code)
    sample_s = bench.install_sample_timer(ctx.speed)
    tracer = LayerTracer(COMPUTE_TARGETS) if ctx.trace else None
    ckpt_dir = os.path.join(ctx.work, f"ckpt-{os.getpid()}")
    clock = time.perf_counter

    episodes: List[Episode] = []
    untraced_samples: List[float] = []
    ckpt_bytes: List[int] = []
    write_s: List[float] = []
    restore_s: List[float] = []
    deadline = clock() + ctx.seconds

    def steps_done() -> int:
        return sum(len(episode.step_s) for episode in episodes)

    def more(taken: int) -> bool:
        return clock() < deadline or steps_done() + taken < MIN_STEPS

    def next_kind() -> Optional[str]:
        if not episodes:
            return "cold"
        if not ctx.trace:
            return "warm" if more(0) else None
        kinds = {episode.kind for episode in episodes}
        if clock() >= deadline and {"traced", "warm"} <= kinds:
            return None
        return "traced" if episodes[-1].kind != "traced" else "warm"

    while True:
        kind = next_kind()
        if kind is None:
            break
        partial_ok = kind == "warm" and not ctx.trace
        samples_before = len(sample_s)
        episode = bench.episode(
            kind,
            more if partial_ok else (lambda taken: True),
            ctx.speed,
            tracer if kind == "traced" else None,
        )
        episodes.append(episode)
        out.attempted += len(episode.step_s)
        if kind != "traced":
            untraced_samples += sample_s[samples_before:]
        if episode.full and not ctx.trace:
            size, writes, restores = bench.checkpoint_leg(episode.records, ckpt_dir, ctx.speed)
            ckpt_bytes.append(size)
            write_s += writes
            restore_s += restores
            out.attempted += len(writes) + len(restores)

    energy_err = check_episodes(episodes, reference, case, golden)
    for size in ckpt_bytes:
        golden.check("ckpt_bytes", size)
    traced = [episode for episode in episodes if episode.kind == "traced"]
    if tracer is not None:
        coverage = coverage_check(tracer, traced, case.lattice[0] * case.lattice[1])
        print("coverage cross-check (wrapped == program):")
        for name, (wrapped, program) in coverage.items():
            print(f"  {name}: {wrapped} == {program}")
    golden.save()

    untraced_steps = [t for episode in episodes if episode.kind != "traced" for t in episode.step_s]
    factor = ctx.speed.factor
    _speed_note(out, ctx.speed)
    if not ctx.trace:
        _timing(out, "step_s", untraced_steps)
        out.put("energy_err", energy_err, "per_site", f"step {EPISODE_STEPS} vs exact statevector ITE")
        full = [sum(episode.step_s) for episode in episodes if episode.full]
        out.put("points_per_s", len(full) / sum(full), "1/s",
                f"{len(full)} full {EPISODE_STEPS}-step episodes over the time of their steps")
        out.put("ckpt_write_s_p50", median(write_s), "s", f"n={len(write_s)}")
        out.put("ckpt_restore_s_p50", median(restore_s), "s", f"n={len(restore_s)}")
        out.put("ckpt_bytes", median(ckpt_bytes), "B", "JSON + npz sidecar of the step-8 state")
        if case.nshots:
            _timing(out, "sample_s", sample_s)
        return

    n_ops = sum(len(episode.step_s) for episode in traced)
    _layer_totals(out, tracer, n_ops, factor)
    cold = episodes[0].counts
    counts = sum_counts([episode.counts for episode in traced])
    lookups = counts["einsum.path_cache_hits"] + counts["einsum.path_cache_misses"]
    out.put("backends.path_cache_miss_ratio", counts["einsum.path_cache_misses"] / lookups if lookups else 0.0,
            "ratio", f"base {lookups} lookups in traced episodes")
    out.put("backends.path_cache_misses_cold", cold["einsum.path_cache_misses"], "count", "first episode")
    flops = sum_counts([episode.flops["flops"] for episode in traced])
    for category in FLOP_CATEGORIES:
        out.put(f"backends.flops.{category}", flops.get(category, 0.0) / n_ops, "flop/op")
    out.put("peps.contraction.row_absorptions", counts["peps.row_absorptions"] / n_ops, "count/op")
    out.put("peps.envs.ctm_moves", counts["peps.ctm_moves"] / n_ops, "count/op")
    out.put("peps.envs.batched_contractions", counts["peps.batched_contractions"] / n_ops, "count/op")
    strip = counts["peps.strip_cache_hits"] + counts["peps.strip_cache_misses"]
    out.put("peps.envs.strip_cache_hit_ratio", counts["peps.strip_cache_hits"] / strip if strip else 0.0,
            "ratio", f"base {strip} strip lookups")
    if case.nshots:
        _timing(out, "sample_s", untraced_samples)
    traced_steps = [t for episode in traced for t in episode.step_s]
    warm_steps = [t for episode in episodes if episode.kind == "warm" for t in episode.step_s]
    out.put("trace.overhead_ratio", median(traced_steps) / median(warm_steps), "ratio",
            f"traced p50 over untraced warm p50, n={len(traced_steps)}/{len(warm_steps)}")
    tracer.write_chrome_trace(os.path.join(ctx.work, "traces", f"{ctx.workload}-seed{ctx.seed}.json"))


def _speed_note(out: Outcome, speed: HostSpeed) -> None:
    out.put("host_speed_factor", speed.factor, "ratio",
            f"reference kernel time / median of {len(speed.samples)} kernel samples; "
            "each time is its wall time scaled by the kernel samples taken just before it")


def _layer_totals(out: Outcome, tracer: LayerTracer, n_ops: int, factor: float) -> None:
    """Per-op calls and self time of every wrapped function, plus the remainder."""
    totals = tracer.totals()
    for name, values in totals.items():
        if name != UNATTRIBUTED:
            out.put(f"{name}.calls", values["calls"] / n_ops, "calls/op")
        out.put(f"{name}.self_s", values["self_s"] / n_ops * factor, "s/op")
    wall = tracer.wall_s()
    attributed = sum(values["self_s"] for values in totals.values())
    if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
        raise CheckFailed(f"layer self times sum to {attributed} s, traced wall is {wall} s")
    out.put("benchmark.traced_wall_s", wall / n_ops * factor, "s/op",
            f"{n_ops} traced ops; layer self times + remainder = wall")


# --------------------------------------------------------------------- #
# Queued sweep
# --------------------------------------------------------------------- #
def _run_sweep(bench: SweepBench, ctx: Context, out: Outcome) -> None:
    code = source_hash(ctx.root)
    reference = reference_energies(ctx.work, code, (3, 3), MODEL, TAU, SWEEP_STEPS)
    golden = Golden(ctx.work, ctx.workload, ctx.seed, code)
    tracer = LayerTracer(IO_TARGETS) if ctx.trace else None
    clock = time.perf_counter
    deadline = clock() + ctx.seconds
    rounds: List[Tuple[bool, SweepRound]] = []
    first_records: Optional[Dict[str, List[Dict[str, Any]]]] = None

    while True:
        traced = ctx.trace and len(rounds) % 2 == 1
        # Untraced runs take two sweeps at least (16 point times); traced
        # runs three: a first, cold one, then a traced and a warm untraced.
        if rounds and clock() >= deadline and len(rounds) >= (3 if ctx.trace else 2):
            break
        if rounds:
            bench.next_sweep()
        if traced:
            tracer.install()
        try:
            result = bench.run_round(ctx.speed, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, result))
        out.attempted += result.points_done + len(result.write_s) + len(result.restore_s)
        for name, records in result.records.items():
            check_energies([record["energy"] for record in records], reference, [1e-3] * SWEEP_STEPS)
        if first_records is None:
            first_records = result.records
            for name, records in result.records.items():
                golden.check(f"records.{name}", records, records=True)
        else:
            for name, records in result.records.items():
                check_same_records(first_records[name], records, f"sweep round {len(rounds)} point {name}")
        golden.check("ckpt_bytes", result.ckpt_bytes)
    golden.save()

    all_rounds = [r for _, r in rounds]
    energy = next(iter(first_records.values()))[-1]["energy"]
    factor = ctx.speed.factor
    _speed_note(out, ctx.speed)
    if not ctx.trace:
        _timing(out, "step_s", [t for r in all_rounds for t in r.point_s])
        out.put("energy_err", abs(energy - reference[-1]), "per_site", f"step {SWEEP_STEPS} vs exact statevector ITE")
        rate = median([r.points_done / r.wall_s for r in all_rounds])
        out.put("points_per_s", rate, "1/s",
                f"median of {len(all_rounds)} sweeps of {all_rounds[0].points_done} points, "
                f"{SWEEP_WORKERS} workers")
        writes = [t for r in all_rounds for t in r.write_s]
        restores = [t for r in all_rounds for t in r.restore_s]
        out.put("ckpt_write_s_p50", median(writes), "s", f"n={len(writes)}")
        out.put("ckpt_restore_s_p50", median(restores), "s", f"n={len(restores)}")
        out.put("ckpt_bytes", median([b for r in all_rounds for b in r.ckpt_bytes]), "B", "JSON + npz sidecar")
        return

    traced_rounds = [r for was_traced, r in rounds if was_traced]
    n_ops = sum(len(r.write_s) + len(r.restore_s) for r in traced_rounds)
    _layer_totals(out, tracer, n_ops, factor)
    restores = sum(len(r.restore_s) for r in traced_rounds)
    writes = sum(len(r.write_s) for r in traced_rounds)
    totals = tracer.totals()
    pairs = {
        "write_checkpoint calls vs writes": (totals["sim.io.write_checkpoint"]["calls"], writes),
        "load_checkpoint calls vs restores": (totals["sim.io.load_checkpoint"]["calls"], restores),
        "peps_from_dict calls vs restores": (totals["sim.io.peps_from_dict"]["calls"], restores),
    }
    print("coverage cross-check (wrapped == program):")
    for name, (wrapped, program) in pairs.items():
        print(f"  {name}: {wrapped} == {program}")
        if wrapped != program:
            raise CheckFailed(f"coverage cross-check failed: {name}: {wrapped} != {program}")
    out.put("sim.queue.claims", median([r.claims for r in all_rounds]), "count", "claim records per sweep")
    out.put("sim.queue.requeues", median([r.requeues for r in all_rounds]), "count", "per sweep")
    out.put("sim.sweep.point_s_p50", median([t for r in all_rounds for t in r.point_s]), "s",
            "manifest wall_time_s")
    busy = [sum(r.point_s) / (SWEEP_WORKERS * r.wall_s) for r in all_rounds]
    out.put("sim.sweep.busy_frac", median(busy), "ratio", f"sum point wall / ({SWEEP_WORKERS} x sweep wall)")
    traced_ops = [w + r for rnd in traced_rounds for w, r in zip(rnd.write_s, rnd.restore_s)]
    warm_ops = [
        w + r for was_traced, rnd in rounds[1:] if not was_traced for w, r in zip(rnd.write_s, rnd.restore_s)
    ]
    out.put("trace.overhead_ratio", median(traced_ops) / median(warm_ops), "ratio",
            "traced over warm untraced restore+write per checkpoint")
    tracer.write_chrome_trace(os.path.join(ctx.work, "traces", f"{ctx.workload}-seed{ctx.seed}.json"))


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #
def emit(out: Outcome, ctx: Context) -> int:
    """Print every metric with its unit, then the result line; return the exit code."""
    wanted = per_layer_metrics() if ctx.trace else list(END_TO_END)
    correct = out.error is None
    metrics: Dict[str, Dict[str, Any]] = {}
    print(f"workload {ctx.workload} seed {ctx.seed} trace {int(ctx.trace)}; "
          f"BLAS threads {ctx.threads} per process of nproc {os.cpu_count()}"
          + ("" if ctx.workload != "sweep-queue" else f", {SWEEP_WORKERS} sweep workers"))
    for name, unit in wanted:
        value, got_unit, note = out.report.get(name, (0.0, unit, "not measured on this workload"))
        if got_unit != unit:
            raise AssertionError(f"metric {name} measured in {got_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    extra = sorted(set(out.report) - {name for name, _ in wanted})
    for name in extra:
        value, unit, note = out.report[name]
        print(f"  [{name} = {value:.6g} {unit}" + (f"  ({note})" if note else "") + "]")
    base = max(out.attempted, 1)
    print(f"  failed_frac = {out.failed / base:.6g} ratio  (base {base} attempted operations)")
    if out.error is not None:
        print(f"FAILED: {out.error}")
        metrics = {name: metrics[name] for name, _ in wanted if name in out.report}
    print(json.dumps({"correct": correct, "attempted": base, "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1
