"""The four benchmark workloads and the closed loops that drive them.

Three workloads run in process: one loop issues ``workload.step`` +
``workload.measure`` of a :class:`repro.sim.workloads.ITEWorkload`, times the
pair, and issues the next only after it returned.  The trajectory restarts
from the initial ``plus`` state every :data:`EPISODE_STEPS` steps, because a
rank-2 PEPS departs from the exact trace after about step 12, and a fixed
episode length keeps every count and energy independent of how fast the
code runs.

The fourth, ``sweep-queue``, runs a queued :class:`repro.sim.sweep.Sweep`
with worker processes, then restores every point's newest checkpoint in
process and writes it again.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import (
    CheckFailed,
    Golden,
    HostSpeed,
    check_energies,
    check_same_counts,
    check_same_records,
    live_descendants,
)
from layers import LayerTracer

#: The model of every workload: J1-J2 Heisenberg with a uniform field.
MODEL = {
    "kind": "heisenberg_j1j2",
    "j1": [1.0, 1.0, 1.0],
    "j2": [0.5, 0.5, 0.5],
    "field": [0.2, 0.2, 0.2],
}
TAU = 0.05

#: Steps per in-process episode (one fresh trajectory from ``plus``).
EPISODE_STEPS = 8

#: Fewest timed steps an in-process run takes, whatever ``--seconds`` says:
#: the timing tail needs at least ten samples beyond it.
MIN_STEPS = 24

#: Global program counters compared between runs.  The einsum flop-estimate
#: cache is left out: only the traced run's flop counter moves it.
COUNT_KEYS = (
    "peps.row_absorptions",
    "peps.ctm_moves",
    "peps.batched_contractions",
    "peps.strip_cache_hits",
    "peps.strip_cache_misses",
    "einsum.path_cache_hits",
    "einsum.path_cache_misses",
)


@dataclass(frozen=True)
class InProcessCase:
    """One in-process ITE workload."""

    name: str
    lattice: Tuple[int, int]
    rank: int
    contraction: Dict[str, Any]
    nshots: int
    #: energy tolerance against the exact trace for steps 1-4 and 5-8
    tolerance: Tuple[float, float]

    def payload(self, seed: int) -> Dict[str, Any]:
        contraction = dict(self.contraction)
        if contraction["kind"] == "ibmps":
            contraction["seed"] = seed
        return {
            "name": self.name,
            "workload": "ite",
            "lattice": list(self.lattice),
            "n_steps": EPISODE_STEPS,
            "seed": seed,
            "backend": "numpy",
            "model": MODEL,
            "algorithm": {"tau": TAU, "initial_state": "plus", "nshots": self.nshots},
            "update": {"kind": "qr", "rank": self.rank},
            "contraction": contraction,
            "observables": ["sample"] if self.nshots else [],
            "checkpoint_every": 0,
        }

    def step_tolerances(self) -> List[float]:
        early, late = self.tolerance
        return [early if step <= 4 else late for step in range(1, EPISODE_STEPS + 1)]


CASES: Dict[str, InProcessCase] = {
    case.name: case
    for case in (
        InProcessCase("ite-4x4-m4", (4, 4), 2, {"kind": "ibmps", "bond": 4, "niter": 1}, 0, (1e-3, 1e-3)),
        # Rank 3 drifts further from the exact trace (4.3e-3 at step 8).
        InProcessCase("ite-4x4-m16", (4, 4), 3, {"kind": "ibmps", "bond": 16, "niter": 1}, 0, (1e-3, 1e-2)),
        InProcessCase("ctm-sample-3x3", (3, 3), 2, {"kind": "ctm", "chi": 8}, 32, (1e-3, 1e-3)),
    )
}
SWEEP = "sweep-queue"
WORKLOADS = tuple(CASES) + (SWEEP,)


def global_counts() -> Dict[str, int]:
    from repro.telemetry import global_snapshot

    snapshot = global_snapshot()
    return {key: int(snapshot.get(key, 0)) for key in COUNT_KEYS}


def _delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    return {key: after[key] - before.get(key, 0) for key in after}


def sum_counts(dicts: List[Dict[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for counts in dicts:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    return total


def _record(raw: Dict[str, Any]) -> Dict[str, Any]:
    record = {"step": raw["step"], "energy": float(raw["energy"])}
    if "samples" in raw:
        record["samples"] = raw["samples"]
    return record


# --------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------- #
@dataclass
class Episode:
    kind: str  # "cold", "warm" or "traced"
    #: step times in reference-host seconds
    step_s: List[float] = field(default_factory=list)
    records: List[Dict[str, Any]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    flops: Dict[str, Any] = field(default_factory=dict)

    @property
    def full(self) -> bool:
        return len(self.records) == EPISODE_STEPS


class InProcessBench:
    """Set-up and closed-loop episodes of one in-process workload."""

    def __init__(self, case: InProcessCase, seed: int) -> None:
        from repro.sim.spec import RunSpec
        from repro.sim.workloads import build_workload

        self.case = case
        self.spec = RunSpec.from_dict(case.payload(seed))
        self.workload = build_workload(self.spec)
        self.workload.setup()

    def checkpoint_leg(
        self, records: List[Dict[str, Any]], directory: str, speed: HostSpeed
    ) -> Tuple[int, List[float], List[float]]:
        """Write the episode's final state as a checkpoint and restore it.

        Mirrors the end of a checkpointing run, outside the step timing: a
        write (``state_to_dict`` + ``write_checkpoint``) of the live state,
        then a restore of that file into a second workload,
        :data:`CHECKPOINT_REPS` times.  The restored state must write a
        bitwise identical sidecar.  Returns ``(bytes of one checkpoint,
        write times, restore times)``, times in reference-host seconds.
        """
        from repro.sim import io as sim_io
        from repro.sim.workloads import build_workload

        spec_dict = self.spec.to_dict()
        spec_dict.pop("telemetry", None)
        step = records[-1]["step"]
        restored = build_workload(self.spec)
        restored.setup()
        write_s: List[float] = []
        restore_s: List[float] = []
        for _ in range(CHECKPOINT_REPS):
            speed.sample()
            path, seconds = write_state(self.workload, directory, self.spec.name, step, spec_dict, records)
            write_s.append(speed.ref(seconds))
            speed.sample()
            restore_s.append(speed.ref(restore_checkpoint(restored, path)[1]))
        payload = sim_io.load_checkpoint(path)
        again, _ = write_state(restored, os.path.join(directory, "again"), self.spec.name, step, spec_dict, records)
        check_same_sidecar(payload, again)
        size = checkpoint_bytes(path)
        shutil.rmtree(directory, ignore_errors=True)
        return size, write_s, restore_s

    def install_sample_timer(self, speed: HostSpeed) -> List[float]:
        """Time every ``PEPS.sample`` call (one per measured step when sampling).

        Times are in reference-host seconds, against the kernel samples
        taken before the enclosing step.
        """
        from repro.peps.peps import PEPS

        times: List[float] = []
        original = PEPS.sample

        def timed_sample(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            times.append(speed.ref(time.perf_counter() - start))
            return result

        PEPS.sample = timed_sample
        return times

    def episode(
        self,
        kind: str,
        keep_going: Callable[[int], bool],
        speed: HostSpeed,
        tracer: Optional[LayerTracer] = None,
    ) -> Episode:
        """Run one episode from the initial state.

        ``keep_going(steps_taken)`` is asked before every step after the
        first and may cut the episode short.
        """
        from repro.utils.flops import FlopCounter

        if kind != "cold":
            self.workload.setup()  # back to the initial state
        backend = self.spec.resolve_backend()
        counter = FlopCounter() if tracer is not None else None
        backend.flop_counter = counter
        if tracer is not None:
            tracer.install()
        result = Episode(kind)
        before = global_counts()
        clock = time.perf_counter
        try:
            for step in range(1, EPISODE_STEPS + 1):
                if step > 1 and not keep_going(step - 1):
                    break
                speed.sample()
                if tracer is not None:
                    start = clock()
                    with tracer.op():
                        self.workload.step(step)
                        raw = self.workload.measure(step)
                    elapsed = clock() - start
                else:
                    start = clock()
                    self.workload.step(step)
                    raw = self.workload.measure(step)
                    elapsed = clock() - start
                result.step_s.append(speed.ref(elapsed))
                result.records.append(_record({"step": step, **raw}))
        finally:
            if tracer is not None:
                tracer.uninstall()
            backend.flop_counter = None
        result.counts = _delta(global_counts(), before)
        if counter is not None:
            result.flops = {
                "flops": counter.by_category(),
                "calls": counter.calls_by_category(),
            }
        return result


def check_episodes(
    episodes: List[Episode], reference: List[float], case: InProcessCase, golden: Golden
) -> float:
    """All record/count checks of a run; returns the episode's final energy error."""
    full = [episode for episode in episodes if episode.full]
    first = full[0]
    energies = [record["energy"] for record in first.records]
    check_energies(energies, reference, case.step_tolerances())
    golden.check("records", first.records, records=True)
    for episode in full[1:]:
        check_same_records(first.records, episode.records, f"{episode.kind} episode vs first")
    # Partial episodes still repeat the leading records of a full one.
    for episode in episodes:
        if not episode.full:
            check_same_records(first.records[: len(episode.records)], episode.records, "partial episode")
    golden.check("counts.cold", first.counts)
    by_kind: Dict[str, List[Episode]] = {}
    for episode in full[1:]:
        by_kind.setdefault(episode.kind, []).append(episode)
    for kind, group in by_kind.items():
        for episode in group[1:]:
            check_same_counts(group[0].counts, episode.counts, f"{kind} episode counts")
        golden.check(f"counts.{kind}", group[0].counts)
        if kind == "traced":
            for episode in group[1:]:
                check_same_counts(group[0].flops, episode.flops, "traced episode flop counts")
            golden.check("flops.traced", group[0].flops)
    return abs(energies[-1] - reference[-1])


def coverage_check(tracer: LayerTracer, traced: List[Episode], n_sites: int) -> Dict[str, Tuple[int, int]]:
    """Wrapped call counts against the program's own counters.

    Returns ``{check: (wrapped, program)}``; raises when any pair differs,
    which is how a missed import site of a wrapped function shows.
    """
    totals = tracer.totals()
    counts = sum_counts([episode.counts for episode in traced])
    calls = sum_counts([episode.flops["calls"] for episode in traced])

    def wrapped(name: str, field_name: str = "calls") -> int:
        return int(totals[name][field_name])

    pairs = {
        "backends.einsum calls vs FlopCounter einsum": (wrapped("backends.einsum"), calls.get("einsum", 0)),
        "backends.svd calls vs FlopCounter svd": (wrapped("backends.svd"), calls.get("svd", 0)),
        "backends.qr calls vs FlopCounter qr": (wrapped("backends.qr"), calls.get("qr", 0)),
        "backends.eigh calls vs FlopCounter eigh": (wrapped("backends.eigh"), calls.get("eigh", 0)),
        "einsum path-cache lookups vs FlopCounter einsum + einsum_batched": (
            counts["einsum.path_cache_hits"] + counts["einsum.path_cache_misses"],
            calls.get("einsum", 0) + calls.get("einsum_batched", 0),
        ),
        "absorb_row items vs peps.row_absorptions": (
            wrapped("peps.contraction.absorb_row", "items")
            + wrapped("peps.contraction.absorb_row_batched", "items"),
            counts["peps.row_absorptions"],
        ),
        # The lockstep sampler also counts its per-site projection einsum
        # (one per site and sample call) as a batched contraction.
        "einsum_batched calls + projections vs peps.batched_contractions": (
            wrapped("backends.einsum_batched") + n_sites * wrapped("peps.envs.sample"),
            counts["peps.batched_contractions"],
        ),
        "ctm_renormalize items vs peps.ctm_moves": (
            wrapped("peps.envs.ctm_renormalize", "items")
            + wrapped("peps.envs.ctm_renormalize_batched", "items"),
            counts["peps.ctm_moves"],
        ),
    }
    bad = {name: pair for name, pair in pairs.items() if pair[0] != pair[1]}
    if bad:
        raise CheckFailed(f"coverage cross-check failed (wrapped, program): {bad}")
    return pairs


# --------------------------------------------------------------------- #
# Checkpoint io shared by the in-process and sweep legs
# --------------------------------------------------------------------- #
#: Checkpoint writes and restores after each full in-process episode.
CHECKPOINT_REPS = 20


def write_state(workload, directory: str, name: str, step: int, spec_dict, records) -> Tuple[str, float]:
    """``state_to_dict`` + ``write_checkpoint`` (npz sidecar), timed."""
    from repro.sim import io as sim_io

    start = time.perf_counter()
    store = sim_io.make_payload_store("npz")
    path = sim_io.write_checkpoint(
        directory, name, step, spec_dict, workload.state_to_dict(store=store),
        records, keep=1, store=store,
    )
    return path, time.perf_counter() - start


def restore_checkpoint(workload, path: str) -> Tuple[Dict[str, Any], float]:
    """``load_checkpoint`` -> ``open_payload_store`` -> ``restore_state``, timed."""
    from repro.sim import io as sim_io

    start = time.perf_counter()
    payload = sim_io.load_checkpoint(path)
    store = sim_io.open_payload_store(payload, path)
    try:
        workload.restore_state(payload["workload_state"], store=store)
    finally:
        store.close()
    return payload, time.perf_counter() - start


def checkpoint_bytes(path: str) -> int:
    """Size of one checkpoint: the JSON document plus its npz sidecar."""
    from repro.sim import io as sim_io

    return os.path.getsize(path) + os.path.getsize(sim_io.sidecar_for(path))


def check_same_sidecar(original: Dict[str, Any], rewritten_path: str) -> None:
    """The rewritten sidecar's sha256 (recorded and on disk) equals the original's."""
    from repro.sim import io as sim_io

    rewritten = sim_io.load_checkpoint(rewritten_path)
    on_disk = sim_io._file_sha256(sim_io.sidecar_for(rewritten_path))
    if not rewritten["sidecar_sha256"] == on_disk == original["sidecar_sha256"]:
        raise CheckFailed(
            f"rewritten checkpoint {rewritten_path} has sidecar sha256 {on_disk}, "
            f"the original {original['sidecar_sha256']}"
        )


# --------------------------------------------------------------------- #
# Queued sweep
# --------------------------------------------------------------------- #
SWEEP_POINTS = 8
SWEEP_WORKERS = 2
SWEEP_STEPS = 4
#: Speed-kernel samples the parent takes before and after each sweep.
SWEEP_KERNELS = 10


def sweep_payload(seed: int, sweep_dir: str) -> Dict[str, Any]:
    base = {
        "name": "bench",
        "workload": "ite",
        "lattice": [3, 3],
        "n_steps": SWEEP_STEPS,
        "seed": seed,
        "backend": "numpy",
        "model": MODEL,
        "algorithm": {"tau": TAU, "initial_state": "plus"},
        "update": {"kind": "qr", "rank": 2},
        "contraction": {"kind": "ctm", "chi": 8},
        "checkpoint_every": 1,
        "checkpoint_payload": "npz",
    }
    return {
        "name": "bench",
        "base": base,
        "axes": {"seed": [seed * SWEEP_POINTS + i for i in range(SWEEP_POINTS)]},
        "sweep_dir": sweep_dir,
        "jobs": SWEEP_WORKERS,
        "executor": "queue",
    }


@dataclass
class SweepRound:
    """One sweep and its restore/rewrite leg; times in reference-host seconds."""

    wall_s: float
    points_done: int
    point_s: List[float]
    records: Dict[str, List[Dict[str, Any]]]
    claims: int
    requeues: int
    ckpt_bytes: List[int] = field(default_factory=list)
    write_s: List[float] = field(default_factory=list)
    restore_s: List[float] = field(default_factory=list)


def wait_for_no_descendants(timeout: float = 10.0) -> None:
    """Fail, after killing them, if processes started by this one survive."""
    deadline = time.monotonic() + timeout
    survivors = live_descendants()
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = live_descendants()
    if survivors:
        import signal

        for pid, _ in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for pid, _ in survivors:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        raise CheckFailed(f"processes outlived the sweep: {survivors}")


class SweepBench:
    """One queued sweep per round, then the in-process restore/rewrite leg."""

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.sim.sweep import Sweep, SweepSpec

        self.seed = seed
        self.root = os.path.join(work_dir, f"sweep-{os.getpid()}")
        self._round = 0
        self.sweep = Sweep(SweepSpec.from_dict(sweep_payload(seed, self._round_dir())))

    def _round_dir(self) -> str:
        return os.path.join(self.root, f"round{self._round:03d}")

    def next_sweep(self) -> None:
        from repro.sim.sweep import Sweep, SweepSpec

        self._round += 1
        self.sweep = Sweep(SweepSpec.from_dict(sweep_payload(self.seed, self._round_dir())))

    def run_round(self, speed: HostSpeed, tracer: Optional[LayerTracer] = None) -> SweepRound:
        from repro.sim import io as sim_io
        from repro.sim.spec import RunSpec
        from repro.sim.workloads import build_workload

        sweep = self.sweep
        spec = sweep.spec
        before = speed.sample(SWEEP_KERNELS)
        start = time.perf_counter()
        result = sweep.run(jobs=SWEEP_WORKERS, executor="queue")
        wall = time.perf_counter() - start
        wait_for_no_descendants()
        # The workers keep both vCPUs busy, so the host speed of the sweep is
        # taken just before and just after it.
        kernel = (before + speed.sample(SWEEP_KERNELS)) / 2.0

        if not result.completed:
            raise CheckFailed(f"sweep did not complete: {result.statuses} {result.errors}")
        manifest = sweep.load_manifest(spec.manifest_path)
        points = spec.expand()
        claims = requeues = 0
        point_s: List[float] = []
        for entry in manifest["points"]:
            if entry["status"] != "done":
                raise CheckFailed(f"point {entry['name']} finished {entry['status']!r}")
            requeues += int(entry["queue"]["requeues"])
            point_s.append(speed.ref(float(entry["metrics"]["wall_time_s"]), kernel))
        claims_dir = os.path.join(spec.sweep_dir, "queue", "claims")
        for point in points:
            epochs = [
                name for name in os.listdir(os.path.join(claims_dir, point.name))
                if name[:4].isdigit() and name.endswith(".json") and name.count(".") == 1
            ]
            claims += len(epochs)
            requeues += len(epochs) - 1
        if requeues:
            raise CheckFailed(f"sweep requeued {requeues} point epochs; expected none")
        done = sum(1 for status in result.statuses.values() if status == "done")
        records = {
            point.name: [_record(record) for record in result.point_records(point.name)]
            for point in points
        }
        out = SweepRound(speed.ref(wall, kernel), done, point_s, records, claims, requeues)

        # In-process leg: restore each point's newest checkpoint, write it again.
        # Flush the sweep's writes first, so the leg's fsyncs do not wait on them.
        os.sync()
        rewrite_dir = os.path.join(spec.sweep_dir, "rewrite")
        for point in points:
            checkpoint = sim_io.latest_checkpoint(point.payload["checkpoint_dir"])
            if checkpoint is None:
                raise CheckFailed(f"point {point.name} left no checkpoint")
            out.ckpt_bytes.append(checkpoint_bytes(checkpoint))
            workload = build_workload(RunSpec.from_dict(point.payload))
            workload.setup()
            speed.sample()
            if tracer is None:
                payload, restore_s = restore_checkpoint(workload, checkpoint)
            else:
                with tracer.op():
                    payload, restore_s = restore_checkpoint(workload, checkpoint)
            out.restore_s.append(speed.ref(restore_s))
            args = (workload, rewrite_dir, payload["name"], payload["step"], payload["spec"], payload["records"])
            speed.sample()
            if tracer is None:
                path, write_s = write_state(*args)
            else:
                with tracer.op():
                    path, write_s = write_state(*args)
            out.write_s.append(speed.ref(write_s))
            check_same_sidecar(payload, path)
        # Round directories stay until close(): deleting them now would load
        # the disk with unlinks while the next sweep fsyncs its checkpoints.
        return out

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
