"""Correctness checks and statistics shared by the benchmark workloads.

* :func:`reference_energies` — the exact statevector ITE energy trace the
  PEPS energies are checked against (cached under the work directory, keyed
  by the program's source hash, because a 4x4 reference takes seconds).
* :class:`Golden` — records, sampled bits and machine-independent counts
  remembered from the first run of a ``(workload, seed, source hash)``;
  every later run of the same code must repeat them.
* :func:`live_descendants` — processes still running under this one, for
  the sweep workload's process-hygiene check.
* :func:`tail` — the timing tail: the highest percentile that still has at
  least ten samples beyond it.
* :class:`HostSpeed` — the speed of the host during a run, from a fixed
  kernel timed between operations.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Absolute tolerance when a run's energies are compared with another run of
#: the same code.  Changing only the BLAS thread count moves the m=16 energy
#: by ~5e-9, so a byte-for-byte comparison would be wrong.
REPEAT_ATOL = 1e-7


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def source_hash(root: str) -> str:
    """SHA-256 over every ``src/**/*.py`` path and its bytes (sorted)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _atomic_json(path: str, payload: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def reference_energies(
    work_dir: str, code: str, lattice: Sequence[int], model: Dict[str, Any], tau: float, n_steps: int
) -> List[float]:
    """Exact ``StateVector.imaginary_time_evolution`` energies per site, steps 1..n."""
    key = hashlib.sha256(
        json.dumps([code, list(lattice), model, tau, n_steps], sort_keys=True).encode()
    ).hexdigest()[:16]
    path = os.path.join(work_dir, "reference", f"{key}.json")
    cached = _read_json(path)
    if cached is not None:
        return [float(value) for value in cached["energies"]]

    import numpy as np

    from repro.sim.spec import RunSpec
    from repro.statevector.statevector import StateVector

    spec = RunSpec.from_dict({"lattice": list(lattice), "model": model})
    n_sites = spec.n_sites
    amplitudes = np.full(2**n_sites, 2.0 ** (-n_sites / 2.0), dtype=np.complex128)
    _, energies = StateVector(amplitudes, n_sites).imaginary_time_evolution(
        spec.build_model(), tau, n_steps
    )
    energies = [float(value) for value in energies]
    _atomic_json(path, {"lattice": list(lattice), "tau": tau, "energies": energies})
    return energies


def check_energies(
    energies: Sequence[float], reference: Sequence[float], tolerance: Sequence[float]
) -> None:
    """Every step's energy within its tolerance of the exact trace."""
    for step, (value, exact, tol) in enumerate(zip(energies, reference, tolerance), start=1):
        if not abs(value - exact) <= tol:
            raise CheckFailed(
                f"step {step}: energy {value!r} differs from the exact "
                f"statevector energy {exact!r} by more than {tol:g}"
            )


def check_same_records(expected: Sequence[Dict[str, Any]], actual: Sequence[Dict[str, Any]], what: str) -> None:
    """Energies within :data:`REPEAT_ATOL`, everything else (bits) equal."""
    if len(expected) != len(actual):
        raise CheckFailed(f"{what}: {len(actual)} records, expected {len(expected)}")
    for want, got in zip(expected, actual):
        if set(want) != set(got):
            raise CheckFailed(f"{what}: record keys {sorted(got)} != {sorted(want)}")
        for key, value in want.items():
            other = got[key]
            if isinstance(value, float):
                if not abs(value - other) <= REPEAT_ATOL:
                    raise CheckFailed(
                        f"{what}: step {want.get('step')} {key} {other!r} != {value!r}"
                    )
            elif value != other:
                raise CheckFailed(f"{what}: step {want.get('step')} {key} differs")


def check_same_counts(expected: Any, actual: Any, what: str) -> None:
    """Machine-independent counts must repeat exactly."""
    if expected == actual:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        expected, actual = (
            {key: counts.get(key) for key in sorted(set(expected) | set(actual))
             if expected.get(key) != actual.get(key)}
            for counts in (expected, actual)
        )
    raise CheckFailed(f"{what}: counts differ: expected {expected}, got {actual}")


class Golden:
    """First-run values of one ``(workload, seed, source hash)``, for later runs.

    :meth:`check` compares a value with the remembered one, or remembers it
    when this is the first run of the key.  Values are stored in a JSON file
    under the work directory.
    """

    def __init__(self, work_dir: str, workload: str, seed: int, code: str) -> None:
        self.path = os.path.join(work_dir, "golden", f"{workload}-seed{seed}-{code[:16]}.json")
        self.values: Dict[str, Any] = _read_json(self.path) or {}
        self._dirty = False

    def check(self, key: str, value: Any, records: bool = False) -> None:
        value = json.loads(json.dumps(value))  # normalize tuples/ints as stored
        if key not in self.values:
            self.values[key] = value
            self._dirty = True
            return
        what = f"repeat of an earlier run ({key})"
        if records:
            check_same_records(self.values[key], value, what)
        else:
            check_same_counts(self.values[key], value, what)

    def save(self) -> None:
        if self._dirty:
            _atomic_json(self.path, self.values)
            self._dirty = False


def live_descendants(pid: Optional[int] = None) -> List[Tuple[int, str]]:
    """``(pid, command)`` of every live descendant of ``pid`` (default: self)."""
    root = os.getpid() if pid is None else pid
    children: Dict[int, List[int]] = {}
    names: Dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # comm may hold spaces and parentheses: split after the last ')'.
        name = stat[stat.find("(") + 1 : stat.rfind(")")]
        fields = stat[stat.rfind(")") + 2 :].split()
        state, ppid = fields[0], int(fields[1])
        if state in ("Z", "X"):
            continue
        children.setdefault(ppid, []).append(int(entry))
        names[int(entry)] = name
    found: List[Tuple[int, str]] = []
    pending = list(children.get(root, []))
    while pending:
        child = pending.pop()
        found.append((child, names[child]))
        pending.extend(children.get(child, []))
    return sorted(found)


#: Time of one :func:`speed_kernel` on the reference host, a 2-vCPU KVM guest
#: at 2.1 GHz with an otherwise idle load.  Reported times are in seconds of
#: that host (see :class:`HostSpeed`).
REFERENCE_KERNEL_S = 1.0e-3

#: Kernel samples (one per operation) whose median scales an operation.
SPEED_WINDOW = 5


def speed_kernel(matrix) -> float:
    """Wall time of a fixed pure-Python loop plus two complex matrix products.

    About 1 ms on the reference host, half interpreter and half BLAS work,
    because the workloads range from interpreter-bound (4x4, m=4) to
    BLAS-bound (4x4, m=16).
    """
    start = time.perf_counter()
    total = 0
    for k in range(15000):
        total += k
    for _ in range(2):
        matrix @ matrix
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs during this run, relative to the reference host.

    The machine the benchmark runs on is shared: its speed drifts by up to
    1.5x within a minute.  Timing :func:`speed_kernel` right before each
    measured operation (never inside it) and dividing the operation's time
    by it removes the drift, because the kernel does not depend on the
    program.  Construct it after the BLAS thread count is pinned.
    """

    def __init__(self) -> None:
        import numpy as np

        self.samples: List[float] = []
        self._matrix = np.full((96, 96), 0.01 + 0.01j)

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times; return the median of these samples."""
        new = [speed_kernel(self._matrix) for _ in range(count)]
        self.samples += new
        return median(new)

    def ref(self, seconds: float, kernel: Optional[float] = None) -> float:
        """Wall ``seconds`` in reference-host seconds, against ``kernel``.

        The default kernel time is the median of the latest
        :data:`SPEED_WINDOW` samples, the last taken right before the
        operation: one sample alone jitters by tens of percent.
        """
        if kernel is None:
            kernel = median(self.samples[-SPEED_WINDOW:])
        return seconds * REFERENCE_KERNEL_S / kernel

    @property
    def factor(self) -> float:
        """Reference-host seconds per wall second over the whole run."""
        return REFERENCE_KERNEL_S / median(self.samples)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise CheckFailed(f"{n} samples cannot give a tail with ten samples beyond it")
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


def median(values: Sequence[float]) -> float:
    if not values:
        raise CheckFailed("no samples to take a median of")
    return float(statistics.median(values))

