"""Per-layer tracing from outside the program: wrap public layer functions.

The benchmark must not change ``src/``, so the per-layer split is taken by
replacing each listed function with a timing wrapper for the duration of a
traced episode.  A function imported by name into other modules
(``from repro.tensornetwork.network import contract_network``) is a separate
binding in each importer, so :meth:`LayerTracer.install` rebinds the wrapper
at every ``repro.*`` module attribute that holds the original object, not
only in the defining module.  Methods are replaced on their class.

Each wrapper records a span ``(name, start, duration, depth)`` in memory and
accumulates calls and *self* time: the span's duration minus the time its
wrapped children covered.  Only calls inside a root span opened by the
benchmark loop (one operation, e.g. an ITE step) are attributed.
The root span's own self time is the ``benchmark.unattributed`` remainder,
so the layer self times plus that remainder add up to the traced wall time
exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Root span name (one benchmark operation) and its remainder metric.
ROOT = "benchmark.op"
UNATTRIBUTED = "benchmark.unattributed"

#: ``(metric prefix, module, attribute path, batch-of-result)``.  The last
#: entry, when set, maps a call's return value to the number of work items it
#: covered (a lockstep call advances a whole batch of shots at once), so the
#: coverage cross-check can compare against the program's own item counters.
Target = Tuple[str, str, str, Optional[Callable[[Any], int]]]


def _leading_batch(result) -> int:
    """Batch size of a batched row: the leading axis of its first tensor."""
    return int(result[0].shape[0])


def _leading_batch_of_first(result) -> int:
    """Batch size of a ``(row, n_calls)`` pair returned by batched CTM code."""
    return int(result[0][0].shape[0])


#: The layer functions the in-process workloads report.  ``peps.update`` is
#: entered through ``PEPS.apply_operator``; ``peps.envs.normalize`` through the
#: in-place ``PEPS.normalize_`` that ITE calls every step.
COMPUTE_TARGETS: List[Target] = [
    ("tensornetwork.contract_network", "repro.tensornetwork.network", "contract_network", None),
    ("tensornetwork.einsumsvd", "repro.tensornetwork.einsumsvd", "einsumsvd", None),
    ("backends.einsum", "repro.backends.numpy_backend", "NumPyBackend.einsum", None),
    ("backends.einsum_batched", "repro.backends.numpy_backend", "NumPyBackend.einsum_batched", None),
    ("backends.svd", "repro.backends.numpy_backend", "NumPyBackend.svd", None),
    ("backends.qr", "repro.backends.numpy_backend", "NumPyBackend.qr", None),
    ("backends.eigh", "repro.backends.numpy_backend", "NumPyBackend.eigh", None),
    ("linalg.randomized_svd", "repro.linalg.randomized_svd", "randomized_svd", None),
    ("linalg.truncated_svd", "repro.linalg.truncated_svd", "truncated_svd", None),
    ("linalg.tensor_qr", "repro.linalg.orthogonalize", "tensor_qr", None),
    ("peps.update.apply_operator", "repro.peps.peps", "PEPS.apply_operator", None),
    ("peps.contraction.absorb_row", "repro.peps.contraction.two_layer", "absorb_sandwich_row", None),
    (
        "peps.contraction.absorb_row_batched",
        "repro.peps.contraction.two_layer",
        "absorb_sandwich_row_batched",
        _leading_batch,
    ),
    ("peps.envs.expectation", "repro.peps.envs.boundary", "BoundaryEnvironment.expectation", None),
    ("peps.envs.normalize", "repro.peps.peps", "PEPS.normalize_", None),
    ("peps.envs.sample", "repro.peps.envs.boundary", "BoundaryEnvironment.sample", None),
    ("peps.envs.ctm_renormalize", "repro.peps.envs.ctm", "ctm_renormalize", None),
    (
        "peps.envs.ctm_renormalize_batched",
        "repro.peps.envs.ctm",
        "ctm_renormalize_batched",
        _leading_batch_of_first,
    ),
]

#: The checkpoint io functions the sweep workload's restore/rewrite leg
#: reports.  A restore is ``load_checkpoint`` -> ``open_payload_store`` ->
#: ``peps_from_dict``; a write is ``peps_to_dict`` -> ``write_checkpoint``.
IO_TARGETS: List[Target] = [
    ("sim.io.write_checkpoint", "repro.sim.io", "write_checkpoint", None),
    ("sim.io.peps_to_dict", "repro.sim.io", "peps_to_dict", None),
    ("sim.io.load_checkpoint", "repro.sim.io", "load_checkpoint", None),
    ("sim.io.open_payload_store", "repro.sim.io", "open_payload_store", None),
    ("sim.io.peps_from_dict", "repro.sim.io", "peps_from_dict", None),
]


class _Stat:
    __slots__ = ("calls", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.items = 0


class LayerTracer:
    """Timing wrappers, span buffer and per-function self-time totals."""

    def __init__(self, targets: List[Target]) -> None:
        self.targets = targets
        self.stats: Dict[str, _Stat] = {name: _Stat() for name, *_ in targets}
        self.root = _Stat()
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable, batch_of: Optional[Callable[[Any], int]]) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a benchmark operation: not attributed
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += duration - frame[0]
                stack[-1][0] += duration
                spans.append((name, start, duration, len(stack)))
            stat.items += batch_of(result) if batch_of is not None else 1
            return result

        return wrapper

    def op(self) -> "_RootSpan":
        """The root span of one benchmark operation (``with tracer.op(): ...``)."""
        return _RootSpan(self)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Rebind every target's wrapper at its definition and import sites."""
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for name, module_name, path, batch_of in self.targets:
            owner: Any = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, batch_of)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            # Module-level function: rebind it in every importer too.
            for module in list(sys.modules.values()):
                module_dict = getattr(module, "__dict__", None)
                if module is owner or module_dict is None:
                    continue
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(module_dict.items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "self_s", "items"}}`` including the remainder."""
        out = {
            name: {"calls": stat.calls, "self_s": stat.self_s, "items": stat.items}
            for name, stat in self.stats.items()
        }
        out[UNATTRIBUTED] = {
            "calls": self.root.calls,
            "self_s": self.root.self_s,
            "items": self.root.calls,
        }
        return out

    def wall_s(self) -> float:
        """Total duration of the root spans: the traced wall time."""
        return sum(duration for name, _, duration, _ in self.spans if name == ROOT)

    def write_chrome_trace(self, path: str) -> str:
        """Write the spans as Chrome trace-event JSON (open in Perfetto)."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - self._epoch) * 1e6,
                "dur": duration * 1e6,
                "pid": pid,
                "tid": depth,
            }
            for name, start, duration, depth in self.spans
        ]
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle, separators=(",", ":"))
        os.replace(tmp, path)
        return path


class _RootSpan:
    __slots__ = ("_tracer", "_frame", "_start")

    def __init__(self, tracer: LayerTracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> "_RootSpan":
        if self._tracer._stack:
            raise RuntimeError("benchmark operation spans cannot nest")
        self._frame = [0.0]
        self._tracer._stack.append(self._frame)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        tracer._stack.pop()
        tracer.root.calls += 1
        tracer.root.self_s += duration - self._frame[0]
        tracer.spans.append((ROOT, self._start, duration, 0))
