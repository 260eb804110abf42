"""Sequential/threaded tensor backend built on NumPy.

This backend operates directly on :class:`numpy.ndarray` objects.  It is the
reference implementation of the :class:`~repro.backends.interface.Backend`
protocol and the one used for all accuracy studies; ``reshape`` and
``transpose`` are (nearly) free here, in contrast with the distributed
backend where they imply data redistribution.

An optional :class:`~repro.utils.flops.FlopCounter` can be attached so that
algorithmic cost can be measured independently of wall-clock noise (used by
the Table II benchmark).
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Any, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from repro.backends.interface import (
    Backend,
    parse_batched_subscripts,
    rewrite_batched_subscripts,
)
from repro.telemetry.trace import TRACER as _TRACER
from repro.utils.flops import (
    FlopCounter,
    eigh_flops,
    qr_flops,
    svd_flops,
)
from repro.utils.rng import SeedLike, ensure_rng

try:
    # The per-step kernels ``np.einsum`` runs for an optimized path: batched
    # matmul for pairs, the C einsum otherwise.  Releases without them
    # (contracting pairs through ``tensordot``) take the ``np.einsum`` route.
    from numpy._core.einsumfunc import bmm_einsum, c_einsum

    _KERNELS: Optional[Tuple[Any, Any]] = (bmm_einsum, c_einsum)
except ImportError:  # pragma: no cover - depends on the NumPy release
    _KERNELS = None


class NumPyBackend(Backend):
    """Backend implementation over plain :class:`numpy.ndarray` tensors."""

    name = "numpy"

    def __init__(self, flop_counter: Optional[FlopCounter] = None) -> None:
        self.flop_counter = flop_counter

    # ------------------------------------------------------------------ #
    # Creation and conversion
    # ------------------------------------------------------------------ #
    def astensor(self, data: Any, dtype: Optional[np.dtype] = None) -> np.ndarray:
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return arr

    def asarray(self, tensor: np.ndarray) -> np.ndarray:
        return np.asarray(tensor)

    def zeros(self, shape: Sequence[int], dtype: np.dtype = np.complex128) -> np.ndarray:
        return np.zeros(tuple(shape), dtype=dtype)

    def ones(self, shape: Sequence[int], dtype: np.dtype = np.complex128) -> np.ndarray:
        return np.ones(tuple(shape), dtype=dtype)

    def eye(self, n: int, dtype: np.dtype = np.complex128) -> np.ndarray:
        return np.eye(n, dtype=dtype)

    def random_uniform(
        self,
        shape: Sequence[int],
        low: float = -1.0,
        high: float = 1.0,
        rng: SeedLike = None,
        dtype: np.dtype = np.complex128,
    ) -> np.ndarray:
        rng = ensure_rng(rng)
        shape = tuple(shape)
        if np.issubdtype(np.dtype(dtype), np.complexfloating):
            data = rng.uniform(low, high, shape) + 1j * rng.uniform(low, high, shape)
        else:
            data = rng.uniform(low, high, shape)
        return np.asarray(data, dtype=dtype)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, tensor: np.ndarray, shape: Sequence[int]) -> np.ndarray:
        return np.reshape(tensor, tuple(shape))

    def transpose(self, tensor: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        return np.transpose(tensor, tuple(axes))

    def conj(self, tensor: np.ndarray) -> np.ndarray:
        return np.conj(tensor)

    def copy(self, tensor: np.ndarray) -> np.ndarray:
        return np.array(tensor, copy=True)

    # ------------------------------------------------------------------ #
    # Contraction and algebra
    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        shapes = tuple(tuple(int(s) for s in op.shape) for op in operands)
        plan = _cached_einsum_path(subscripts, shapes)
        # Hottest call site in the library: the explicit `active` guard keeps
        # the disabled-tracing path free of even the span-argument dict.
        if _TRACER.active:
            with _TRACER.span("einsum", subscripts=subscripts):
                result = _run_einsum(subscripts, operands, plan)
        else:
            result = _run_einsum(subscripts, operands, plan)
        if self.flop_counter is not None:
            flops = _cached_einsum_flops(subscripts, shapes)
            if flops is None:
                # Subscripts outside the lightweight parser's grammar
                # (e.g. ellipsis): fall back to a crude volume bound.
                volume = float(np.prod([max(op.size, 1) for op in operands]))
                flops = 8.0 * volume
            self.flop_counter.add("einsum", flops)
        return result

    def einsum_batched(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        """One fused einsum over the whole batch with a cached plan.

        Operands whose batch axis has size 1 are squeezed and treated as
        unbatched (the path planner then sees them as shared factors instead
        of broadcast copies); the rest share one extra batch label.  The
        rewritten subscripts reuse the same LRU plan cache as :meth:`einsum`,
        so lockstep hot loops plan each (subscripts, shapes) combination once.
        """
        shapes = [tuple(int(s) for s in op.shape) for op in operands]
        _, _, batch_dims, batch = parse_batched_subscripts(subscripts, shapes)
        if batch == 1:
            squeezed = [op.reshape(op.shape[1:]) for op in operands]
            result = self.einsum(subscripts, *squeezed)
            return result[np.newaxis, ...]
        batched_subscripts, _ = rewrite_batched_subscripts(subscripts, batch_dims)
        ops = [
            op.reshape(op.shape[1:]) if dim == 1 else op
            for op, dim in zip(operands, batch_dims)
        ]
        op_shapes = tuple(tuple(int(s) for s in op.shape) for op in ops)
        plan = _cached_einsum_path(batched_subscripts, op_shapes)
        if _TRACER.active:
            with _TRACER.span(
                "einsum_batched", subscripts=subscripts, batch=batch
            ):
                result = _run_einsum(batched_subscripts, ops, plan)
        else:
            result = _run_einsum(batched_subscripts, ops, plan)
        if self.flop_counter is not None:
            flops = _cached_einsum_flops(batched_subscripts, op_shapes)
            if flops is None:
                volume = float(np.prod([max(op.size, 1) for op in ops]))
                flops = 8.0 * volume
            self.flop_counter.add("einsum_batched", flops)
        return result

    def tensordot(self, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
        result = np.tensordot(a, b, axes=axes)
        if self.flop_counter is not None:
            axes_a, axes_b = _normalize_tensordot_axes(a.ndim, axes)
            k = int(np.prod([a.shape[ax] for ax in axes_a])) if axes_a else 1
            m = a.size // max(k, 1)
            n = b.size // max(k, 1)
            self.flop_counter.add("tensordot", 8.0 * m * k * n)
        return result

    def norm(self, tensor: np.ndarray) -> float:
        return float(np.linalg.norm(np.ravel(tensor)))

    def item(self, tensor: np.ndarray) -> complex:
        arr = np.asarray(tensor)
        if arr.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {arr.shape}")
        return complex(arr.reshape(()))

    # ------------------------------------------------------------------ #
    # Dense factorizations
    # ------------------------------------------------------------------ #
    def svd(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"svd expects a matrix, got ndim={matrix.ndim}")
        try:
            u, s, vh = scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesdd")
        except np.linalg.LinAlgError:  # pragma: no cover - rare LAPACK failure
            u, s, vh = scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")
        if self.flop_counter is not None:
            self.flop_counter.add("svd", svd_flops(*matrix.shape))
        return u, s, vh

    def qr(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"qr expects a matrix, got ndim={matrix.ndim}")
        q, r = np.linalg.qr(matrix, mode="reduced")
        if self.flop_counter is not None:
            self.flop_counter.add("qr", qr_flops(*matrix.shape))
        return q, r

    def eigh(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"eigh expects a square matrix, got shape {matrix.shape}")
        w, v = np.linalg.eigh(matrix)
        if self.flop_counter is not None:
            self.flop_counter.add("eigh", eigh_flops(matrix.shape[0]))
        return w, v

    # ------------------------------------------------------------------ #
    # Local <-> "distributed" movement (trivial here)
    # ------------------------------------------------------------------ #
    def to_local(self, tensor: np.ndarray) -> np.ndarray:
        return np.asarray(tensor)

    def from_local(self, array: np.ndarray, dtype: Optional[np.dtype] = None) -> np.ndarray:
        return self.astensor(array, dtype=dtype)


#: Zero-storage scalar whose broadcast views stand in for real operands when
#: planning contraction paths (``einsum_path`` only inspects shapes).
_PATH_PROBE = np.empty((), dtype=np.complex128)


@lru_cache(maxsize=4096)
def _cached_einsum_path(subscripts: str, shapes: Tuple[Tuple[int, ...], ...]):
    """Contraction plan for ``(subscripts, shapes)``, made once and reused.

    The einsum calls inside the boundary-contraction hot loops repeat the same
    few subscript/shape combinations thousands of times; re-planning the path
    on every call (``optimize=True``) is measurable overhead, and so is the
    contraction list ``np.einsum`` re-derives from even an explicit path.

    The path is NumPy's greedy path with no memory cap.  By default
    ``einsum_path`` caps every intermediate at the size of the largest
    operand; where that cap binds, greedy stops early and leaves the rest to
    one multi-operand C einsum loop without BLAS.  That is what the batched
    lockstep-sampling contractions hit: their batch axis makes the natural
    pairwise intermediates larger than any single operand.  The limit must be
    an integer: NumPy casts it to ``int``, so ``float("inf")`` would raise.

    Returns ``(path, steps)``: the greedy path and the contraction list NumPy
    derives from it as ``((positions, step_subscripts), ...)``.  ``steps`` is
    ``None`` when this NumPy lacks the per-step kernels or the planner
    rejected the subscripts; :func:`_run_einsum` then calls ``np.einsum``.
    """
    probes = [np.broadcast_to(_PATH_PROBE, shape) for shape in shapes]
    try:
        path = np.einsum_path(subscripts, *probes, optimize=("greedy", sys.maxsize))[0]
    except Exception:
        # Exotic subscripts the planner rejects: let numpy decide per call.
        return True, None
    if _KERNELS is None:
        return path, None
    _, contraction = np.einsum_path(subscripts, *probes, optimize=path, einsum_call=True)
    return path, tuple((positions, step) for positions, step, _ in contraction)


def _run_einsum(subscripts: str, operands: Sequence[np.ndarray], plan) -> np.ndarray:
    """``np.einsum(subscripts, *operands, optimize=path)`` from a cached plan.

    With recorded steps, replays them on the kernels ``np.einsum`` itself
    would call, in its order, so results are bitwise identical without
    re-deriving the contraction list.
    """
    path, steps = plan
    if steps is None:
        return np.einsum(subscripts, *operands, optimize=path)
    bmm, single = _KERNELS
    operands = list(operands)
    for positions, step in steps:
        args = [operands.pop(x) for x in positions]
        operands.append(bmm(step, *args) if len(args) == 2 else single(step, *args))
    return operands[0]


@lru_cache(maxsize=4096)
def _cached_einsum_flops(
    subscripts: str, shapes: Tuple[Tuple[int, ...], ...]
) -> Optional[float]:
    """Greedy-path flop estimate for the flop counter, cached like the path.

    Returns ``None`` for subscripts the lightweight parser cannot handle.
    """
    # Deferred import: the contraction-path module lives above the backend
    # layer in the package graph.
    from repro.tensornetwork.contraction_path import find_path
    from repro.tensornetwork.einsum_spec import parse_einsum

    try:
        spec = parse_einsum(subscripts, n_operands=len(shapes))
        info = find_path(spec, list(shapes), strategy="greedy")
        return float(info.total_flops)
    except ValueError:
        return None


def _plan_caches() -> dict:
    # Deferred import: the network contractor lives above the backend layer.
    from repro.tensornetwork.network import _plan

    return {"path": _cached_einsum_path, "flops": _cached_einsum_flops, "network": _plan}


def path_cache_stats() -> dict:
    """Hit/miss/size counters of the einsum path, flop-estimate and network plan caches.

    ``"path"`` counts one lookup per ``einsum``/``einsum_batched`` call and
    ``"network"`` one per ``contract_network`` call.  Benchmarks read these
    to report how well repeated hot-loop contractions amortize their
    planning (a lockstep sampler should show almost-all hits after the first
    site of the first row).
    """
    stats = {}
    for name, cache in _plan_caches().items():
        info = cache.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return stats


def clear_path_caches() -> None:
    """Drop every cached einsum path, flop estimate and network plan (and their counters).

    Call between benchmark measurements so path-planning cost and cache-hit
    counts are attributed to the measured phase, reproducibly across runs.
    """
    for cache in _plan_caches().values():
        cache.cache_clear()


def _normalize_tensordot_axes(ndim_a: int, axes) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Normalize NumPy tensordot ``axes`` into explicit axis tuples."""
    if isinstance(axes, int):
        axes_a = tuple(range(ndim_a - axes, ndim_a))
        axes_b = tuple(range(axes))
        return axes_a, axes_b
    axes_a, axes_b = axes
    if isinstance(axes_a, int):
        axes_a = (axes_a,)
    if isinstance(axes_b, int):
        axes_b = (axes_b,)
    return tuple(axes_a), tuple(axes_b)
