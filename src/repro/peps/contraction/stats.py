"""Global work counters for PEPS boundary contractions.

One *row absorption* — absorbing a lattice row into a boundary MPS, whether
as a two-layer ``<psi|psi>`` sandwich row or as a single-layer MPO
application — is the dominant cost unit of every PEPS contraction.  The
counter lets tests and benchmarks compare algorithm variants by the number of
absorptions they perform instead of wall-clock noise (e.g. that an ITE sweep
holding one persistent environment performs strictly fewer absorptions than
per-step rebuilds).

A *CTM move* is the corner-transfer-matrix counterpart: one directional
absorption of a lattice row into an edge-tensor boundary, truncated with
corner-Gram projectors (see :mod:`repro.peps.envs.ctm`).  Every CTM move also
counts as one row absorption, so the shared ``row_absorptions`` counter stays
comparable across environment implementations.

A *batched contraction* is one lockstep ``einsum_batched`` call covering a
whole shot batch (see :mod:`repro.peps.envs.sampling`); a *strip cache hit*
(resp. *miss*) is one observable term served from an already-built (resp.
forcing a build of a) column environment of a row strip (see
:class:`repro.peps.envs.strip.StripCache`).  These measure how much per-item
work the batched contraction engine amortizes.

The counters live in the process-global
:data:`repro.telemetry.REGISTRY` under ``peps.*`` names; the functions here
are the stable module API over it.  :func:`reset_all` starts a measurement
window.
"""

from __future__ import annotations

from repro.telemetry.metrics import REGISTRY

_ROW_ABSORPTIONS = REGISTRY.counter("peps.row_absorptions")
_CTM_MOVES = REGISTRY.counter("peps.ctm_moves")
_BATCHED_CONTRACTIONS = REGISTRY.counter("peps.batched_contractions")
_STRIP_CACHE_HITS = REGISTRY.counter("peps.strip_cache_hits")
_STRIP_CACHE_MISSES = REGISTRY.counter("peps.strip_cache_misses")


def count_row_absorption(n: int = 1) -> None:
    """Record ``n`` boundary row absorptions."""
    _ROW_ABSORPTIONS.add(n)


def absorption_count() -> int:
    """Total row absorptions (two-layer sandwich and single-layer MPO) since reset."""
    return _ROW_ABSORPTIONS.value


def count_ctm_move(n: int = 1) -> None:
    """Record ``n`` corner-transfer-matrix moves."""
    _CTM_MOVES.add(n)


def ctm_move_count() -> int:
    """Total CTM moves (directional corner/edge absorptions) since reset."""
    return _CTM_MOVES.value


def count_batched_contraction(n: int = 1) -> None:
    """Record ``n`` lockstep ``einsum_batched`` calls."""
    _BATCHED_CONTRACTIONS.add(n)


def batched_contraction_count() -> int:
    """Total lockstep batched contractions since reset."""
    return _BATCHED_CONTRACTIONS.value


def count_strip_cache_hit(n: int = 1) -> None:
    """Record ``n`` strip-environment cache hits."""
    _STRIP_CACHE_HITS.add(n)


def strip_cache_hit_count() -> int:
    """Total observable terms served from cached strip column environments."""
    return _STRIP_CACHE_HITS.value


def count_strip_cache_miss(n: int = 1) -> None:
    """Record ``n`` strip-environment cache misses (column environments built)."""
    _STRIP_CACHE_MISSES.add(n)


def strip_cache_miss_count() -> int:
    """Total observable terms that forced a strip column-environment build."""
    return _STRIP_CACHE_MISSES.value


def reset_all() -> None:
    """Zero every global counter (this module's and any other registry metric).

    The one reset to call at the start of a measurement window; it cannot
    fall out of date when a new counter is added.
    """
    REGISTRY.reset()
