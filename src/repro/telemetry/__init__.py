"""Unified telemetry: metrics registry, span tracing, and report rendering.

Three pieces, one import point:

* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` (named
  counters/gauges/histograms with labels and snapshot/delta), plus the
  process-global :data:`REGISTRY` behind the module-level PEPS counters.
* :mod:`repro.telemetry.trace` — span tracing (:func:`span` context manager,
  :func:`traced` decorator, the global :data:`TRACER`) emitting Chrome
  trace-event JSON viewable in Perfetto.
* :mod:`repro.telemetry.report` — pure renderers behind
  ``python -m repro.sim report`` (run/sweep/trace summaries and the
  cross-``BENCH_*.json`` perf-trajectory view).

See ``docs/observability.md`` for the metric catalog and span naming
conventions.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.telemetry.trace import TRACER, Tracer, span, traced
from repro.telemetry import trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "TRACER",
    "Tracer",
    "span",
    "traced",
    "trace",
    "global_snapshot",
]


def global_snapshot():
    """Snapshot the global registry *plus* the einsum and network plan-cache stats.

    The NumPy backend's einsum path/flops caches and the ``contract_network``
    plan cache are ``functools.lru_cache`` objects; their hit/miss counts are read here on demand (as gauges —
    ``lru_cache`` owns the counters, the registry only mirrors them), so one
    call captures every process-global counter in the library.
    """
    from repro.backends import numpy_backend

    for cache_name, stats in numpy_backend.path_cache_stats().items():
        for field in ("hits", "misses"):
            REGISTRY.gauge(f"einsum.{cache_name}_cache_{field}").set(stats[field])
    return REGISTRY.snapshot()
