"""Unified observability: metrics registry, trace spans, logging, exposition.

The layer absorbs the serving stack's ad-hoc counters (``/stats`` dicts,
fault-injection tallies, loadgen percentiles)
behind one process-local :class:`~repro.obs.metrics.MetricsRegistry`,
records deterministic trace spans into a crash flight recorder
(:mod:`repro.obs.trace`), and exposes everything as Prometheus text via
``GET /metrics`` (:mod:`repro.obs.prom`).  Everything is off by default
and free when off: recording is a single ``enabled`` check, so the
deterministic-replay guarantees hold bit-for-bit with observability on or
off.
"""

from repro.obs.logging import (
    LOG_LEVELS,
    JsonLinesFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_SECONDS,
    REGISTRY,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_snapshot,
    merge_snapshots,
)
from repro.obs.prom import flatten_snapshot, parse_text, render_snapshot
from repro.obs.trace import (
    TRACER,
    FlightRecorder,
    Tracer,
    configure_tracer,
    crash_dump_scope,
    span_id,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonLinesFormatter",
    "LATENCY_BUCKETS_SECONDS",
    "LOG_LEVELS",
    "MetricsRegistry",
    "REGISTRY",
    "SIZE_BUCKETS",
    "TRACER",
    "Tracer",
    "aggregate_snapshot",
    "configure_logging",
    "configure_tracer",
    "crash_dump_scope",
    "flatten_snapshot",
    "get_logger",
    "merge_snapshots",
    "parse_text",
    "render_snapshot",
    "span_id",
]
