"""Unified observability for the reproduction pipeline.

Zero-dependency tracing + metrics, wired through every hot path:

* :mod:`repro.obs.trace` — hierarchical :class:`Span`\\ s (context manager
  and decorator, monotonic clocks, per-process buffers) exported as
  Chrome trace-event JSON (``--trace trace.json``; open in Perfetto or
  ``chrome://tracing``).  Off by default; no-op spans cost one predicate.
* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry`
  of counters/gauges/histograms that absorbs the engine cache stats,
  artifact-cache accounting, retry/backoff scheduling, fault injections,
  and simulator activity counters under one namespace; worker snapshots
  merge into the parent and land in the run manifest (schema v3).
* :mod:`repro.obs.report` — the ``repro-obs report`` CLI (and the
  runner's ``--metrics`` flag): self-time breakdowns per layer, network,
  and experiment plus cache/retry summaries from any saved manifest.
* :mod:`repro.obs.timeseries` — the live telemetry plane: windowed
  per-source aggregation of metric deltas (pulled from shards, or
  local sampler ticks) with high-watermark gauges.
* :mod:`repro.obs.slo` — declared latency/error/shed objectives,
  evaluated into ``slo.*`` gauges and burn-rate counters.
* :mod:`repro.obs.expo` — Prometheus text exposition of any snapshot
  (histogram buckets straight from the quantile sketch) plus a linter.

Instrumentation never perturbs results: spans and metrics only observe,
and the golden-snapshot tests pin byte-identical output with tracing on
and off.
"""

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    counter_add,
    gauge_max,
    gauge_set,
    get_metrics,
    merge_snapshot,
    observe,
    reset_metrics,
    sketch_boundary,
    sketch_index,
    take_snapshot,
)
from repro.obs.trace import (
    Span,
    disable_tracing,
    drain_events,
    enable_tracing,
    event_count,
    extend_events,
    reset_tracing,
    span,
    traced,
    tracing_enabled,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Span",
    "span",
    "traced",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "reset_tracing",
    "drain_events",
    "extend_events",
    "event_count",
    "write_chrome_trace",
    "validate_chrome_trace",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
    "counter_add",
    "gauge_set",
    "gauge_max",
    "observe",
    "take_snapshot",
    "merge_snapshot",
    "sketch_index",
    "sketch_boundary",
]
