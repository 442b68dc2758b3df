"""Windowed telemetry time series: per-source rolling metric windows.

The aggregation half of the live telemetry plane.  Metric *deltas* —
:func:`repro.obs.take_snapshot` payloads, which are deltas by
construction because the snapshot resets the registry — arrive from
several sources (the router's periodic ``op: obs`` pulls of shard
processes, or a local sampler diffing the in-process registry) and land
in a :class:`TelemetryPlane`:

* **per-source cumulative** registries (one
  :class:`~repro.obs.metrics.MetricsRegistry` per source, so "p99 on
  shard 3 right now" is one histogram-quantile read);
* a **ring buffer** of timestamped deltas, merged on demand into a
  rolling *window* snapshot (throughput and quantiles over the last N
  seconds rather than since boot);
* **high-watermark gauges**: the maximum every gauge ever stated,
  tracked across all deltas (``serve.queue_depth`` may read 0 at every
  scrape while having spiked to the queue limit between them).

Each delta is ingested once, by whoever took it.  Ingestion never
touches request bytes or the serving hot path — the plane is fed
entirely from control-socket replies and sampler ticks.

:func:`snapshot_delta` is the local-sampler companion: given two
*cumulative* snapshots of the same registry it returns the delta
payload between them (counters and sketch buckets subtract exactly;
gauges restate; min/max degrade to the cumulative extremes, which is
the documented approximation for locally sampled windows).
"""

from __future__ import annotations

import time
from collections import deque

from repro.obs.metrics import MetricsRegistry

__all__ = ["TelemetryPlane", "snapshot_delta"]


def snapshot_delta(previous: dict, current: dict) -> dict:
    """Delta payload between two cumulative snapshots of one registry.

    Counters and histogram counts/totals/buckets subtract (they are
    monotonic within a process); gauges carry the current statement.
    Histogram ``min``/``max`` cannot be recovered for the interval, so
    the cumulative extremes stand in — windows built from locally
    sampled deltas have exact counts, totals, and quantile buckets, and
    conservative (whole-run) extremes.
    """
    prev_counters = previous.get("counters", {})
    delta_counters = {}
    for name, value in current.get("counters", {}).items():
        moved = value - prev_counters.get(name, 0.0)
        if moved:
            delta_counters[name] = moved
    prev_histograms = previous.get("histograms", {})
    delta_histograms = {}
    for name, payload in current.get("histograms", {}).items():
        before = prev_histograms.get(name, {})
        moved = int(payload.get("count", 0)) - int(before.get("count", 0))
        if moved <= 0:
            continue
        prev_buckets = before.get("buckets") or {}
        buckets = {}
        for key, count in (payload.get("buckets") or {}).items():
            grew = int(count) - int(prev_buckets.get(key, 0))
            if grew > 0:
                buckets[key] = grew
        delta_histograms[name] = {
            "count": moved,
            "total": (
                float(payload.get("total", 0.0))
                - float(before.get("total", 0.0))
            ),
            "min": payload.get("min", 0.0),
            "max": payload.get("max", 0.0),
            "buckets": buckets,
        }
    return {
        "pid": current.get("pid"),
        "counters": delta_counters,
        "gauges": dict(current.get("gauges", {})),
        "histograms": delta_histograms,
    }


class TelemetryPlane:
    """Rolling multi-source aggregation of metric deltas."""

    def __init__(
        self,
        window_s: float = 60.0,
        max_points: int = 512,
        clock=time.monotonic,
    ):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        self._clock = clock
        self._ring: deque = deque(maxlen=max_points)
        self._cumulative: dict[str, MetricsRegistry] = {}
        self._last_seen: dict[str, float] = {}
        self._local: set[str] = set()
        self._watermarks: dict[str, float] = {}
        self.ingested = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, source: str, delta: dict, local: bool = False) -> None:
        """Fold one delta from ``source`` in."""
        if not delta:
            return
        registry = self._cumulative.get(source)
        if registry is None:
            registry = self._cumulative[source] = MetricsRegistry()
        registry.merge_snapshot(delta)
        if local:
            self._local.add(source)
        now = self._clock()
        self._last_seen[source] = now
        self._ring.append((now, source, delta))
        for name, value in delta.get("gauges", {}).items():
            if value > self._watermarks.get(name, float("-inf")):
                self._watermarks[name] = float(value)
        self.ingested += 1
        self._trim(now)

    def _trim(self, now: float) -> None:
        # Keep one window (plus whatever maxlen already bounded).
        horizon = now - self.window_s
        while self._ring and self._ring[0][0] < horizon:
            self._ring.popleft()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def sources(self) -> list[str]:
        return sorted(self._cumulative)

    def is_local(self, source: str) -> bool:
        return source in self._local

    def last_seen_age_s(self, source: str) -> float | None:
        seen = self._last_seen.get(source)
        return None if seen is None else max(0.0, self._clock() - seen)

    def source_snapshot(self, source: str) -> dict:
        registry = self._cumulative.get(source)
        return registry.snapshot() if registry is not None else {}

    def totals(self) -> dict:
        """Cumulative snapshot merged across every source."""
        merged = MetricsRegistry()
        for source in self.sources():
            merged.merge_snapshot(self._cumulative[source].snapshot())
        return merged.snapshot()

    def window(self, window_s: float | None = None) -> tuple[float, dict]:
        """(span seconds, merged snapshot) of the deltas inside the
        rolling window — the "right now" view the admin endpoint serves."""
        window_s = self.window_s if window_s is None else float(window_s)
        now = self._clock()
        horizon = now - window_s
        merged = MetricsRegistry()
        oldest = None
        for stamp, _, delta in self._ring:
            if stamp < horizon:
                continue
            if oldest is None:
                oldest = stamp
            merged.merge_snapshot(delta)
        span = 0.0 if oldest is None else max(1e-9, now - oldest)
        return span, merged.snapshot()

    def watermarks(self) -> dict:
        return dict(self._watermarks)

    # ------------------------------------------------------------------
    # hand-off
    # ------------------------------------------------------------------
    def fold_into(self, registry: MetricsRegistry) -> int:
        """Merge every *remote* source's cumulative metrics into
        ``registry`` (the process-global one, at stop) so pulled deltas
        end up in the final report exactly once.  Local sources are
        skipped — their deltas were sampled *from* that registry.
        Returns the number of sources folded."""
        folded = 0
        for source in self.sources():
            if source in self._local:
                continue
            registry.merge_snapshot(self._cumulative[source].snapshot())
            folded += 1
        return folded
