"""Live telemetry controller: local sampling, SLO evaluation, stats.

Glue between the metrics registry, the
:class:`~repro.obs.timeseries.TelemetryPlane`, and whatever wants a
live view (the admin endpoint, ``repro-serve top``, tests):

* a **local sampler** tick (``interval_s``) diffs the process-global
  registry against its previous snapshot
  (:func:`~repro.obs.timeseries.snapshot_delta`) and ingests the delta
  into the plane under a *local* source name — the router/service's own
  counters get the same windowed treatment the pulled shard deltas
  get, and the plane knows not to fold them back at stop (they were
  sampled *from* the registry being folded into);
* an **SLO recorder**: each tick re-evaluates the declared objectives
  (:class:`~repro.obs.slo.SloTracker`) against the plane's merged
  totals and writes ``slo.*`` gauges/breach counters into the global
  registry, so SLO state rides into the run manifest for free;
* the **stats payload**: one JSON-safe dict with per-source latency
  digests (p50/p95/p99 straight from the quantile sketch), the rolling
  window view, gauge high watermarks, SLO statuses, and the router
  health picture — everything the admin endpoint serves and CI asserts
  on.

Stop ordering matters: :meth:`TelemetryController.stop` (which takes a
final local sample) must run *before* the service's own ``stop()``.
That ``stop()`` ends the router's periodic ``op: obs`` pulls, makes
one last pull straight into the global registry, then folds the shard
deltas the plane holds into it — a local sample taken after that would
re-count the shard totals as "local" work.  The CLI owns both calls and
keeps them in that order.
"""

from __future__ import annotations

import asyncio
import time

from repro import obs
from repro.obs.expo import render_prometheus
from repro.obs.metrics import Histogram
from repro.obs.slo import SloTracker, default_serving_objectives
from repro.obs.timeseries import TelemetryPlane, snapshot_delta

__all__ = ["TelemetryController", "latency_digest"]

#: Histograms the stats payload digests into percentiles, in the order
#: they are preferred as "the" latency series for a source.
_LATENCY_SERIES = ("serve.latency_ms", "router.forward_ms")


def latency_digest(snapshot: dict, name: str | None = None) -> dict | None:
    """p50/p95/p99 (+count/mean/max) of a snapshot's latency histogram."""
    histograms = snapshot.get("histograms", {})
    names = (name,) if name else _LATENCY_SERIES
    for candidate in names:
        payload = histograms.get(candidate)
        if payload and int(payload.get("count", 0)) > 0:
            histogram = Histogram.from_dict(payload)
            digest = histogram.percentiles()
            digest["count"] = histogram.count
            digest["mean"] = round(histogram.mean, 3)
            digest["max"] = round(histogram.max, 3)
            digest["series"] = candidate
            return digest
    return None


class TelemetryController:
    """Samples the local registry into a plane and serves live views."""

    def __init__(
        self,
        plane: TelemetryPlane | None = None,
        interval_s: float = 1.0,
        source: str = "local",
        objectives=None,
        registry=None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.plane = plane if plane is not None else TelemetryPlane()
        self.interval_s = float(interval_s)
        self.source = source
        self.registry = registry if registry is not None else obs.get_metrics()
        self.tracker = SloTracker(
            objectives if objectives is not None
            else default_serving_objectives()
        )
        # Empty baseline: the first sample carries everything recorded
        # before telemetry started, so plane totals match the registry.
        self._previous: dict = {}
        self._task: asyncio.Task | None = None
        self._started_at = time.perf_counter()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_local(self) -> dict:
        """One sampler tick: diff, ingest, re-evaluate SLOs."""
        current = self.registry.snapshot()
        delta = snapshot_delta(self._previous, current)
        self._previous = current
        self.plane.ingest(self.source, delta, local=True)
        self.tracker.record(self.plane.totals(), self.registry)
        return delta

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            self.sample_local()

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("telemetry controller already started")
        self._started_at = time.perf_counter()
        self.sample_local()
        self._task = asyncio.create_task(self._loop())

    async def stop(self) -> None:
        """Final sample + loop teardown.  Call *before* the service's
        own stop() folds remote telemetry into the registry."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self.sample_local()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def slo_statuses(self) -> list[dict]:
        return [
            status.to_dict()
            for status in self.tracker.evaluate(self.plane.totals())
        ]

    def health(self) -> dict:
        totals = self.plane.totals()
        counters = totals.get("counters", {})
        gauges = totals.get("gauges", {})
        shard_sources = [
            source for source in self.plane.sources()
            if not self.plane.is_local(source)
        ]
        return {
            "live_shards": int(gauges.get("router.live_shards", 0)),
            "deaths": int(counters.get("router.deaths", 0)),
            "respawns": int(counters.get("router.respawns", 0)),
            "quarantines": int(counters.get("integrity.quarantines", 0)),
            "reporting_shards": len(shard_sources),
        }

    def stats(self) -> dict:
        """The admin ``/stats`` payload (samples first, for freshness)."""
        self.sample_local()
        totals = self.plane.totals()
        span, window = self.plane.window()
        window_ok = window.get("counters", {}).get("serve.completed", 0.0)
        sources = {}
        for source in self.plane.sources():
            snapshot = self.plane.source_snapshot(source)
            sources[source] = {
                "local": self.plane.is_local(source),
                "age_s": round(self.plane.last_seen_age_s(source) or 0.0, 3),
                "latency_ms": latency_digest(snapshot),
                "requests": snapshot.get("counters", {}).get(
                    "serve.requests",
                    snapshot.get("counters", {}).get("router.requests", 0.0),
                ),
            }
        return {
            "uptime_s": round(time.perf_counter() - self._started_at, 3),
            "interval_s": self.interval_s,
            "ingested": self.plane.ingested,
            "sources": sources,
            "latency_ms": latency_digest(totals),
            "window": {
                "span_s": round(span, 3),
                "throughput_rps": (
                    round(window_ok / span, 2) if span else 0.0
                ),
                "latency_ms": latency_digest(window),
            },
            "watermarks": {
                name: value
                for name, value in sorted(self.plane.watermarks().items())
            },
            "slo": self.slo_statuses(),
            "health": self.health(),
            "totals": totals,
        }

    def prometheus(self) -> str:
        """The admin ``/metrics`` payload: one series per source."""
        self.sample_local()
        series = [
            ({"source": source}, self.plane.source_snapshot(source))
            for source in self.plane.sources()
        ]
        return render_prometheus(series)
