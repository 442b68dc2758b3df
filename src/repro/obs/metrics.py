"""Process-local metrics registry: counters, gauges, histograms.

The metrics half of :mod:`repro.obs`.  One :class:`MetricsRegistry` per
process absorbs every counter bag the pipeline already keeps —
:class:`~repro.nn.engine.EngineStats` (``engine.cache.*``), the
:class:`~repro.experiments.manifest.ArtifactCache` accounting
(``artifact.*``), retry/backoff scheduling from
:mod:`repro.reliability` (``retry.*``, ``faults.*``), the simulators'
:class:`~repro.hw.counters.ActivityCounters`
(``activity.<architecture>.<network>.*``), and per-layer forward compute
times (``nn.layer.<network>.<layer>`` histograms) — under one dotted
namespace (the full table lives in EXPERIMENTS.md, "Observability").

Unlike tracing, metrics are always on: every instrument is a dict update
behind one lock, which is noise next to the work being counted.  Worker
processes ship :meth:`MetricsRegistry.snapshot` back through the pool;
the parent :meth:`~MetricsRegistry.merge_snapshot`-s them (counters and
histograms accumulate, gauges are idempotent re-statements of derived
facts and merge by last-wins), and the merged snapshot is serialized
into the run manifest (schema v3) for ``repro-obs report`` to read
without rerunning anything.
"""

from __future__ import annotations

import math
import os
import threading

__all__ = [
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
    "SKETCH_BUCKETS_PER_OCTAVE",
    "sketch_index",
    "sketch_boundary",
]

#: Log-bucket sketch resolution: boundaries at ``2 ** (i / 8)``, i.e.
#: each bucket's upper bound is ~9.05% above the previous one, so any
#: reported quantile is within one ~9% relative step of the true value.
SKETCH_BUCKETS_PER_OCTAVE = 8

#: Bucket index clamp.  ``2**(-96/8)`` = ~2.4e-4 and ``2**(384/8)`` =
#: ~2.8e14 bracket every quantity the repo observes (per-layer seconds
#: through latency milliseconds through byte counts); out-of-range
#: values saturate into the edge buckets instead of growing the dict.
_SKETCH_MIN_INDEX = -96
_SKETCH_MAX_INDEX = 384

#: Synthetic index for non-positive observations (its "upper boundary"
#: is 0.0); sorts below every real bucket.
_SKETCH_ZERO_INDEX = _SKETCH_MIN_INDEX - 1


def sketch_index(value: float) -> int:
    """The fixed log bucket a positive value falls in (deterministic:
    the boundaries are compile-time constants, never data-adaptive, so
    two processes always bucket the same value identically)."""
    if value <= 0.0:
        return _SKETCH_ZERO_INDEX
    index = math.ceil(math.log2(value) * SKETCH_BUCKETS_PER_OCTAVE)
    return max(_SKETCH_MIN_INDEX, min(_SKETCH_MAX_INDEX, index))


def sketch_boundary(index: int) -> float:
    """Upper value boundary of bucket ``index`` (0.0 for the zero bucket)."""
    if index <= _SKETCH_ZERO_INDEX:
        return 0.0
    return 2.0 ** (index / SKETCH_BUCKETS_PER_OCTAVE)


class Histogram:
    """Streaming summary of observed values.

    Beyond count/total/min/max, every histogram carries a *fixed-
    boundary log-bucket quantile sketch*: observations are counted into
    buckets bounded at ``2 ** (i/8)``.  Because the boundaries are
    fixed, merging two sketches is exact bucket-count addition —
    associative and commutative, so quantiles computed after any merge
    order are identical (the property the multi-process snapshot merge
    relies on).  :meth:`quantile` answers p50/p95/p99 to within one
    ~9% bucket step, clamped into the exact observed [min, max].
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = sketch_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (``q`` in [0, 100]) from the sketch.

        Pre-sketch payloads (a merged snapshot from an old manifest may
        carry histograms without buckets) degrade to a linear
        interpolation between the recorded extremes rather than failing.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        population = sum(self.buckets.values())
        if population == 0:
            # Tolerant fallback for sketchless (pre-v4) payloads.
            return self.min + (self.max - self.min) * (q / 100.0)
        rank = max(1, math.ceil(population * q / 100.0))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                bound = sketch_boundary(index)
                return min(max(bound, self.min), self.max)
        return self.max  # pragma: no cover - rank <= population

    def percentiles(self) -> dict:
        """The standard serving digest: p50/p95/p99 (rounded)."""
        return {
            "p50": round(self.quantile(50), 3),
            "p95": round(self.quantile(95), 3),
            "p99": round(self.quantile(99), 3),
        }

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def merge_dict(self, payload: dict) -> None:
        count = int(payload.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(payload.get("total", 0.0))
        self.min = min(self.min, float(payload.get("min", float("inf"))))
        self.max = max(self.max, float(payload.get("max", float("-inf"))))
        # Tolerant: payloads serialized before the sketch existed simply
        # have no buckets; quantiles then cover the sketched population.
        for key, value in (payload.get("buckets") or {}).items():
            try:
                index = int(key)
                value = int(value)
            except (TypeError, ValueError):
                continue
            if value > 0:
                self.buckets[index] = self.buckets.get(index, 0) + value

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild a histogram (sketch included) from its payload."""
        histogram = cls()
        if isinstance(payload, dict):
            histogram.merge_dict(payload)
        return histogram


class MetricsRegistry:
    """Named counters, gauges, and histograms with snapshot/merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def counter_add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """High-watermark gauge: keep the maximum ever stated.

        Name the gauge with a ``.max`` suffix — snapshot merges combine
        ``.max`` gauges by maximum (not last-wins), so a watermark
        survives being merged across processes.
        """
        value = float(value)
        with self._lock:
            if value > self.gauges.get(name, float("-inf")):
                self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def counter(self, name: str) -> float:
        with self._lock:
            return self.counters.get(name, 0.0)

    # ------------------------------------------------------------------
    # snapshot / merge (the cross-process contract)
    # ------------------------------------------------------------------
    def snapshot(self, reset: bool = False) -> dict:
        """JSON-safe view of everything recorded so far.  ``reset=True``
        clears the registry in the same lock hold, so a concurrent
        increment lands in this snapshot or the next, never in neither."""
        with self._lock:
            snapshot = {
                "pid": os.getpid(),
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in self.histograms.items()
                },
            }
            if reset:
                self._clear()
        return snapshot

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot in (counters/histograms sum,
        gauges last-wins — they restate derived facts idempotently —
        except ``.max``-suffixed high-watermark gauges, which merge by
        maximum so a watermark never shrinks across processes)."""
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0.0) + value
            for name, value in snapshot.get("gauges", {}).items():
                if name.endswith(".max"):
                    value = max(value, self.gauges.get(name, float("-inf")))
                self.gauges[name] = value
            for name, payload in snapshot.get("histograms", {}).items():
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = Histogram()
                histogram.merge_dict(payload)

    def reset(self) -> None:
        with self._lock:
            self._clear()

    def _clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


_REGISTRY = MetricsRegistry()


def _after_fork_in_child() -> None:
    """A forked worker starts from zero so the snapshot it ships back
    covers only its own work (no double counting of pre-fork totals)."""
    _REGISTRY._lock = threading.Lock()
    _REGISTRY.reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_after_fork_in_child)


def get_metrics() -> MetricsRegistry:
    """This process's registry (one per process, reset in forked children)."""
    return _REGISTRY


def reset_metrics() -> None:
    _REGISTRY.reset()


def counter_add(name: str, amount: float = 1.0) -> None:
    _REGISTRY.counter_add(name, amount)


def gauge_set(name: str, value: float) -> None:
    _REGISTRY.gauge_set(name, value)


def gauge_max(name: str, value: float) -> None:
    _REGISTRY.gauge_max(name, value)


def observe(name: str, value: float) -> None:
    _REGISTRY.observe(name, value)


def take_snapshot() -> dict:
    """Snapshot *and reset* — what a pool worker ships back per task, so
    a reused worker never re-ships counts it already reported."""
    return _REGISTRY.snapshot(reset=True)


def merge_snapshot(snapshot: dict) -> None:
    _REGISTRY.merge_snapshot(snapshot)
