"""Content-addressed artifact cache and run observability records.

Two concerns live here because they are two halves of one contract:

* :class:`ArtifactCache` — an on-disk store for expensive derived
  artifacts (calibration shifts, sparsity reports, timing summaries,
  threshold sweep points).  Every artifact is addressed by a SHA-256 of
  the *content that determines it*: the experiment-config fingerprint
  (scale, seed, image count), the architecture geometry, the artifact
  kind, and its kind-specific parameters.  Two processes that ask for the
  same artifact therefore agree on the key without coordination, which is
  what lets the parallel runner's workers share work with each other and
  with prior runs.
* :class:`RunManifest` / :class:`UnitRecord` — the observability side:
  one record per scheduled work unit (wall time, worker pid, cache
  hit/miss counters) plus run-level totals, serialized to JSON so tests
  and tooling can assert on cache behaviour and wall-time distribution.

Cache layout (under ``PaperConfig.cache_dir``)::

    objects/<first two hex chars>/<sha256>.json
    objects/quarantine/<sha256>.json        (damaged objects, see below)

Writes go through a temp file + ``os.replace`` so concurrent workers
never observe a half-written artifact, and every object embeds a
``sha256`` checksum of its payload.  Reads verify the object end to end
— parseable JSON, the expected ``kind``, a payload whose recomputed
checksum matches — and treat *any* damaged object as a cache miss: the
file is moved to ``objects/quarantine/`` (for post-mortem inspection)
and the artifact is recomputed.  A corrupt cache can therefore cost
time, never correctness, and never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro import obs
from repro.hw.config import ArchConfig
from repro.reliability.faults import FaultInjector

__all__ = [
    "stable_hash",
    "config_fingerprint",
    "ArtifactCache",
    "UnitRecord",
    "RunManifest",
]


def stable_hash(payload) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _truncate_file(path: Path) -> None:
    """Cut an object file in half (the ``cache:read=corrupt`` fault)."""
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
    except OSError:
        pass


def config_fingerprint(config, arch: ArchConfig) -> dict:
    """The config facets that per-network artifacts depend on.

    Deliberately excludes ``networks`` (each artifact names its own
    network, and a worker running a single-network config must produce
    the same keys as the full-sweep parent), ``cache_dir`` and
    ``use_cache`` (where/whether to cache cannot change what is cached).
    """
    return {
        "scale": config.scale,
        "seed": config.seed,
        "num_images": config.num_images,
        "arch": asdict(arch),
    }


class ArtifactCache:
    """Content-addressed JSON artifact store with hit/miss accounting."""

    def __init__(
        self,
        root: Path,
        fingerprint: dict,
        enabled: bool = True,
        injector: FaultInjector | None = None,
    ):
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.enabled = enabled
        self.config_hash = stable_hash(fingerprint)
        self.injector = injector if injector is not None else FaultInjector.from_env()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def key(self, kind: str, **params) -> str:
        """Content address of one artifact."""
        return stable_hash(
            {"fingerprint": self.fingerprint, "kind": kind, "params": params}
        )

    def path(self, kind: str, **params) -> Path:
        digest = self.key(kind, **params)
        return self.root / "objects" / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # load / store
    # ------------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self.root / "objects" / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a damaged object aside so the slot can be recomputed."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            pass  # already moved/deleted by a concurrent reader, or read-only
        self.quarantined += 1
        obs.counter_add("artifact.quarantined")

    def load(self, kind: str, **params):
        """The cached payload, or None on a miss (or when disabled).

        A read failure is never worse than a miss: unreadable, truncated,
        JSON-invalid, mis-addressed, or checksum-mismatched objects are
        quarantined and reported as misses instead of raising.
        """
        if not self.enabled:
            return None
        path = self.path(kind, **params)
        if self.injector.fire("cache:read") == "corrupt":
            _truncate_file(path)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            obs.counter_add("artifact.misses")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            self.misses += 1
            obs.counter_add("artifact.misses")
            return None
        if (
            not isinstance(document, dict)
            or "payload" not in document
            or document.get("kind") != kind
            or document.get("sha256") != stable_hash(document["payload"])
        ):
            self._quarantine(path)
            self.misses += 1
            obs.counter_add("artifact.misses")
            return None
        self.hits += 1
        obs.counter_add("artifact.hits")
        return document["payload"]

    def store(self, kind: str, payload, **params) -> None:
        if not self.enabled:
            return
        self.injector.fire("cache:write")
        path = self.path(kind, **params)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "kind": kind,
            "params": params,
            "payload": payload,
            "sha256": stable_hash(payload),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # dumps, not dump: the same bytes through the C encoder
                # (dump streams through the pure-Python one).
                handle.write(json.dumps(document))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        obs.counter_add("artifact.stores")

    def get_or_compute(self, kind: str, compute, **params):
        """Load ``kind``; on a miss run ``compute()`` and persist it."""
        cached = self.load(kind, **params)
        if cached is not None:
            return cached
        payload = compute()
        self.store(kind, payload, **params)
        return payload

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        return {name: getattr(self, name) - snapshot[name] for name in snapshot}


@dataclass
class UnitRecord:
    """Observability record for one scheduled work unit."""

    unit: str  # e.g. "fig9:alex"
    experiment: str
    network: str | None
    phase: str  # "parallel" | "serial" | "assembly" | "carried"
    worker: int  # os.getpid() of whoever ran it
    seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    status: str = "ok"  # "ok" | "error" | "timeout" | "crashed"
    error: str = ""
    attempts: int = 1  # total tries this record summarizes
    traceback: str = ""  # full traceback of the last failed attempt

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "UnitRecord":
        known = {item.name for item in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


@dataclass
class RunManifest:
    """Everything observable about one ``run_all`` invocation."""

    scale: str
    seed: int
    networks: list[str]
    jobs: int
    config_hash: str
    experiments: list[str] = field(default_factory=list)
    units: list[UnitRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_quarantined: int = 0
    #: Merged :mod:`repro.obs.metrics` snapshot (schema v4 carries the
    #: histogram quantile-sketch buckets; empty when
    #: loaded from a v2 manifest).
    metrics: dict = field(default_factory=dict)

    def add_unit(self, record: UnitRecord) -> None:
        self.units.append(record)
        self.cache_hits += record.cache_hits
        self.cache_misses += record.cache_misses

    def completed_units(self) -> set[str]:
        """Labels of units that finished successfully (``--resume`` skips
        these; everything else re-executes)."""
        return {
            unit.unit
            for unit in self.units
            if unit.status == "ok" and unit.phase in ("parallel", "carried")
        }

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "version": 4,
            "scale": self.scale,
            "seed": self.seed,
            "networks": list(self.networks),
            "jobs": self.jobs,
            "config_hash": self.config_hash,
            "experiments": list(self.experiments),
            "wall_seconds": self.wall_seconds,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "stores": self.cache_stores,
                "quarantined": self.cache_quarantined,
                "hit_rate": self.hit_rate,
            },
            "metrics": self.metrics,
            "units": [unit.to_dict() for unit in self.units],
        }

    def save(self, path: Path | str) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path: Path | str) -> "RunManifest":
        with open(path) as handle:
            payload = json.load(handle)
        manifest = cls(
            scale=payload["scale"],
            seed=payload["seed"],
            networks=payload["networks"],
            jobs=payload["jobs"],
            config_hash=payload["config_hash"],
            experiments=payload.get("experiments", []),
            wall_seconds=payload.get("wall_seconds", 0.0),
        )
        for unit in payload.get("units", []):
            manifest.add_unit(UnitRecord.from_dict(unit))
        manifest.cache_stores = payload.get("cache", {}).get("stores", 0)
        manifest.cache_quarantined = payload.get("cache", {}).get("quarantined", 0)
        # v2 manifests predate the metrics snapshot; load them tolerantly.
        metrics = payload.get("metrics", {})
        manifest.metrics = metrics if isinstance(metrics, dict) else {}
        return manifest

    def profile_table(self) -> str:
        """The ``--profile`` view: where the wall time went, worst first."""
        from repro.experiments.report import format_table

        rows = [
            {
                "unit": unit.unit,
                "phase": unit.phase,
                "worker": unit.worker,
                "seconds": unit.seconds,
                "hits": unit.cache_hits,
                "misses": unit.cache_misses,
                "attempts": unit.attempts,
                "status": unit.status,
            }
            for unit in sorted(self.units, key=lambda u: -u.seconds)
        ]
        header = (
            f"== run profile: {len(self.units)} units, "
            f"{self.wall_seconds:.1f}s wall, jobs={self.jobs}, "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.hit_rate:.0%} hit rate) =="
        )
        parts = [header]
        counters = self.metrics.get("counters", {})
        engine_hits = counters.get("engine.cache.hits", 0)
        engine_misses = counters.get("engine.cache.misses", 0)
        engine_total = engine_hits + engine_misses
        if engine_total:
            parts.append(
                f"engine cache: {engine_hits:.0f} hits / "
                f"{engine_misses:.0f} misses / "
                f"{counters.get('engine.cache.evictions', 0):.0f} evictions "
                f"({engine_hits / engine_total:.0%} hit rate)"
            )
        parts.append(format_table(rows))
        failed = [unit for unit in self.units if unit.status != "ok"]
        for unit in failed:
            parts.append(f"\n-- {unit.unit} failed ({unit.status}): {unit.error}")
            if unit.traceback:
                parts.append(unit.traceback.rstrip("\n"))
        return "\n".join(parts)
