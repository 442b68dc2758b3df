"""Shared experiment state: calibrated networks, forwards, timings.

Building a paper figure needs the same expensive artifacts over and over —
a calibrated network, forward passes, per-backend timings.  The
:class:`ExperimentContext` builds each once and caches it in memory, and
persists every *derived* artifact (calibration shifts, sparsity reports,
timing summaries, position statistics) to the content-addressed
:class:`~repro.experiments.manifest.ArtifactCache` so parallel workers
and later processes never recompute what any prior process already
produced.  Raw forward activations are deliberately not persisted (they
are large and cheap to avoid: every consumer reads a small derived
artifact instead).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.backends import (
    DEFAULT_WEIGHT_SPARSITY,
    get_backend,
    prune_conv_weights,
)
from repro.experiments.config import PaperConfig
from repro.experiments.manifest import ArtifactCache, config_fingerprint
from repro.hw.config import PAPER_CONFIG, ArchConfig
from repro.hw.counters import ActivityCounters
from repro.reliability import FaultInjector
from repro.hw.timing_types import LayerTiming, NetworkTiming
from repro.nn.calibration import (
    PAPER_ZERO_FRACTIONS,
    SparsityReport,
    calibrate_network,
    measure_zero_fractions,
)
from repro.nn.datasets import natural_images
from repro.nn.engine import IncrementalForwardEngine
from repro.nn.inference import ForwardResult, WeightStore, draw_weights, slice_result
from repro.nn.models import build_network
from repro.nn.network import Network

__all__ = [
    "NetworkContext",
    "ExperimentContext",
    "thresholds_key",
    "timing_to_payload",
    "timing_from_payload",
]


def thresholds_key(thresholds: dict[str, float] | None) -> tuple:
    """Hashable cache key for a threshold configuration."""
    if not thresholds:
        return ()
    return tuple(sorted((k, float(v)) for k, v in thresholds.items() if v))


def timing_to_payload(timing: NetworkTiming) -> dict:
    """JSON-safe rendering of a NetworkTiming (exact float round-trip)."""
    return {
        "network": timing.network,
        "architecture": timing.architecture,
        "layers": [
            {
                "name": layer.name,
                "kind": layer.kind,
                "cycles": layer.cycles,
                "lane_events": dict(layer.lane_events),
                "counters": dict(layer.counters.counts),
            }
            for layer in timing.layers
        ],
    }


def timing_from_payload(payload: dict) -> NetworkTiming:
    layers = []
    for entry in payload["layers"]:
        counters = ActivityCounters()
        counters.counts.update(entry["counters"])
        layers.append(
            LayerTiming(
                name=entry["name"],
                kind=entry["kind"],
                cycles=entry["cycles"],
                lane_events=dict(entry["lane_events"]),
                counters=counters,
            )
        )
    return NetworkTiming(
        network=payload["network"],
        architecture=payload["architecture"],
        layers=layers,
    )


def _sparsity_to_payload(report: SparsityReport) -> dict:
    return {
        "network": report.network,
        "per_layer": dict(report.per_layer),
        "mac_weighted_mean": report.mac_weighted_mean,
        "per_image_means": list(report.per_image_means),
    }


def _sparsity_from_payload(payload: dict) -> SparsityReport:
    return SparsityReport(
        network=payload["network"],
        per_layer=dict(payload["per_layer"]),
        mac_weighted_mean=payload["mac_weighted_mean"],
        per_image_means=list(payload["per_image_means"]),
    )


@dataclass
class NetworkContext:
    """One calibrated network with its input images."""

    name: str
    network: Network
    store: WeightStore
    images: list[np.ndarray]


class ExperimentContext:
    """Lazily builds and caches everything the experiment modules share.

    The serving workers call it from several threads at once, so the
    builds that must yield one shared object — the calibrated network,
    its engine, its pruned weights — each run once per key under a lock
    (:meth:`_build_once`).  A context is never pickled: runner workers
    and shards build their own.
    """

    def __init__(
        self,
        config: PaperConfig | None = None,
        arch: ArchConfig = PAPER_CONFIG,
        artifacts: ArtifactCache | None = None,
        stores: dict[str, WeightStore] | None = None,
    ):
        self.config = config if config is not None else PaperConfig()
        self.arch = arch
        # Pre-built (typically shared-memory-attached, already calibrated)
        # weight stores: a network named here skips the weight draw and
        # calibration entirely — how a serving shard reuses the router's
        # published weights without recomputing or copying them.
        self._preset_stores = dict(stores or {})
        # One injector per context: the artifact cache's fault sites
        # (cache:read / cache:write) share trial counters with the unit
        # sites the parallel runner fires against this same context.
        self.injector = FaultInjector.from_settings()
        self.artifacts = (
            artifacts
            if artifacts is not None
            else ArtifactCache(
                self.config.cache_dir,
                config_fingerprint(self.config, arch),
                enabled=self.config.use_cache,
                injector=self.injector,
            )
        )
        self._networks: dict[str, NetworkContext] = {}
        self._structures: dict[str, Network] = {}
        self._engines: dict[str, IncrementalForwardEngine] = {}
        self._forwards: dict[tuple, ForwardResult] = {}
        self._timings: dict[tuple, NetworkTiming] = {}
        self._pruned_weights: dict[tuple, dict[str, np.ndarray]] = {}
        self._sparsity: dict[str, SparsityReport] = {}
        self._position_stats: dict[str, dict[str, float]] = {}
        self._build_locks: dict[tuple, threading.Lock] = {}
        self._build_locks_guard = threading.Lock()
        #: Every network this context has drawn weights for: its store
        #: until a build takes it, then ``None`` (:meth:`_drawn_store`).
        self._drawn: dict[str, WeightStore | None] = {}
        self._draw_lock = threading.Lock()
        self._images: dict[tuple, list[np.ndarray]] = {}

    def _build_once(self, cache: dict, key, build):
        """``cache[key]``, built by ``build()`` once across threads.

        A second caller of the same key waits for the first build rather
        than running its own; other keys build concurrently.
        """
        if key in cache:
            return cache[key]
        with self._build_locks_guard:
            lock = self._build_locks.setdefault((id(cache), key), threading.Lock())
        with lock:
            if key not in cache:
                cache[key] = build()
        return cache[key]

    def _drawn_store(self, name: str) -> WeightStore:
        """Hand ``name``'s seeded weights to its build, exactly once.

        Every network's weights are slices of the seed's one normal
        stream (:func:`~repro.nn.inference.draw_weights`), so the first
        draw of a configured network also draws every configured network
        that has no preset store and has not been drawn yet: one pass as
        long as the longest of them.  Their stores wait here until their
        own builds take them.  A network outside ``config.networks``
        draws only itself, and so does the retry of a build that raised
        after taking its store: the store it took is gone.
        """
        with self._draw_lock:
            if self._drawn.get(name) is None:
                names = [name]
                if name in self.config.networks:
                    names += [
                        other for other in dict.fromkeys(self.config.networks)
                        if other != name and other not in self._drawn
                        and other not in self._preset_stores
                    ]
                stores = draw_weights(
                    [self.network_structure(other) for other in names],
                    np.random.default_rng(self.config.seed),
                )
                self._drawn.update(zip(names, stores))
            store = self._drawn[name]
            self._drawn[name] = None
            return store

    def _input_images(self, shape: tuple) -> list[np.ndarray]:
        """The configured images at ``shape``, synthesized once per
        context (every network but alex shares one input shape) and
        read-only, since every network of that shape reads them."""
        def build() -> list[np.ndarray]:
            images = natural_images(
                shape, self.config.num_images, seed=self.config.seed + 1
            )
            images = [img.astype(np.float32) for img in images]
            for img in images:
                img.flags.writeable = False
            return images

        return self._build_once(self._images, shape, build)

    # ------------------------------------------------------------------
    # network construction and calibration
    # ------------------------------------------------------------------
    def network_structure(self, name: str) -> Network:
        """The layer structure only — no weights, images, or calibration.

        Consumers that just need layer names/counts (table1, threshold
        grouping, conv1 shares) use this so a cache-warm assembly pass
        never pays for weight initialization.
        """
        if name in self._networks:
            return self._networks[name].network
        if name not in self._structures:
            self._structures[name] = build_network(
                name, input_size=self.config.input_size(name)
            )
        return self._structures[name]

    def network_ctx(self, name: str) -> NetworkContext:
        return self._build_once(
            self._networks, name, lambda: self._build_network(name)
        )

    def _build_network(self, name: str) -> NetworkContext:
        network = self.network_structure(name)
        images = self._input_images(network.input_shape)
        preset = self._preset_stores.get(name)
        if preset is not None:
            # The preset store is final (float32 weights + calibration
            # shifts baked in); only the deterministic input images are
            # rebuilt locally — they are derived from config seed alone.
            return NetworkContext(
                name=name, network=network, store=preset, images=images
            )
        # float32 weights: single precision halves the cost of the
        # forward sweeps; zero-pattern statistics and timing are
        # unaffected.  Drawn in one pass with the other configured
        # networks (_drawn_store), byte-identical to a draw of this
        # network alone.
        store = self._drawn_store(name)

        cached = self.artifacts.load("calib", network=name)
        if cached is not None:
            store.shifts = {
                k: np.asarray(v) if isinstance(v, list) else float(v)
                for k, v in cached.items()
            }
        else:
            calibrate_network(
                network,
                store,
                images[: min(3, len(images))],
                mean_target=PAPER_ZERO_FRACTIONS.get(name, 0.44),
            )
            self.artifacts.store(
                "calib",
                {
                    k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in store.shifts.items()
                },
                network=name,
            )

        return NetworkContext(name=name, network=network, store=store, images=images)

    # ------------------------------------------------------------------
    # forwards and timings
    # ------------------------------------------------------------------
    def engine(self, name: str) -> IncrementalForwardEngine:
        """Incremental batched forward engine over the network's image set.

        Every forward in this context runs through one engine per network,
        so activation prefixes are shared across images, threshold
        configurations, and the consumers below (``forward``,
        ``prediction_stability``, ``timing``, the threshold searches).
        """
        def build() -> IncrementalForwardEngine:
            ctx = self.network_ctx(name)
            return IncrementalForwardEngine(
                ctx.network, ctx.store, np.stack(ctx.images), label=name
            )

        return self._build_once(self._engines, name, build)

    def forward(
        self,
        name: str,
        image_index: int = 0,
        thresholds: dict[str, float] | None = None,
    ) -> ForwardResult:
        key = (name, image_index, thresholds_key(thresholds))
        if key in self._forwards:
            return self._forwards[key]
        batched = self.engine(name).run(
            thresholds=thresholds, collect_conv_inputs=True, keep_outputs=False
        )
        result = slice_result(batched, image_index)
        # Only cache the unpruned forward — threshold sweeps would pile up
        # (the engine's own signature-keyed LRU covers the pruned configs).
        if not thresholds:
            self._forwards[key] = result
        return result

    def pruned_conv_weights(
        self, name: str, sparsity: float = DEFAULT_WEIGHT_SPARSITY
    ) -> dict[str, np.ndarray]:
        """Per-conv-layer magnitude-pruned weights for the weight-sparse
        backends — a pure function of the calibrated store, so every
        process (worker, shard, direct path) derives identical masks."""
        def build() -> dict[str, np.ndarray]:
            ctx = self.network_ctx(name)
            return prune_conv_weights(ctx.network, ctx.store.weights, sparsity)

        return self._build_once(self._pruned_weights, (name, float(sparsity)), build)

    def timing(
        self,
        backend: str,
        name: str,
        thresholds: dict[str, float] | None = None,
        image_index: int = 0,
        weight_sparsity: float = DEFAULT_WEIGHT_SPARSITY,
    ) -> NetworkTiming:
        """NetworkTiming of any registered backend on one image.

        The one timing path: every backend shares this in-memory dict and
        the ``timing`` artifact kind, and simulates only through
        :meth:`~repro.backends.Backend.network_timing` on the conv inputs
        of the (optionally pruned) forward.  ``weight_sparsity`` keys only
        backends that model weight sparsity.
        """
        spec = get_backend(backend)  # raises KeyError for unknown names
        pruned = thresholds_key(thresholds)
        sparsity = float(weight_sparsity) if spec.needs_weights else None
        key = (backend, name, pruned, image_index, sparsity)
        if key in self._timings:
            return self._timings[key]
        params = {
            "backend": backend,
            "network": name,
            "thresholds": [list(item) for item in pruned],
            "image_index": image_index,
        }
        if sparsity is not None:
            params["weight_sparsity"] = sparsity
        payload = self.artifacts.load("timing", **params)
        if payload is not None:
            timing = timing_from_payload(payload)
        else:
            fwd = self.forward(name, image_index, thresholds=thresholds)
            weights = (
                None if sparsity is None
                else self.pruned_conv_weights(name, sparsity)
            )
            timing = spec.network_timing(
                self.network_ctx(name).network, fwd.conv_inputs, self.arch,
                weights,
            )
            self.artifacts.store("timing", timing_to_payload(timing), **params)
        self._timings[key] = timing
        # The unpruned first-image timing is the canonical activity
        # profile of (architecture, network); pruned-config variants
        # would drown it in near-duplicates.
        if not pruned and image_index == 0:
            self._publish_activity(timing)
        return timing

    def speedup(
        self,
        backend: str,
        name: str,
        thresholds: dict[str, float] | None = None,
        image_index: int = 0,
        weight_sparsity: float = DEFAULT_WEIGHT_SPARSITY,
    ) -> float:
        """Baseline-over-backend cycle ratio (the Fig. 9 quantity).

        The denominator is always the unpruned first-image baseline:
        baseline cycles do not depend on activation values.
        """
        base = self.timing("baseline", name).total_cycles
        timing = self.timing(backend, name, thresholds, image_index, weight_sparsity)
        return base / timing.total_cycles

    @staticmethod
    def _publish_activity(timing: NetworkTiming) -> None:
        """Export a timing's merged ActivityCounters as obs gauges.

        Gauges (``activity.<architecture>.<network>.<counter>``) restate
        a derived fact, so re-materializing the same timing in another
        process merges idempotently instead of double counting.
        """
        timing.counters().publish(
            f"activity.{timing.architecture}.{timing.network}"
        )

    # ------------------------------------------------------------------
    # sparsity and pruning support
    # ------------------------------------------------------------------
    def sparsity(self, name: str) -> SparsityReport:
        """Fig. 1 statistics over all configured images."""
        if name not in self._sparsity:
            payload = self.artifacts.load("sparsity", network=name)
            if payload is not None:
                self._sparsity[name] = _sparsity_from_payload(payload)
            else:
                ctx = self.network_ctx(name)
                report = measure_zero_fractions(ctx.network, ctx.store, ctx.images)
                self.artifacts.store("sparsity", _sparsity_to_payload(report), network=name)
                self._sparsity[name] = report
        return self._sparsity[name]

    def position_stats(self, name: str) -> dict[str, float]:
        """Per-position zero statistics across the sampled inputs.

        The fraction of (non-first-layer) conv-input neuron positions that
        are zero on *every* sampled image, and on at least all-but-one —
        the Section II argument that static elimination cannot work.
        """
        if name in self._position_stats:
            return self._position_stats[name]
        payload = self.artifacts.load("position_stats", network=name)
        if payload is None:
            payload = self._compute_position_stats(name)
            self.artifacts.store("position_stats", payload, network=name)
        self._position_stats[name] = payload
        return payload

    def _compute_position_stats(self, name: str) -> dict[str, float]:
        nctx = self.network_ctx(name)
        total_images = len(nctx.images)
        if total_images < 2:
            # "Always zero across inputs" is vacuous with a single input.
            return {"always_zero": float("nan"), "near_always_zero": float("nan")}
        # One batched pass; counting zeros over the batch axis replaces the
        # per-image accumulation loop bit-identically.
        result = self.engine(name).run(collect_conv_inputs=True, keep_outputs=False)
        zero_counts = {
            layer: (arr == 0.0).sum(axis=0)
            for layer, arr in result.conv_inputs.items()
        }
        always = 0
        near_always = 0
        positions = 0
        first = nctx.network.first_conv_layers()
        for layer, counts in zero_counts.items():
            if layer in first:
                continue  # image pixels, as in the paper's neuron statistics
            positions += counts.size
            always += int((counts == total_images).sum())
            near_always += int((counts >= max(total_images - 1, 1)).sum())
        if positions == 0:
            return {"always_zero": 0.0, "near_always_zero": 0.0}
        return {
            "always_zero": always / positions,
            "near_always_zero": near_always / positions,
        }

    def logits(
        self,
        name: str,
        image_index: int = 0,
        thresholds: dict[str, float] | None = None,
    ) -> np.ndarray:
        result = self.forward(name, image_index, thresholds=thresholds)
        if result.logits is None:
            raise ValueError(f"network {name} produced no logits")
        return result.logits

    def prediction_stability(
        self, name: str, thresholds: dict[str, float] | None
    ) -> float:
        """Fraction of images whose top-1 prediction survives pruning.

        The calibrated networks have no trained accuracy, so top-1
        agreement with the unpruned network stands in for 'relative
        accuracy' (DESIGN.md substitution); the trained small CNN provides
        the genuine accuracy signal.
        """
        total = self.config.num_images
        engine = self.engine(name)
        clean = engine.run(collect_conv_inputs=False, keep_outputs=False)
        pruned = engine.run(
            thresholds=thresholds, collect_conv_inputs=False, keep_outputs=False
        )
        if clean.logits is None or pruned.logits is None:
            raise ValueError(f"network {name} produced no logits")
        agree = int(
            (
                np.argmax(clean.logits[:total], axis=1)
                == np.argmax(pruned.logits[:total], axis=1)
            ).sum()
        )
        return agree / total
