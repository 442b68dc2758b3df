"""Incremental, batched forward engine for threshold sweeps.

The Fig. 14 / Table II threshold searches evaluate hundreds of threshold
configurations per network, and each coordinate-ascent trial changes
exactly *one* layer's threshold: every layer that does not read (directly
or transitively) a pruned activation produces bit-identical output across
trials.  :class:`IncrementalForwardEngine` exploits this by caching each
layer's batched output keyed by the layer's *effective threshold
signature* — the subset of active (non-zero) thresholds on layers in the
layer's upstream cone, walked through ``input_from``/concat edges and
including the layer itself.  A forward pass under a new configuration then
replays cached prefixes and only computes the suffix below the perturbed
layer.

All activations are held as a single ``(batch, depth, H, W)`` stack and
computed through the batched path of :mod:`repro.nn.layers` — the only
path; a single image is a batch of one — so one engine pass replaces
``batch`` per-image :func:`~repro.nn.inference.run_forward` calls —
bit-identically (differential-tested in ``tests/test_forward_engine.py``).

The engine keeps its own walk beside ``run_forward``'s: on a cache hit it
skips the layer's work, a concat included, and that would make a shared
walk branch on its caller.  Both walks read the layer graph (inputs and
last readers) from the :class:`~repro.nn.network.Network`.

The cache is bounded by a byte budget (the process settings'
``engine_cache_mb``, ``CNVLUTIN_ENGINE_CACHE_MB``, default 512 MiB) with
LRU eviction; the engine never caches less than the most recent entry,
so it degrades to plain recomputation under tiny budgets rather than
failing.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs, settings
from repro.nn.inference import (
    ForwardResult,
    WeightStore,
    _gather_input,
    apply_layer,
    image_stack,
    run_forward,
)
from repro.nn.network import LayerKind, LayerSpec, Network

__all__ = [
    "IncrementalForwardEngine",
    "EngineStats",
    "threshold_scopes",
    "attach_shared_weights",
    "attached_arenas",
]

def attach_shared_weights(manifest: dict) -> dict[str, WeightStore]:
    """Attach a published shared-memory weight arena as engine stores.

    Returns one read-only zero-copy :class:`WeightStore` view per
    network from an arena manifest (see :class:`repro.nn.shm.
    SharedWeightArena`) — the stores a sharded serving worker hands to
    its engines so N shards share one physical copy of every weight.
    The views record ``engine.shared.attached`` so a metrics snapshot
    shows which processes run on shared weights, and the arena's size as
    the ``engine.shared.bytes.max`` watermark gauge: merged shard
    snapshots keep the one size, where a counter would sum it per attach.
    """
    from repro.nn.shm import SharedWeightArena

    arena = SharedWeightArena.attach(manifest)
    # Keep the mapping object alive for the process lifetime: the views
    # pin the buffer, but letting the SharedMemory handle be collected
    # would run its close() finalizer against an exported buffer.
    _ATTACHED_ARENAS.append(arena)
    obs.counter_add("engine.shared.attached")
    obs.gauge_max(
        "engine.shared.bytes.max", float(arena.manifest.get("bytes", 0))
    )
    return arena.stores


#: Arenas attached by this process (held so finalizers never fire while
#: zero-copy weight views are live).
_ATTACHED_ARENAS: list = []


def attached_arenas() -> list:
    """The arenas this process has attached (most recent last).

    The shard loop needs the arena *handle*, not just its stores, to run
    the between-batch CRC recheck (:meth:`repro.nn.shm.SharedWeightArena.
    verify`) against the live block.
    """
    return list(_ATTACHED_ARENAS)


def _is_prunable(layer: LayerSpec) -> bool:
    """Can a Section V-E threshold change this layer's output directly?"""
    if layer.kind in (LayerKind.CONV, LayerKind.FC):
        return layer.fused_relu
    return layer.kind == LayerKind.RELU


def threshold_scopes(network: Network) -> dict[str, tuple[str, ...]]:
    """Per-layer sorted tuple of threshold-bearing layers that can affect it.

    A layer's scope is the union of its inputs' scopes (walked through
    ``input_from`` and concat edges) plus the layer itself when a pruning
    threshold applies to it (fused-ReLU conv/FC or a standalone ReLU).
    Two threshold configurations that agree on a layer's scope yield
    bit-identical output for that layer.
    """
    scopes: dict[str, tuple[str, ...]] = {}
    for layer in network.layers:
        deps: set[str] = set()
        for src in network.inputs(layer.name):
            deps.update(scopes[src])
        if _is_prunable(layer):
            deps.add(layer.name)
        scopes[layer.name] = tuple(sorted(deps))
    return scopes


@dataclass
class EngineStats:
    """Cache effectiveness counters for one engine instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class IncrementalForwardEngine:
    """Batched forward passes with prefix reuse across threshold configs.

    Parameters
    ----------
    network, store:
        The network description and its (calibrated) weights.
    images:
        Image stack ``(batch, depth, H, W)`` — a single ``(depth, H, W)``
        image is promoted to a batch of one.  The stack is computed in its
        own floating dtype (see :func:`~repro.nn.inference.run_forward`).
    cache_bytes:
        LRU budget for cached layer outputs; defaults to the process
        settings' ``engine_cache_mb`` (512 MiB).
    label:
        Attribution label (typically the network name) for this engine's
        observability output: per-layer compute times are recorded as
        ``nn.layer.<label>.<layer>`` histograms and per-layer spans carry
        it, so a report can say *which network's* conv2 dominated.

    The engine intentionally does not support the quantization (``fmt``)
    or calibration (``shift_fn``) hooks of ``run_forward`` — none of the
    sweep paths use them, and calibration must observe raw pre-activations
    pass by pass.
    """

    def __init__(
        self,
        network: Network,
        store: WeightStore,
        images: np.ndarray,
        cache_bytes: int | None = None,
        label: str | None = None,
    ):
        self.network = network
        self.store = store
        self.images = image_stack(network, images)
        self.label = label if label is not None else network.name
        self.scopes = threshold_scopes(network)
        self.stats = EngineStats()
        if cache_bytes is None:
            cache_bytes = int(settings.current().engine_cache_mb * 1024 * 1024)
        self.cache_bytes = cache_bytes
        # (layer_name, signature) -> (out, logits); LRU order.
        self._cache: OrderedDict[tuple, tuple[np.ndarray, np.ndarray | None]] = (
            OrderedDict()
        )
        self._cache_used = 0
        # run() mutates the LRU; the serving worker pool calls it from
        # multiple threads (asyncio.to_thread), so serialize it.
        self._run_lock = threading.Lock()

    @property
    def batch(self) -> int:
        return self.images.shape[0]

    def _signature(
        self, name: str, thresholds: dict[str, float]
    ) -> tuple[tuple[str, float], ...]:
        return tuple(
            (dep, float(thresholds[dep]))
            for dep in self.scopes[name]
            if thresholds.get(dep)
        )

    def _remember(self, key: tuple, out: np.ndarray, logits: np.ndarray | None):
        size = out.nbytes + (logits.nbytes if logits is not None else 0)
        self._cache[key] = (out, logits)
        self._cache_used += size
        while self._cache_used > self.cache_bytes and len(self._cache) > 1:
            _, (old_out, old_logits) = self._cache.popitem(last=False)
            self._cache_used -= old_out.nbytes + (
                old_logits.nbytes if old_logits is not None else 0
            )
            self.stats.evictions += 1
            obs.counter_add("engine.cache.evictions")

    def admit(self, images: np.ndarray) -> np.ndarray:
        """Validate an externally-supplied stack for a one-off batched pass.

        The admission hook of the serving layer: checks and promotes the
        stack as every forward pass does (:func:`~repro.nn.inference.
        image_stack`) and records the admission in the metrics registry
        (``engine.admitted.batches`` / ``engine.admitted.images``).
        """
        images = image_stack(self.network, images)
        obs.counter_add("engine.admitted.batches")
        obs.counter_add("engine.admitted.images", images.shape[0])
        return images

    def run_stack(
        self,
        images: np.ndarray,
        thresholds: dict[str, float] | None = None,
        collect_conv_inputs: bool = True,
        keep_outputs: bool = False,
        collect_logits: bool = True,
    ) -> ForwardResult:
        """Batched forward of an *admitted* external stack (serving batches).

        Unlike :meth:`run`, the stack is per-call, so the result bypasses
        the threshold-signature cache (whose keys assume the engine's own
        fixed images) — but shares the network, calibrated store, and the
        batched layer path, keeping the output bit-identical to stacking
        per-image :func:`~repro.nn.inference.run_forward` calls.  With
        ``collect_logits=False`` the pass stops at the last conv layer's
        input (see :func:`~repro.nn.inference.run_forward`): a batch that
        reads only conv inputs never computes the FC classifier.
        """
        images = self.admit(images)
        with obs.span(
            "engine.run_stack", cat="nn", network=self.label,
            batch=images.shape[0], thresholds=len(thresholds or {}),
        ):
            return run_forward(
                self.network,
                self.store,
                images,
                thresholds=thresholds,
                collect_conv_inputs=collect_conv_inputs,
                keep_outputs=keep_outputs,
                collect_logits=collect_logits,
            )

    def run(
        self,
        thresholds: dict[str, float] | None = None,
        collect_conv_inputs: bool = True,
        keep_outputs: bool = False,
    ) -> ForwardResult:
        """Forward the whole image stack under one threshold configuration.

        Returns a batched :class:`ForwardResult` bit-identical to stacking
        per-image ``run_forward`` results.  Layers whose threshold
        signature matches a cached entry are replayed from the cache; the
        rest compute (batched) and populate it.  Use
        :func:`~repro.nn.inference.slice_result` for per-image views.
        """
        with self._run_lock:
            return self._run_locked(
                thresholds, collect_conv_inputs, keep_outputs
            )

    def _run_locked(
        self,
        thresholds: dict[str, float] | None,
        collect_conv_inputs: bool,
        keep_outputs: bool,
    ) -> ForwardResult:
        network, store = self.network, self.store
        thresholds = thresholds or {}
        outputs: dict[str, np.ndarray] = {}
        conv_inputs: dict[str, np.ndarray] = {}
        logits: np.ndarray | None = None
        obs.counter_add("engine.runs")

        with obs.span(
            "engine.run", cat="nn", network=self.label, batch=self.batch,
            thresholds=len(thresholds),
        ):
            for layer in network.layers:
                key = (layer.name, self._signature(layer.name, thresholds))
                cached = self._cache.get(key)
                src = None
                if cached is None or layer.kind != LayerKind.CONCAT:
                    src = _gather_input(network, layer, outputs, self.images)
                if layer.kind == LayerKind.CONV and collect_conv_inputs:
                    conv_inputs[layer.name] = src
                with obs.span(
                    f"layer:{layer.name}", cat="nn", network=self.label,
                    kind=layer.kind, hit=cached is not None,
                ) as layer_span:
                    if cached is not None:
                        self._cache.move_to_end(key)
                        self.stats.hits += 1
                        obs.counter_add("engine.cache.hits")
                        out, layer_logits = cached
                    else:
                        self.stats.misses += 1
                        obs.counter_add("engine.cache.misses")
                        compute_start = time.perf_counter()
                        if layer.kind == LayerKind.CONCAT:
                            out, layer_logits = src, None
                        else:
                            out, layer_logits = apply_layer(
                                layer, src, store, thresholds
                            )
                        obs.observe(
                            f"nn.layer.{self.label}.{layer.name}",
                            time.perf_counter() - compute_start,
                        )
                        self._remember(key, out, layer_logits)
                    if obs.tracing_enabled():
                        layer_span.set(shape=str(out.shape))
                if layer_logits is not None:
                    logits = layer_logits
                outputs[layer.name] = out
                if not keep_outputs:
                    for name in network.last_reads(layer.name):
                        del outputs[name]

        return ForwardResult(
            outputs=outputs if keep_outputs else {},
            conv_inputs=conv_inputs,
            logits=logits,
        )
