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
computed through the batched paths of :mod:`repro.nn.layers`, so one
engine pass replaces ``batch`` per-image :func:`~repro.nn.inference.run_forward`
calls — bit-identically (differential-tested in
``tests/test_forward_engine.py``).

The cache is bounded by a byte budget (``CNVLUTIN_ENGINE_CACHE_MB``
environment variable, default 512 MiB) with LRU eviction; the engine
never caches less than the most recent entry, so it degrades to plain
recomputation under tiny budgets rather than failing.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.nn import sparse as zskip
from repro.nn.inference import (
    ForwardResult,
    WeightStore,
    _consumer_counts,
    _producer_output,
    _release_consumed,
    apply_layer,
    run_forward,
)
from repro.nn.network import LayerKind, LayerSpec, Network

__all__ = [
    "IncrementalForwardEngine",
    "EngineStats",
    "threshold_scopes",
    "slice_result",
    "attach_shared_weights",
    "attached_arenas",
]

#: Default LRU cache budget in MiB; override with CNVLUTIN_ENGINE_CACHE_MB.
DEFAULT_CACHE_MB = 512.0


def _cache_budget_bytes() -> int:
    """The ``CNVLUTIN_ENGINE_CACHE_MB`` budget in bytes, validated.

    A non-numeric, negative, or non-finite value falls back to the
    default with a warning — a bad environment variable must never make
    an import or a first forward pass raise.
    """
    import math
    import warnings

    raw = os.environ.get("CNVLUTIN_ENGINE_CACHE_MB")
    if raw is None:
        return int(DEFAULT_CACHE_MB * 1024 * 1024)
    try:
        budget_mb = float(raw)
    except ValueError:
        budget_mb = -1.0
    if not math.isfinite(budget_mb) or budget_mb < 0:
        warnings.warn(
            f"ignoring invalid CNVLUTIN_ENGINE_CACHE_MB={raw!r} "
            f"(expected a non-negative number); using the default "
            f"{DEFAULT_CACHE_MB:g} MiB",
            RuntimeWarning,
            stacklevel=3,
        )
        budget_mb = DEFAULT_CACHE_MB
    return int(budget_mb * 1024 * 1024)


def attach_shared_weights(manifest: dict) -> dict[str, WeightStore]:
    """Attach a published shared-memory weight arena as engine stores.

    Returns one read-only zero-copy :class:`WeightStore` view per
    network from an arena manifest (see :class:`repro.nn.shm.
    SharedWeightArena`) — the stores a sharded serving worker hands to
    its engines so N shards share one physical copy of every weight.
    The views record ``engine.shared.attached`` so a metrics snapshot
    shows which processes run on shared weights.
    """
    from repro.nn.shm import SharedWeightArena

    arena = SharedWeightArena.attach(manifest)
    # Keep the mapping object alive for the process lifetime: the views
    # pin the buffer, but letting the SharedMemory handle be collected
    # would run its close() finalizer against an exported buffer.
    _ATTACHED_ARENAS.append(arena)
    obs.counter_add("engine.shared.attached")
    obs.counter_add(
        "engine.shared.bytes", float(arena.manifest.get("bytes", 0))
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


def _producer_names(network: Network, index: int, layer: LayerSpec) -> list[str]:
    if layer.kind == LayerKind.CONCAT:
        return list(layer.input_from)
    if layer.input_from is not None:
        return [layer.input_from[0]]
    if index > 0:
        return [network.layers[index - 1].name]
    return []


def threshold_scopes(network: Network) -> dict[str, tuple[str, ...]]:
    """Per-layer sorted tuple of threshold-bearing layers that can affect it.

    A layer's scope is the union of its producers' scopes (walked through
    ``input_from`` and concat edges) plus the layer itself when a pruning
    threshold applies to it (fused-ReLU conv/FC or a standalone ReLU).
    Two threshold configurations that agree on a layer's scope yield
    bit-identical output for that layer.
    """
    scopes: dict[str, tuple[str, ...]] = {}
    for idx, layer in enumerate(network.layers):
        deps: set[str] = set()
        for src in _producer_names(network, idx, layer):
            deps.update(scopes[src])
        if _is_prunable(layer):
            deps.add(layer.name)
        scopes[layer.name] = tuple(sorted(deps))
    return scopes


def slice_result(result: ForwardResult, index: int) -> ForwardResult:
    """Single-image view (no copy) of a batched :class:`ForwardResult`."""
    return ForwardResult(
        outputs={name: arr[index] for name, arr in result.outputs.items()},
        conv_inputs={name: arr[index] for name, arr in result.conv_inputs.items()},
        logits=None if result.logits is None else result.logits[index],
    )


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
        LRU budget for cached layer outputs; defaults to the
        ``CNVLUTIN_ENGINE_CACHE_MB`` environment variable (512 MiB).
    label:
        Attribution label (typically the network name) for this engine's
        observability output: per-layer compute times are recorded as
        ``nn.layer.<label>.<layer>`` histograms and per-layer spans carry
        it, so a report can say *which network's* conv2 dominated.

    The engine intentionally does not support the quantization (``fmt``/
    ``formats``) or calibration (``shift_fn``) hooks of ``run_forward`` —
    none of the sweep paths use them, and calibration must observe raw
    pre-activations pass by pass.
    """

    def __init__(
        self,
        network: Network,
        store: WeightStore,
        images: np.ndarray,
        cache_bytes: int | None = None,
        label: str | None = None,
    ):
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[np.newaxis]
        if images.ndim != 4 or images.shape[1:] != network.input_shape:
            raise ValueError(
                f"image stack shape {images.shape} incompatible with network "
                f"input {network.input_shape}"
            )
        if not np.issubdtype(images.dtype, np.floating):
            images = images.astype(np.float64)
        self.network = network
        self.store = store
        self.images = images
        self.label = label if label is not None else network.name
        self.scopes = threshold_scopes(network)
        self.stats = EngineStats()
        if cache_bytes is None:
            cache_bytes = _cache_budget_bytes()
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

        The admission hook of the serving layer: promotes a single
        ``(depth, H, W)`` image to a batch of one, checks the shape
        against the network input, promotes integer dtypes to float64
        (the ``run_forward`` contract), and records the admission in the
        metrics registry (``engine.admitted.batches`` /
        ``engine.admitted.images``).
        """
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[np.newaxis]
        if images.ndim != 4 or images.shape[1:] != self.network.input_shape:
            raise ValueError(
                f"admitted stack shape {images.shape} incompatible with "
                f"network input {self.network.input_shape}"
            )
        if not np.issubdtype(images.dtype, np.floating):
            images = images.astype(np.float64)
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
        rest compute (batched) and populate it.  Use :func:`slice_result`
        for per-image views.
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
        remaining = _consumer_counts(network)
        obs.counter_add("engine.runs")

        with obs.span(
            "engine.run", cat="nn", network=self.label, batch=self.batch,
            thresholds=len(thresholds),
        ):
            for idx, layer in enumerate(network.layers):
                key = (layer.name, self._signature(layer.name, thresholds))
                cached = self._cache.get(key)
                if layer.kind == LayerKind.CONCAT:
                    src = None
                    if cached is None:
                        parts = [outputs[s] for s in layer.input_from]
                        src = np.concatenate(parts, axis=1)
                else:
                    src = _producer_output(network, idx, layer, outputs, self.images)
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
                        sparse_records = []
                    else:
                        self.stats.misses += 1
                        obs.counter_add("engine.cache.misses")
                        compute_start = time.perf_counter()
                        zskip.pop_records()  # scope records to this layer
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
                        sparse_records = zskip.pop_records()
                        self._remember(key, out, layer_logits)
                    if obs.tracing_enabled():
                        layer_span.set(shape=str(out.shape))
                        if sparse_records:
                            layer_span.set(**zskip.summarize_records(sparse_records))
                if layer_logits is not None:
                    logits = layer_logits
                outputs[layer.name] = out
                if not keep_outputs:
                    _release_consumed(network, idx, outputs, remaining)

        return ForwardResult(
            outputs=outputs if keep_outputs else {},
            conv_inputs=conv_inputs,
            logits=logits,
        )
