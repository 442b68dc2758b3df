"""Per-layer metrics: which program calls are wrapped, and what they yield.

Layers are the program's modules.  :func:`install` wraps their public
entry points with :class:`spans.Tracer`; :func:`derive` turns the spans
of a traced timed phase, the ``repro.obs`` counter deltas over the same
phase and the serving responses into the metrics of :func:`catalogue`.
Every name in the catalogue is printed on every workload, ``n/a`` where
the workload never reaches the layer.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

from common import Metric, median
from spans import Span, SpanIndex, Tracer

SIM_BACKENDS = ("baseline", "gated", "cnv", "cnv2", "scnn")
LAYER_NETWORKS = ("alex", "cnnS")
NN_LAYERS = ("conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8")
SIM_LAYERS = ("conv1", "conv2", "conv3", "conv4", "conv5")
NN_KINDS = ("conv", "fc", "pool", "lrn", "other")
EXPERIMENTS = (
    "fig1", "table1", "fig9", "fig9_backends", "fig10",
    "fig11", "fig12", "fig13", "table2", "fig14",
)
_KIND_OF = {"conv": "conv", "fc": "fc", "maxpool": "pool", "avgpool": "pool",
            "lrn": "lrn"}


def catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    items = [
        ("serve.queue_ms", "ms"),
        ("serve.batch_size", "req/batch"),
        ("serve.retries", "count"),
        ("serve.execute_ms", "ms"),
        ("serve.payload_ms", "ms"),
        ("router.hop_ms", "ms"),
        ("serve.latency_ms", "ms"),
        ("router.retries", "count"),
        ("router.shed", "count"),
        ("nn.datasets.image_ms", "ms"),
        ("engine.run_stack_ms", "ms"),
        ("engine.run_ms", "ms"),
        ("engine.cache.hit_ratio", "ratio"),
    ]
    items += [
        (f"nn.layer.{net}.{layer}_ms", "ms")
        for net in LAYER_NETWORKS for layer in NN_LAYERS
    ]
    items += [(f"nn.kind.{kind}_ms", "ms") for kind in NN_KINDS]
    items += [
        ("nn.sparse.gemm_ms", "ms"),
        ("nn.sparse.matvec_ms", "ms"),
        ("engine.sparse.skip_ratio", "ratio"),
    ]
    items += [(f"sim.{b}.network_ms", "ms") for b in SIM_BACKENDS]
    items += [
        (f"sim.{b}.{net}.{layer}_ms", "ms")
        for b in SIM_BACKENDS for net in LAYER_NETWORKS for layer in SIM_LAYERS
    ]
    items.append(("backends.prune_ms", "ms"))
    items += [(f"experiments.{name}_s", "s") for name in EXPERIMENTS]
    items += [
        ("experiments.context_ms", "ms"),
        ("experiments.thresholds_s", "s"),
        ("artifact.load_ms", "ms"),
        ("artifact.store_ms", "ms"),
        ("artifact.hit_ratio", "ratio"),
        ("setup.calibrate_s", "s"),
        ("setup.publish_s", "s"),
        ("setup.spawn_s", "s"),
        ("setup.warmup_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return items


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
def _network_of(args) -> dict:
    return {"network": args[0].name}


def install(tracer: Tracer, span_dir: Path) -> None:
    """Wrap the program's public calls; ``tracer.restore()`` undoes it.

    Forked shard processes inherit the wrappers; each writes its spans
    to ``span_dir`` when it shuts down.
    """
    import repro.backends.cnv2 as cnv2
    import repro.backends.scnn as scnn
    import repro.backends.weights as weights
    import repro.baseline.gated as gated
    import repro.baseline.timing as baseline_timing
    import repro.core.timing as core_timing
    import repro.experiments.runner as runner
    import repro.experiments.thresholds as thresholds
    import repro.nn.calibration as calibration
    import repro.nn.inference as inference
    import repro.nn.sparse as sparse
    import repro.serve.models as models
    import repro.serve.router as router
    from repro.backends.registry import Backend
    from repro.experiments.context import ExperimentContext
    from repro.experiments.manifest import ArtifactCache
    from repro.nn.engine import IncrementalForwardEngine
    from repro.nn.shm import SharedWeightArena
    from repro.serve.service import InferenceService

    # serve.service / serve.batcher / serve.models
    tracer.patch_method(
        InferenceService, "try_submit", "serve.try_submit",
        lambda a, k, r: {"ids": [a[1].id]},
    )
    tracer.patch_function(
        models, "execute_batch", "serve.execute_batch",
        lambda a, k, r: {"ids": [req.id for req in a[1]]},
    )
    # nn.datasets, reached through the request's synthetic image
    tracer.patch_function(models, "request_image", "nn.datasets.image")
    # nn.engine / nn.inference / nn.layers / nn.sparse
    def engine_attrs(args, kwargs, result):
        return {"network": args[0].label}

    tracer.patch_method(
        IncrementalForwardEngine, "run_stack", "engine.run_stack", engine_attrs
    )
    tracer.patch_method(IncrementalForwardEngine, "run", "engine.run", engine_attrs)
    tracer.patch_function(
        inference, "run_forward", "nn.run_forward",
        lambda a, k, r: _network_of(a),
    )
    tracer.patch_function(
        inference, "apply_layer", "nn.apply_layer",
        lambda a, k, r: {
            "layer": a[0].name,
            "kind": str(getattr(a[0].kind, "value", a[0].kind)),
            "batch": int(a[1].shape[0]) if a[1].ndim == 4 else 1,
        },
    )
    tracer.patch_function(sparse, "partitioned_gemm", "nn.sparse.gemm")
    tracer.patch_function(sparse, "partitioned_matvec", "nn.sparse.matvec")
    # core.timing / baseline / backends: the network-level timing
    # functions wherever they are imported, the registry's dispatch, and
    # each backend's per-layer simulator in its defining module (where
    # that backend's network-level function looks it up)
    for module, name, backend in (
        (baseline_timing, "baseline_network_timing", "baseline"),
        (core_timing, "cnv_network_timing", "cnv"),
    ):
        tracer.patch_function(
            module, name, "sim.network",
            lambda a, k, r, b=backend: {"backend": b, **_network_of(a)},
        )
    tracer.patch_method(
        Backend, "network_timing", "sim.network",
        lambda a, k, r: {"backend": a[0].name, "network": a[1].name},
    )
    for module, name, backend in (
        (baseline_timing, "baseline_conv_timing", "baseline"),
        (gated, "gated_conv_timing", "gated"),
        (core_timing, "cnv_conv_timing", "cnv"),
        (cnv2, "cnv2_conv_timing", "cnv2"),
        (scnn, "scnn_conv_timing", "scnn"),
    ):
        tracer.patch_function(
            module, name, "sim.conv",
            lambda a, k, r, b=backend: {"backend": b, "layer": a[0].name},
            everywhere=False,
        )
    tracer.patch_function(weights, "prune_conv_weights", "backends.prune")
    # experiments.runner / .context / .thresholds / .manifest
    for name in list(runner.EXPERIMENTS):
        tracer.patch_item(runner.EXPERIMENTS, name, f"experiments.{name}")
    for name in ("quantile_thresholds", "lossless_thresholds", "sweep_deltas"):
        tracer.patch_function(thresholds, name, "experiments.thresholds")
    tracer.patch_method(ExperimentContext, "network_ctx", "experiments.network_ctx")
    tracer.patch_method(ArtifactCache, "load", "artifact.load")
    tracer.patch_method(ArtifactCache, "store", "artifact.store")
    # set-up: nn.calibration, nn.shm
    tracer.patch_function(calibration, "calibrate_network", "nn.calibrate")
    tracer.patch_method(SharedWeightArena, "publish", "nn.shm.publish")

    original_run_shard = router.run_shard

    def run_shard(spec):
        tracer.forked_child()
        try:
            original_run_shard(spec)
        finally:
            tracer.dump(span_dir / f"shard{spec.index}-{os.getpid()}.jsonl")

    tracer.patch_attr(router, "run_shard", run_shard)


# ----------------------------------------------------------------------
# derivation
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return seconds * 1e3


def derive(
    timed: list[Span],
    setup: list[Span],
    counters: dict,
    responses: list[tuple[float, object]],
    regenerations: int | None,
    overhead: float,
) -> list[Metric]:
    """The catalogue's metrics from one traced run.

    ``timed`` and ``setup`` are the spans inside the traced timed phase
    and the traced set-up; ``counters`` the ``repro.obs`` counter deltas
    over the timed phase; ``responses`` (client latency ms, response)
    pairs on serving workloads; ``regenerations`` the number of timed
    regenerations on offline-regen (None elsewhere).
    """
    index = SpanIndex(timed)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in timed:
        by_name[span.name].append(span)
    values: dict[str, Metric] = {}

    def put(name, value, unit, samples=None, base=None):
        values[name] = Metric(name, value, unit, samples, base)

    def put_median(name, samples, unit="ms"):
        if samples:
            put(name, median(samples), unit, len(samples))

    def put_ratio(name, part, whole, base_label):
        if whole > 0:
            put(name, part / whole, "ratio", None, f"{base_label}={whole:.0f}")

    def counter(name):
        return float(counters.get(name, 0.0))

    # serve.service / serve.batcher / serve.models
    batches = by_name["serve.execute_batch"]
    submitted = {
        (s.pid, s.attrs["ids"][0]): s.start for s in by_name["serve.try_submit"]
    }
    queue = [
        _ms(batch.start - submitted[(batch.pid, rid)])
        for batch in batches for rid in batch.attrs["ids"]
        if (batch.pid, rid) in submitted
    ]
    put_median("serve.queue_ms", queue)
    if batches:
        sizes = [len(batch.attrs["ids"]) for batch in batches]
        put("serve.batch_size", sum(sizes) / len(sizes), "req/batch",
            len(sizes), f"batches={len(sizes)}")
    serving = counter("serve.requests") > 0 or bool(batches)
    if serving:
        put("serve.retries", counter("serve.retries"), "count")
    put_median("serve.execute_ms", [_ms(b.duration) for b in batches])
    put_median("serve.payload_ms", [_ms(index.self_time(b)) for b in batches])

    # serve.router / serve.shard / serve.hashring
    routed = counter("router.requests") > 0
    ok = [(client, r) for client, r in responses if r.status == "ok"]
    if routed:
        put_median("router.hop_ms", [c - r.latency_ms for c, r in ok])
        put("router.retries", counter("router.retries"), "count")
        put("router.shed", counter("router.shed"), "count")
    put_median("serve.latency_ms", [r.latency_ms for _, r in ok])

    # nn.datasets / nn.engine
    put_median("nn.datasets.image_ms",
               [_ms(s.duration) for s in by_name["nn.datasets.image"]])
    put_median("engine.run_stack_ms",
               [_ms(s.duration) for s in by_name["engine.run_stack"]])
    put_median("engine.run_ms", [_ms(s.duration) for s in by_name["engine.run"]])
    hits, misses = counter("engine.cache.hits"), counter("engine.cache.misses")
    put_ratio("engine.cache.hit_ratio", hits, hits + misses, "lookups")

    # nn.inference / nn.layers / nn.sparse
    per_image: dict[tuple, list[float]] = defaultdict(list)
    per_kind: dict[str, float] = defaultdict(float)
    for span in by_name["nn.apply_layer"]:
        network = index.ancestor_attr(span, "network")
        per_image[(network, span.attrs["layer"])].append(
            _ms(span.duration) / span.attrs["batch"]
        )
        per_kind[_KIND_OF.get(span.attrs["kind"], "other")] += span.duration
    for net in LAYER_NETWORKS:
        for layer in NN_LAYERS:
            put_median(f"nn.layer.{net}.{layer}_ms", per_image.get((net, layer)))
    if regenerations:
        for kind in NN_KINDS:
            if kind in per_kind:
                put(f"nn.kind.{kind}_ms", _ms(per_kind[kind]) / regenerations,
                    "ms", regenerations, f"regenerations={regenerations}")
    put_median("nn.sparse.gemm_ms", [_ms(s.duration) for s in by_name["nn.sparse.gemm"]])
    put_median("nn.sparse.matvec_ms",
               [_ms(s.duration) for s in by_name["nn.sparse.matvec"]])
    put_ratio("engine.sparse.skip_ratio", counter("engine.sparse.macs.skipped"),
              counter("engine.sparse.macs.total"), "macs")

    # core.timing / baseline / backends
    networks: dict[str, list[float]] = defaultdict(list)
    for span in by_name["sim.network"]:
        networks[span.attrs["backend"]].append(_ms(span.duration))
    convs: dict[tuple, list[float]] = defaultdict(list)
    for span in by_name["sim.conv"]:
        key = (span.attrs["backend"], index.ancestor_attr(span, "network"),
               span.attrs["layer"])
        convs[key].append(_ms(span.duration))
    for backend in SIM_BACKENDS:
        put_median(f"sim.{backend}.network_ms", networks.get(backend))
    for backend in SIM_BACKENDS:
        for net in LAYER_NETWORKS:
            for layer in SIM_LAYERS:
                put_median(f"sim.{backend}.{net}.{layer}_ms",
                           convs.get((backend, net, layer)))
    put_median("backends.prune_ms", [_ms(s.duration) for s in by_name["backends.prune"]])

    # experiments.runner / .context / .thresholds / .manifest
    for name in EXPERIMENTS:
        put_median(f"experiments.{name}_s",
                   [s.duration for s in by_name[f"experiments.{name}"]], "s")
    if regenerations:
        base = f"regenerations={regenerations}"
        contexts = by_name["experiments.network_ctx"]
        put("experiments.context_ms",
            _ms(sum(s.duration for s in contexts)) / regenerations, "ms",
            regenerations, base)
        # the threshold functions call each other: count outermost calls
        searches = [
            s for s in by_name["experiments.thresholds"]
            if not index.has_ancestor(s, {"experiments.thresholds"})
        ]
        put("experiments.thresholds_s",
            sum(s.duration for s in searches) / regenerations, "s",
            regenerations, base)
    put_median("artifact.load_ms", [_ms(s.duration) for s in by_name["artifact.load"]])
    put_median("artifact.store_ms", [_ms(s.duration) for s in by_name["artifact.store"]])
    hits, misses = counter("artifact.hits"), counter("artifact.misses")
    put_ratio("artifact.hit_ratio", hits, hits + misses, "lookups")

    # set-up
    setup_index = SpanIndex(setup)
    calibrations = [s for s in setup if s.name == "nn.calibrate"]
    if calibrations:
        put("setup.calibrate_s", sum(s.duration for s in calibrations), "s",
            len(calibrations))
    publishes = [s for s in setup if s.name == "nn.shm.publish"]
    if publishes:
        put("setup.publish_s", sum(s.duration for s in publishes), "s",
            len(publishes))
    for span in setup:
        if span.name == "setup.spawn":
            # start() minus the calibration and publish it triggers
            put("setup.spawn_s", setup_index.self_time(span), "s", 1)
        elif span.name == "setup.warmup":
            put("setup.warmup_s", span.duration, "s", 1)

    put("trace.overhead_frac", overhead, "ratio", 1,
        "untraced run of the same work")
    return [values.get(name) or Metric(name, None, unit)
            for name, unit in catalogue()]
