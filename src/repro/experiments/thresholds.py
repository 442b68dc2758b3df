"""Per-layer pruning-threshold derivation for the six networks.

The paper finds per-layer power-of-two thresholds by gradient-descent
exploration against measured ImageNet accuracy (Section V-E).  We
demonstrate that exact search end-to-end on the trained small CNN
(:mod:`repro.nn.training` + :class:`repro.core.pruning.ThresholdSearcher`);
for the six calibrated networks — whose random weights have no trained
accuracy — thresholds come from a *single-knob percentile rule*:

    threshold(layer) = largest power of two (in fixed-point LSBs) at or
    below the delta-quantile of the layer's live (non-zero) output
    magnitudes,

and the knob ``delta`` is raised while the pruned network still reproduces
the unpruned network's top-1 predictions on every sample image (the
"lossless" criterion; prediction stability substitutes for accuracy, see
DESIGN.md).  For google, thresholds are shared per inception module as in
the paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pruning import raw_to_real
from repro.experiments.context import ExperimentContext
from repro.nn.tensor import DEFAULT_FORMAT

__all__ = [
    "ThresholdSweepPoint",
    "quantile_thresholds",
    "lossless_thresholds",
    "threshold_groups",
    "sweep_deltas",
]

#: Percentile knob ladder explored for the lossless search and Fig. 14.
DEFAULT_DELTAS = (0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.60)


def _largest_power_of_two_at_most(raw: float) -> int:
    if raw < 1.0:
        return 0
    return 1 << int(np.floor(np.log2(raw)))


def threshold_groups(ctx: ExperimentContext, name: str) -> dict[str, str]:
    """Map conv layers to threshold groups (inception modules for google)."""
    network = ctx.network_structure(name)
    groups: dict[str, str] = {}
    for layer in network.conv_layers:
        if name == "google" and layer.name.startswith("inception_"):
            groups[layer.name] = layer.name.split("/")[0]
        else:
            groups[layer.name] = layer.name
    return groups


def quantile_thresholds(
    ctx: ExperimentContext, name: str, delta: float
) -> dict[str, int]:
    """Raw per-conv-layer thresholds at percentile ``delta``.

    Thresholds apply to each layer's *output* (where the CNV encoder
    compares); grouped layers (google inception modules) share the group's
    minimum so no layer in the group prunes above its own delta-quantile.
    """
    cached = ctx.artifacts.load("quantile_thresholds", network=name, delta=delta)
    if cached is not None:
        return {layer: int(value) for layer, value in cached.items()}
    magnitudes = _output_magnitudes(ctx, name)
    groups = threshold_groups(ctx, name)
    per_layer: dict[str, int] = {}
    for layer, mags in magnitudes.items():
        if mags.size == 0:
            per_layer[layer] = 0
            continue
        q = float(np.quantile(mags, delta))
        per_layer[layer] = _largest_power_of_two_at_most(q * DEFAULT_FORMAT.scale)
    # Enforce group sharing.
    group_min: dict[str, int] = {}
    for layer, raw in per_layer.items():
        group = groups[layer]
        group_min[group] = min(group_min.get(group, raw), raw)
    result = {layer: group_min[groups[layer]] for layer in per_layer}
    ctx.artifacts.store("quantile_thresholds", result, network=name, delta=delta)
    return result


def _output_magnitudes(ctx: ExperimentContext, name: str) -> dict[str, np.ndarray]:
    """|non-zero| output magnitudes per fused-ReLU conv layer (image 0)."""
    cache_attr = "_output_magnitudes_cache"
    cache = getattr(ctx, cache_attr, None)
    if cache is None:
        cache = {}
        setattr(ctx, cache_attr, cache)
    if name in cache:
        return cache[name]
    nctx = ctx.network_ctx(name)
    result = ctx.engine(name).run(collect_conv_inputs=False, keep_outputs=True)
    out: dict[str, np.ndarray] = {}
    for layer in nctx.network.conv_layers:
        if not layer.fused_relu:
            continue
        arr = result.outputs[layer.name][0]
        live = np.abs(arr[arr != 0.0])
        # Subsample huge layers: quantiles need only a sketch.
        if live.size > 200_000:
            rng = np.random.default_rng(0)
            live = rng.choice(live, size=200_000, replace=False)
        out[layer.name] = live
    cache[name] = out
    return out


@dataclass
class ThresholdSweepPoint:
    """One evaluated percentile knob setting for one network."""

    delta: float
    raw_thresholds: dict[str, int]
    stability: float
    speedup: float


def _real_thresholds(raw: dict[str, int]) -> dict[str, float]:
    return {k: raw_to_real(v) for k, v in raw.items() if v}


def sweep_deltas(
    ctx: ExperimentContext,
    name: str,
    deltas: tuple[float, ...] = DEFAULT_DELTAS,
    stop_below_stability: float | None = None,
) -> list[ThresholdSweepPoint]:
    """Evaluate the percentile ladder: (stability, speedup) per delta.

    With ``stop_below_stability`` set, the sweep stops once stability falls
    below it (used by the lossless search to avoid pointless forwards).
    """
    cache = getattr(ctx, "_sweep_point_cache", None)
    if cache is None:
        cache = {}
        setattr(ctx, "_sweep_point_cache", cache)
    points: list[ThresholdSweepPoint] = []
    for delta in deltas:
        key = (name, delta)
        if key not in cache:
            stored = ctx.artifacts.load("sweep_point", network=name, delta=delta)
            if stored is not None:
                cache[key] = ThresholdSweepPoint(
                    delta=delta,
                    raw_thresholds={
                        k: int(v) for k, v in stored["raw_thresholds"].items()
                    },
                    stability=stored["stability"],
                    speedup=stored["speedup"],
                )
            else:
                raw = quantile_thresholds(ctx, name, delta)
                thresholds = _real_thresholds(raw)
                point = ThresholdSweepPoint(
                    delta=delta,
                    raw_thresholds=raw,
                    stability=ctx.prediction_stability(name, thresholds),
                    speedup=ctx.speedup("cnv", name, thresholds),
                )
                ctx.artifacts.store(
                    "sweep_point",
                    {
                        "raw_thresholds": point.raw_thresholds,
                        "stability": point.stability,
                        "speedup": point.speedup,
                    },
                    network=name,
                    delta=delta,
                )
                cache[key] = point
        point = cache[key]
        points.append(point)
        if stop_below_stability is not None and point.stability < stop_below_stability:
            break
    return points


def lossless_thresholds(
    ctx: ExperimentContext,
    name: str,
    deltas: tuple[float, ...] = DEFAULT_DELTAS,
) -> ThresholdSweepPoint:
    """Largest-delta configuration that keeps every prediction unchanged.

    Returns the Table II row analogue for one network (falls back to
    no pruning when even the smallest delta already flips a prediction).
    """
    points = sweep_deltas(ctx, name, deltas, stop_below_stability=1.0)
    lossless = [p for p in points if p.stability >= 1.0]
    if not lossless:
        return ThresholdSweepPoint(
            delta=0.0,
            raw_thresholds={k: 0 for k in quantile_thresholds(ctx, name, deltas[0])},
            stability=1.0,
            speedup=ctx.speedup("cnv", name),
        )
    return max(lossless, key=lambda p: p.speedup)
