"""Multi-backend speedup comparison over the DaDianNao baseline.

Every registered backend except the baseline itself (discovery through
:mod:`repro.backends` — the table grows a column when a backend
registers) is timed at a ladder of activation-pruning thresholds, giving
a fig9-style speedup table that places the paper's CNV between the
zero-gating lower bound and the weight-sparsity follow-ups:

* ``gated`` — baseline cycles by construction (speedup 1.0); its savings
  are energy-only.
* ``cnv`` — the paper's activation skipping; rises with pruning delta.
* ``cnv2`` — activation *and* weight skipping; the offset-pair
  intersection can never dispatch more than CNV does, so its speedup is
  asserted ``>= cnv`` at every threshold (a model invariant, not a
  statistical observation).
* ``scnn`` — compressed-sparse Cartesian-product dataflow; its multiply
  count is cross-validated against an independently-accumulated
  effectual-pair count (``scnn_mults`` must equal ``scnn_pairs``
  exactly) before the speedup is reported.

Weight-sparse backends run at
:data:`~repro.backends.weights.DEFAULT_WEIGHT_SPARSITY` magnitude
pruning.  Per-(network, delta) timings and the pair counts persist to
the artifact cache, so the parallel runner's assembly pass (and any
rerun) reproduces the table byte-identically without recomputation.
"""

from __future__ import annotations

import numpy as np

from repro.backends import (
    DEFAULT_WEIGHT_SPARSITY,
    backend_names,
    effectual_pair_count,
)
from repro.baseline.timing import conv_works_from_inputs
from repro.core.pruning import raw_to_real
from repro.experiments.context import ExperimentContext, thresholds_key
from repro.experiments.report import ExperimentResult
from repro.experiments.thresholds import quantile_thresholds

__all__ = ["run", "DELTAS", "compared_backends", "scnn_pair_count"]

#: Activation-pruning percentile knobs compared (0.0 = no pruning).
DELTAS = (0.0, 0.10, 0.30, 0.50)


def compared_backends() -> list[str]:
    """Every registered backend except the baseline (the denominator)."""
    return [name for name in backend_names() if name != "baseline"]


def _pruning_thresholds(
    ctx: ExperimentContext, name: str, delta: float
) -> dict[str, float] | None:
    if delta <= 0.0:
        return None
    raw = quantile_thresholds(ctx, name, delta)
    return {k: raw_to_real(v) for k, v in raw.items() if v}


def scnn_pair_count(
    ctx: ExperimentContext,
    name: str,
    thresholds: dict[str, float] | None,
    weight_sparsity: float = DEFAULT_WEIGHT_SPARSITY,
) -> int:
    """Network-total effectual (weight x activation) pairs, image 0.

    Accumulated channel-sum-wise in :func:`effectual_pair_count` — a
    different order than the SCNN timing model's per-output product maps
    — and persisted as its own artifact, so the cross-check against the
    model's ``mults`` counter stays an independent derivation even on a
    cache-warm assembly pass.
    """
    params = {
        "network": name,
        "thresholds": [list(item) for item in thresholds_key(thresholds)],
        "weight_sparsity": float(weight_sparsity),
    }
    payload = ctx.artifacts.load("scnn_pairs", **params)
    if payload is not None:
        return int(payload["pairs"])
    nctx = ctx.network_ctx(name)
    fwd = ctx.forward(name, 0, thresholds=thresholds)
    weights = ctx.pruned_conv_weights(name, weight_sparsity)
    pairs = sum(
        effectual_pair_count(work, weights[work.name])
        for work in conv_works_from_inputs(nctx.network, fwd.conv_inputs)
    )
    ctx.artifacts.store("scnn_pairs", {"pairs": pairs}, **params)
    return pairs


def run(ctx: ExperimentContext) -> ExperimentResult:
    backends = compared_backends()
    rows = []
    sums: dict[tuple[float, str], list[float]] = {}
    for name in ctx.config.networks:
        for delta in DELTAS:
            thresholds = _pruning_thresholds(ctx, name, delta)
            row: dict = {"network": name, "delta": delta}
            for backend in backends:
                speedup = ctx.speedup(backend, name, thresholds)
                row[backend] = speedup
                sums.setdefault((delta, backend), []).append(speedup)
            if "cnv2" in row and "cnv" in row and row["cnv2"] < row["cnv"]:
                raise RuntimeError(
                    f"CNV2 slower than CNV on {name} at delta={delta}: "
                    f"{row['cnv2']:.4f} < {row['cnv']:.4f} — the offset-pair "
                    "intersection invariant is broken"
                )
            if "scnn" in row:
                timing = ctx.timing("scnn", name, thresholds)
                mults = int(
                    sum(
                        layer.counters.counts.get("mults", 0.0)
                        for layer in timing.layers
                        if layer.kind == "conv"
                    )
                )
                pairs = scnn_pair_count(ctx, name, thresholds)
                if mults != pairs:
                    raise RuntimeError(
                        f"SCNN multiply count diverges from the analytic "
                        f"effectual-pair count on {name} at delta={delta}: "
                        f"{mults} != {pairs}"
                    )
                row["scnn_mults"] = mults
                row["scnn_pairs"] = pairs
            rows.append(row)
    for delta in DELTAS:
        summary: dict = {"network": "average", "delta": delta}
        for backend in backends:
            summary[backend] = float(np.mean(sums[(delta, backend)]))
        rows.append(summary)
    return ExperimentResult(
        experiment="fig9_backends",
        title="Speedup of every registered backend over the baseline",
        rows=rows,
        notes="delta = activation-pruning percentile knob (0.0 = no "
        "pruning); weight-sparse backends (cnv2, scnn) run at "
        f"{DEFAULT_WEIGHT_SPARSITY:.0%} magnitude-pruned weights; "
        "scnn_mults == scnn_pairs is the enforced Cartesian-product "
        "cross-check, and cnv2 >= cnv is asserted per row.",
    )
