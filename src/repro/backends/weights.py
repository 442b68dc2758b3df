"""Deterministic magnitude pruning of conv weights.

The weight-sparse backends (Cnvlutin2, SCNN) skip *ineffectual weights* —
weights that are exactly zero.  The calibrated paper networks carry
He-initialized Gaussian weights with no exact zeros, so weight sparsity
is induced the way the pruning literature does: zero the smallest-
magnitude fraction of each conv layer's weights.  The cut is a per-layer
quantile of ``|w|``, so the derivation is a pure function of the weights
themselves — every process (experiment worker, serving shard, direct
reference path) derives bit-identical masks, which is what lets the
serving differential tests demand byte-equal timing payloads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_WEIGHT_SPARSITY",
    "prune_weights",
    "prune_input_channels",
    "prune_conv_weights",
]

#: Fraction of each conv layer's weights zeroed for the weight-sparse
#: backends when no explicit sparsity is requested (CNV2's offset streams
#: and SCNN's compressed weights both presume a pruned model).
DEFAULT_WEIGHT_SPARSITY = 0.5


def prune_weights(weights: np.ndarray, fraction: float) -> np.ndarray:
    """Zero the smallest-magnitude ``fraction`` of ``weights``.

    The threshold is the ``fraction``-quantile of ``|weights|``; ties at
    the cut prune together (deterministic, order-independent).
    ``fraction <= 0`` returns the input unchanged (no copy).

    The cut equals ``np.quantile(np.abs(weights), fraction)`` bit for
    bit without its sorted copy: the lower of the two order statistics
    that quantile interpolates between is selected in place in the fresh
    ``|w|``, through its unsigned-integer view (non-negative floats order
    like their bit patterns, NaN last), the upper one is the minimum of
    the part above it, and ``np.quantile`` interpolates between just
    those two at the same fraction, with the same dtype promotion.
    ``|w|`` is then recomputed into the same buffer for the mask, so the
    peak stays at three arrays: ``|w|``, the mask and the result.
    """
    if fraction <= 0.0:
        return weights
    if not fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    magnitudes = np.abs(weights).reshape(-1)
    # np.quantile's linear method: virtual index (n - 1) * q, the order
    # statistics at its floor and the next index, weighted by the rest.
    position = (magnitudes.size - 1) * np.asanyarray(fraction)
    below = np.floor(position)
    gamma = position - below
    lower = int(below)
    bits = magnitudes.view(np.dtype(f"u{magnitudes.itemsize}"))
    bits.partition(lower)
    above = bits[lower + 1 :]
    if above.size:
        stats = [bits[lower], above.min(), above.max()]
    else:
        stats = [bits[lower]] * 3
    lower_value, upper_value, top = np.array(stats, dtype=bits.dtype).view(
        magnitudes.dtype
    )
    if np.isnan(top):
        cutoff = top  # np.quantile answers NaN: nothing is pruned
    else:
        weak = type(fraction) in (int, float)
        cutoff = np.quantile(
            np.array([lower_value, upper_value]),
            float(gamma) if weak else gamma,
        )
    np.abs(weights, out=magnitudes.reshape(weights.shape))
    return np.where(magnitudes.reshape(weights.shape) <= cutoff, 0.0, weights)


def prune_input_channels(weights: np.ndarray, fraction: float) -> np.ndarray:
    """Zero the lowest-energy ``fraction`` of *input channels*, all filters.

    Channel-structured pruning: the channels with the smallest summed
    |w| across every filter are zeroed everywhere.  Because the zeros
    align across filters, CNV2's pass-wide offset union actually thins —
    this is the sparsity structure under which CNV2 beats CNV *strictly*
    (unstructured magnitude pruning leaves the union dense for any
    realistic filter count: an offset is skippable only when every
    filter of the pass is zero there).  ``weights`` is a conv filter
    bank ``(filters, depth, Ky, Kx)``.
    """
    if fraction <= 0.0:
        return weights
    if not fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    energy = np.abs(weights).sum(axis=(0, 2, 3))
    cutoff = np.quantile(energy, fraction)
    pruned = weights.copy()
    pruned[:, energy <= cutoff, :, :] = 0.0
    return pruned


def prune_conv_weights(
    network, weights: dict[str, np.ndarray], fraction: float
) -> dict[str, np.ndarray]:
    """Per-conv-layer pruned weights for ``network``.

    Only conv layers are returned — the analytic backend models consume
    exactly one weight array per :class:`~repro.baseline.workload.ConvWork`.
    """
    return {
        layer.name: prune_weights(weights[layer.name], fraction)
        for layer in network.conv_layers
    }
