"""Analytic timing model of Cnvlutin2: skip ineffectual weights too.

Cnvlutin skips ineffectual *activations*: a lane spends one cycle per
non-zero ``(value, offset)`` pair of each ZFNAf brick it owns.  Cnvlutin2
(the follow-up sketched in the paper's conclusion and developed by
Judd et al.) additionally skips activations whose products would all be
ineffectual because the *weights* at that input channel are zero: the
front end intersects the activation brick's offset stream with a
pruned-weight offset stream and dispatches only the offsets present in
both.

The model here keeps CNV's structure — brick-interleaved lane
assignment, window-boundary synchronization, ``empty_brick_cycles`` NM
supply cost — and changes only the per-brick cost:

    cost(brick) = max(|nz(activations) ∩ union_nz(weights)|,
                      empty_brick_cycles)

where ``union_nz(weights)`` is, for the brick's (fy, fx, bz) position,
the set of in-brick offsets at which *any* filter of the current pass
holds a non-zero weight (the weight offset stream is shared per pass —
one synapse column per filter, so an offset is skippable only when every
filter of the pass is zero there).  Because the intersection can never
exceed the activation non-zero count, every brick costs at most its CNV
cost: CNV2 cycles <= CNV cycles layer by layer, for any weights — the
invariant the fig9_backends acceptance check and the conformance suite
pin.  Dense (unpruned) weights reduce the model to CNV exactly.

Each pruned filter bank's per-pass offset unions are derived once
(:func:`pass_unions`, held in :func:`repro.nn.memo.derived` while the
bank lives).  A layer's activation side is then two whole-array
contractions: the dispatched counts of every pass, tap and brick as one
batched matrix product over the brick slots
(:func:`pair_intersection_counts`), and every window's lane cycles as one
matrix product of those costs with the lane assignment.  Every summed
quantity is an integer-valued float far below its type's exact-integer
limit, so the results equal, bit for bit, the per-pass, per-tap loop
they replace (kept as an oracle in ``tests/``).

First-layer convolutions take the unencoded baseline path, exactly like
CNV (the raw image is not ZFNAf-encoded).  The brick/offset bookkeeping
matches :mod:`repro.core.zfnaf` brick alignment (depth padded to a
multiple of ``brick_size``; padding slots are zero, hence ineffectual),
and the property tests cross-validate the intersection counts against
brute force over :class:`~repro.core.zfnaf.ZfnafArray` bricks.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.other_layers import other_layers_timing
from repro.baseline.timing import baseline_conv_timing, conv_works_from_inputs
from repro.baseline.workload import (
    WINDOW_CHUNK_ELEMENTS,
    ConvWork,
    ceil_div,
    group_activations,
)
from repro.core.timing import lane_assignment
from repro.hw.config import ArchConfig
from repro.hw.counters import ActivityCounters
from repro.hw.timing_types import LayerTiming, NetworkTiming
from repro.nn import memo
from repro.nn.network import Network

__all__ = [
    "brick_slot_mask",
    "pass_weight_union",
    "pass_unions",
    "pair_intersection_counts",
    "cnv2_conv_timing",
    "cnv2_network_timing",
]

ARCHITECTURE = "cnvlutin2"


def brick_slot_mask(slab: np.ndarray, brick_size: int) -> np.ndarray:
    """Non-zero mask of every ZFNAf slot of a ``(depth, y, x)`` slab.

    Returns a bool array of shape ``(y, x, bricks, slot)`` using the same
    brick alignment as :func:`repro.core.zfnaf.encode`: depth is padded to
    a multiple of ``brick_size`` and padding slots are zero (ineffectual).
    """
    depth, height, width = slab.shape
    bricks = ceil_div(depth, brick_size)
    padded = np.zeros((bricks * brick_size, height, width), dtype=bool)
    padded[:depth] = slab != 0.0
    return padded.reshape(bricks, brick_size, height, width).transpose(2, 3, 0, 1)


def pass_weight_union(weights: np.ndarray, brick_size: int) -> np.ndarray:
    """Per-(fy, fx) offset union of one pass's non-zero weights.

    ``weights`` holds the pass's filters, shape ``(filters, depth, Ky,
    Kx)``.  Returns a bool array ``(Ky, Kx, bricks, slot)``: True where at
    least one filter has a non-zero weight at that (kernel position,
    input channel) — the offsets the weight stream makes dispatchable.
    """
    _, depth, kernel_y, kernel_x = weights.shape
    bricks = ceil_div(depth, brick_size)
    any_filter = np.zeros((bricks * brick_size, kernel_y, kernel_x), dtype=bool)
    any_filter[:depth] = (weights != 0.0).any(axis=0)
    return any_filter.reshape(
        bricks, brick_size, kernel_y, kernel_x
    ).transpose(2, 3, 0, 1)


def pass_unions(
    weights: np.ndarray, groups: int, filters_per_pass: int, brick_size: int
) -> tuple[np.ndarray, ...]:
    """Per group: the :func:`pass_weight_union` of every filter pass.

    ``weights`` is a conv filter bank ``(filters, depth, Ky, Kx)`` split
    into ``groups`` equal filter groups, each run ``filters_per_pass``
    filters at a time.  Entry ``g`` is a read-only float32 ``(passes, Ky,
    Kx, bricks, slot)`` stack of group ``g``'s pass unions.  Derived once
    per bank (:func:`repro.nn.memo.derived`).
    """
    def build() -> tuple[np.ndarray, ...]:
        fpg = weights.shape[0] // groups
        entries = []
        for group in range(groups):
            group_weights = weights[group * fpg : (group + 1) * fpg]
            unions = np.stack([
                pass_weight_union(
                    group_weights[lo : lo + filters_per_pass], brick_size
                )
                for lo in range(0, fpg, filters_per_pass)
            ]).astype(np.float32)
            unions.flags.writeable = False
            entries.append(unions)
        return tuple(entries)

    tag = ("cnv2.pass_unions", groups, filters_per_pass, brick_size)
    return memo.derived(weights, tag, build)


def pair_intersection_counts(
    act_mask: np.ndarray, union_mask: np.ndarray
) -> np.ndarray:
    """Dispatched offsets per brick: activation non-zero AND weight-live.

    ``act_mask`` is ``(y, x, bricks, slot)`` (from :func:`brick_slot_mask`);
    ``union_mask`` is ``(..., bricks, slot)``: one (fy, fx) plane of
    :func:`pass_weight_union`, or any stack of them, such as every pass
    and tap of a layer at once (:func:`pass_unions`).  Returns float32
    counts ``(..., y, x, bricks)``, exact since each sums at most ``slot``
    ones; ``brick_size - count`` is the skipped-pair count (zero
    activation OR all-zero weights), the quantity the property tests
    brute-force.  Every plane is counted at every position by one batched
    matrix product per brick, contracting over the brick's slots.
    """
    height, width, bricks, slots = act_mask.shape
    planes = union_mask.shape[:-2]
    acts = act_mask.reshape(height * width, bricks, slots).transpose(1, 2, 0)
    unions = union_mask.reshape(-1, bricks, slots).transpose(1, 0, 2)
    counts = np.matmul(
        unions.astype(np.float32, copy=False),
        np.ascontiguousarray(acts, dtype=np.float32),
    )  # (bricks, planes, y * x)
    return counts.transpose(1, 2, 0).reshape(*planes, height, width, bricks)


def cnv2_conv_timing(
    work: ConvWork, config: ArchConfig, weights: np.ndarray
) -> LayerTiming:
    """Cycles and activity for one conv layer on CNV2.

    ``weights`` is the layer's full filter bank ``(num_filters,
    group_depth, kernel, kernel)``; its exact zeros define the
    ineffectual-weight offsets.  First layers take the unencoded baseline
    path, as on CNV.
    """
    if weights.shape[0] != work.geometry["num_filters"]:
        raise ValueError(
            f"{work.name}: weights carry {weights.shape[0]} filters, "
            f"geometry expects {work.geometry['num_filters']}"
        )
    if work.is_first and not config.first_layer_encoded:
        return baseline_conv_timing(work, config)

    geom = work.geometry
    lanes = config.neuron_lanes
    kernel = geom["kernel"]
    stride = geom["stride"]
    out_y, out_x = geom["out_y"], geom["out_x"]
    windows = out_y * out_x
    fpg = work.filters_per_group
    scale = config.num_units

    counters = ActivityCounters()
    total_cycles = 0
    nonzero_events = 0.0
    zero_events = 0.0
    stall_events = 0.0

    groups = pass_unions(
        weights, work.num_groups, config.filters_per_pass, config.brick_size
    )
    for group, unions in enumerate(groups):
        act_mask = brick_slot_mask(
            group_activations(work, group), config.brick_size
        )
        bricks = act_mask.shape[2]
        # Row (fy, fx, bz) of the window's brick list -> its lane.
        window_bricks = kernel * kernel * bricks
        onehot = np.zeros((window_bricks, lanes), dtype=np.float64)
        onehot[
            np.arange(window_bricks),
            lane_assignment(kernel, kernel, bricks, lanes).reshape(-1),
        ] = 1.0

        # counts[p, fy, fx, y, x, bz] at every padded position; window
        # (oy, ox) reads position (oy*S + fy, ox*S + fx) at tap (fy, fx).
        counts = pair_intersection_counts(act_mask, unions)
        sp, sfy, sfx, sy, sx, sb = counts.strides
        passes = counts.shape[0]
        windowed = np.lib.stride_tricks.as_strided(
            counts,
            shape=(passes, out_y, out_x, kernel, kernel, bricks),
            strides=(sp, sy * stride, sx * stride, sfy + sy, sfx + sx, sb),
            writeable=False,
        )
        # Passes go a few at a time so the float64 copies stay bounded.
        step = max(1, WINDOW_CHUNK_ELEMENTS // (windows * window_bricks))
        group_cycles = 0
        for p0 in range(0, passes, step):
            cost = windowed[p0 : p0 + step].astype(np.float64)
            chunk = cost.shape[0]
            cost = cost.reshape(chunk, windows, window_bricks)
            dispatched_per_pass = cost.sum(axis=(1, 2))
            if config.empty_brick_cycles:
                np.maximum(cost, config.empty_brick_cycles, out=cost)
            lane_cycles = (cost.reshape(-1, window_bricks) @ onehot).reshape(
                chunk, windows, lanes
            )
            cycles_per_pass = lane_cycles.max(axis=2).sum(axis=1)
            # busy = dispatched + empty-brick bubbles; every lane waits
            # out the rest of its window's slowest lane.
            busy_per_pass = lane_cycles.sum(axis=(1, 2))
            stall_per_pass = lanes * cycles_per_pass - busy_per_pass

            for p in range(chunk):
                dispatched = float(dispatched_per_pass[p])
                busy = float(busy_per_pass[p])
                stall = float(stall_per_pass[p])
                pass_cycles = int(cycles_per_pass[p])
                group_cycles += pass_cycles
                nonzero_events += scale * dispatched
                zero_events += scale * (busy - dispatched)
                stall_events += scale * stall

                # Datapath: only dispatched (intersected) offsets multiply.
                active = scale * dispatched
                counters.add("mults", active * config.filters_per_unit)
                counters.add("adds", active * config.filters_per_unit)
                counters.add("sb_reads", active)
                # Both offset streams are consulted per dispatched pair:
                # the activation's ZFNAf offset and the weight offset field.
                counters.add("offset_reads", 2 * active)
                counters.add("nbin_reads", scale * busy)
                counters.add("nbin_writes", scale * busy)
                counters.add(
                    "nbout_reads",
                    pass_cycles * config.num_units * config.filters_per_unit,
                )
                counters.add(
                    "nbout_writes",
                    pass_cycles * config.num_units * config.filters_per_unit,
                )
                counters.add("nm_reads", windows * kernel * kernel * bricks)
                counters.add("broadcasts", pass_cycles)

        total_cycles += group_cycles
        # Output encoding is pass-independent (one encoded output slab).
        out_slots = (
            ceil_div(fpg, config.brick_size) * config.brick_size * windows
        )
        counters.add("encoder_cycles", out_slots)
        counters.add("nm_writes", out_slots / config.brick_size)

    lane_events = {
        "nonzero": nonzero_events,
        "zero": zero_events,
        "stall": stall_events,
    }
    return LayerTiming(
        name=work.name,
        kind="conv",
        cycles=total_cycles,
        lane_events=lane_events,
        counters=counters,
    )


def cnv2_network_timing(
    network: Network,
    conv_inputs: dict[str, np.ndarray],
    config: ArchConfig,
    weights: dict[str, np.ndarray],
) -> NetworkTiming:
    """Full-network CNV2 timing; ``weights`` maps conv layer -> filter bank."""
    layers = [
        cnv2_conv_timing(work, config, weights[work.name])
        for work in conv_works_from_inputs(network, conv_inputs)
    ]
    layers.extend(other_layers_timing(network, config))
    return NetworkTiming(
        network=network.name, architecture=ARCHITECTURE, layers=layers
    )
