"""Per-tap reference oracles of the SCNN and CNV2 timing models.

The production simulators (:mod:`repro.backends.scnn`,
:mod:`repro.backends.cnv2`) derive each pruned filter bank's non-zero
structure once and count a layer's activation side in whole-array
products.  The functions here are the straightforward form those were
derived from — every group, filter pass and kernel tap walked in Python,
the weights' zeros re-derived on every call — kept as oracles the way
:func:`repro.nn.layers.conv2d_naive` is kept for ``conv2d``:
``tests/test_backends.py`` asserts the two produce equal
:class:`~repro.hw.timing_types.LayerTiming` records (cycles, lane events,
and counter keys in order with their values and Python types).
"""

from __future__ import annotations

import numpy as np

from repro.backends.cnv2 import brick_slot_mask, pass_weight_union
from repro.baseline.timing import baseline_conv_timing
from repro.baseline.workload import ConvWork, ceil_div, group_activations
from repro.core.timing import lane_assignment
from repro.hw.config import ArchConfig
from repro.hw.counters import ActivityCounters
from repro.hw.timing_types import LayerTiming


def _strided_plane(slab, fy, fx, stride, out_y, out_x):
    """Activations feeding kernel tap (fy, fx) of every valid window."""
    return slab[:, fy::stride, fx::stride][:, :out_y, :out_x]


def scnn_conv_timing_reference(
    work: ConvWork, config: ArchConfig, weights: np.ndarray
) -> LayerTiming:
    """SCNN layer timing, one kernel tap and one PE at a time."""
    geom = work.geometry
    kernel = geom["kernel"]
    stride = geom["stride"]
    out_y, out_x = geom["out_y"], geom["out_x"]
    units = config.num_units
    banks = 2 * config.multipliers_per_unit
    f_live = min(work.filters_per_group, config.filters_per_unit)
    fpg = work.filters_per_group

    counters = ActivityCounters()
    total_cycles = 0
    busy_events = 0.0
    stall_events = 0.0

    for group in range(work.num_groups):
        slab = group_activations(work, group)
        group_weights = weights[group * fpg : (group + 1) * fpg]
        filter_counts = (group_weights != 0.0).sum(axis=0).astype(np.float64)

        product_map = np.zeros((out_y, out_x), dtype=np.float64)
        for fy in range(kernel):
            for fx in range(kernel):
                act_mask = (
                    _strided_plane(slab, fy, fx, stride, out_y, out_x) != 0.0
                ).astype(np.float64)
                product_map += np.einsum(
                    "z,zyx->yx", filter_counts[:, fy, fx], act_mask
                )
        products = product_map.reshape(-1)
        n_pos = products.size
        group_products = float(products.sum())

        bounds = [(pe * n_pos) // units for pe in range(units + 1)]
        group_cycles = 0
        for pe in range(units):
            lo, hi = bounds[pe], bounds[pe + 1]
            if lo == hi:
                continue
            chunk = products[lo:hi]
            mult_limited = ceil_div(
                int(chunk.sum()), config.multipliers_per_unit
            )
            per_position = np.ceil(chunk / f_live)
            bank_load = np.bincount(
                np.arange(lo, hi) % banks, weights=per_position,
                minlength=banks,
            )
            bank_limited = int(bank_load.max())
            group_cycles = max(group_cycles, max(mult_limited, bank_limited))
        total_cycles += group_cycles

        products_per_slot = config.multipliers_per_unit / config.neuron_lanes
        busy = group_products / products_per_slot
        slots = group_cycles * units * config.neuron_lanes
        busy_events += busy
        stall_events += max(0.0, slots - busy)

        counters.add("mults", group_products)
        counters.add("adds", group_products)
        counters.add("nbout_reads", group_products)
        counters.add("nbout_writes", group_products)
        counters.add(
            "nm_reads", float((slab != 0.0).sum()) / config.brick_size
        )
        counters.add("sb_reads", float((group_weights != 0.0).sum()))
        counters.add(
            "nm_writes", out_y * out_x * fpg / config.brick_size
        )
        counters.add("broadcasts", group_cycles)

    if work.is_first:
        lane_events = {"conv1": busy_events + stall_events}
    else:
        lane_events = {"nonzero": busy_events, "stall": stall_events}
    return LayerTiming(
        name=work.name,
        kind="conv",
        cycles=total_cycles,
        lane_events=lane_events,
        counters=counters,
    )


def _pair_intersection_counts(act_mask, union_mask):
    """Dispatched offsets per brick for one (fy, fx) plane of a pass."""
    return np.einsum(
        "yxbs,bs->yxb",
        act_mask.astype(np.float32),
        union_mask.astype(np.float32),
    ).astype(np.float64)


def cnv2_conv_timing_reference(
    work: ConvWork, config: ArchConfig, weights: np.ndarray
) -> LayerTiming:
    """CNV2 layer timing, one filter pass and one kernel tap at a time."""
    if work.is_first and not config.first_layer_encoded:
        return baseline_conv_timing(work, config)

    geom = work.geometry
    lanes = config.neuron_lanes
    kernel = geom["kernel"]
    stride = geom["stride"]
    out_y, out_x = geom["out_y"], geom["out_x"]
    windows = out_y * out_x

    counters = ActivityCounters()
    total_cycles = 0
    nonzero_events = 0.0
    zero_events = 0.0
    stall_events = 0.0

    for group in range(work.num_groups):
        slab = group_activations(work, group)
        act_mask = brick_slot_mask(slab, config.brick_size)
        bricks = act_mask.shape[2]
        lane_of = lane_assignment(kernel, kernel, bricks, lanes)
        onehots = np.zeros((kernel, kernel, bricks, lanes), dtype=np.float64)
        for fy in range(kernel):
            for fx in range(kernel):
                onehots[fy, fx, np.arange(bricks), lane_of[fy, fx]] = 1.0

        fpg = work.filters_per_group
        group_weights = weights[group * fpg : (group + 1) * fpg]
        passes = ceil_div(fpg, config.filters_per_pass)
        group_cycles = 0

        for p in range(passes):
            pass_weights = group_weights[
                p * config.filters_per_pass : (p + 1) * config.filters_per_pass
            ]
            union = pass_weight_union(pass_weights, config.brick_size)
            lane_cycles = np.zeros((out_y, out_x, lanes), dtype=np.float64)
            dispatched = 0.0
            for fy in range(kernel):
                for fx in range(kernel):
                    counts = _pair_intersection_counts(act_mask, union[fy, fx])
                    if config.empty_brick_cycles:
                        cost = np.maximum(counts, config.empty_brick_cycles)
                    else:
                        cost = counts
                    view = cost[fy::stride, fx::stride][:out_y, :out_x]
                    lane_cycles += view @ onehots[fy, fx]
                    eff = counts[fy::stride, fx::stride][:out_y, :out_x]
                    dispatched += float(eff.sum())
            window_cycles = lane_cycles.max(axis=2)
            pass_cycles = int(window_cycles.sum())
            group_cycles += pass_cycles

            busy = float(lane_cycles.sum())
            stall = float((window_cycles[..., None] - lane_cycles).sum())
            scale = config.num_units
            nonzero_events += scale * dispatched
            zero_events += scale * (busy - dispatched)
            stall_events += scale * stall

            active = scale * dispatched
            counters.add("mults", active * config.filters_per_unit)
            counters.add("adds", active * config.filters_per_unit)
            counters.add("sb_reads", active)
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
