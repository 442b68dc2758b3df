"""Analytic (vectorized) timing model of the Cnvlutin accelerator.

CNV decouples the unit front-end into ``neuron_lanes`` independent subunits
(Section IV-B): each cycle a subunit consumes one non-zero ``(value,
offset)`` pair from its NBin and produces ``filters_per_unit`` products.
Work is assigned *brick-interleaved* (Section IV-B2): the bricks of a
window, enumerated in the baseline fetch order (features fastest, then x,
then y), are dealt round-robin to the lanes — ``lane = brick_index mod
neuron_lanes``.  When the input depth is a full 256 this reduces exactly to
the paper's Fig. 6(b) "16 vertical slices, one per lane"; for shallower
layers it generalizes the same static SB-transpose trick across the window.

Per window, a lane spends ``max(nnz(brick), empty_brick_cycles)`` cycles on
each of its bricks: the non-zero pairs take one cycle each, and a brick
with *no* non-zero neurons still occupies the single cycle its NM bank
needed to supply it (Section IV-B3's worst-case bandwidth discussion;
``ArchConfig.empty_brick_cycles = 0`` ablates a free skip).  All lanes
synchronize at window boundaries (Section IV-B5): the window takes the
*maximum* lane time, and the difference is accounted as *stall* events in
the Fig. 10 breakdown.  Layers fed by the raw image are processed
unencoded, exactly like the baseline (CNV does not accelerate conv1).

The closed forms here are proven equal to the structural cycle-by-cycle
simulator (:mod:`repro.core.accelerator`) by property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.other_layers import other_layers_timing
from repro.baseline.timing import baseline_conv_timing, conv_works_from_inputs
from repro.baseline.workload import (
    ConvWork,
    ceil_div,
    group_activations,
    unfold_windows,
    window_row_chunks,
)
from repro.hw.config import ArchConfig
from repro.hw.counters import ActivityCounters
from repro.hw.timing_types import LayerTiming, NetworkTiming
from repro.nn.activations import brick_nonzero_counts
from repro.nn.network import Network

__all__ = [
    "cnv_conv_timing",
    "cnv_network_timing",
    "lane_assignment",
    "window_lane_cycles",
]


def lane_assignment(
    kernel_y: int, kernel_x: int, bricks_per_column: int, lanes: int
) -> np.ndarray:
    """Brick-interleaved lane of each window brick.

    Returns an array of shape ``(kernel_y, kernel_x, bricks_per_column)``
    giving the neuron lane that owns each brick of a window.  Enumeration
    order matches the baseline fetch order (bz fastest, then fx, then fy),
    so with ``bricks_per_column == lanes`` every (fy, fx) column maps its
    bricks to lanes 0..15 — the paper's vertical-slice assignment.
    """
    index = np.arange(kernel_y * kernel_x * bricks_per_column)
    return (index % lanes).reshape(kernel_y, kernel_x, bricks_per_column)


def window_lane_cycles(
    cost: np.ndarray,
    nnz: np.ndarray,
    kernel_y: int,
    kernel_x: int,
    stride: int,
    out_y: int,
    out_x: int,
    lanes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window, per-lane cycle counts and per-window non-zero totals.

    Parameters
    ----------
    cost, nnz:
        Per-brick arrays of shape ``(padded_y, padded_x, bricks_per_col)``:
        ``cost`` is the cycles a lane spends on the brick, ``nnz`` its
        non-zero neuron count.
    Returns
    -------
    ``(lane_cycles, window_nnz)`` with shapes ``(out_y, out_x, lanes)`` and
    ``(out_y, out_x)``.
    """
    bricks_per_column = cost.shape[2]
    assignment = lane_assignment(kernel_y, kernel_x, bricks_per_column, lanes)
    bricks_per_window = kernel_y * kernel_x * bricks_per_column
    # One GEMM over im2col'd windows replaces the per-(fy, fx) python
    # loop: scatter the lane assignment into a (bricks_per_window, lanes)
    # one-hot and multiply the unfolded per-window brick costs against
    # it.  All quantities are integer-valued, so the float64 sums are
    # exact in any accumulation order — the cycle counts stay
    # byte-identical to the loop they replace (golden-pinned).
    onehot = np.zeros((bricks_per_window, lanes), dtype=np.float64)
    onehot[np.arange(bricks_per_window), assignment.reshape(-1)] = 1.0
    cost64 = np.ascontiguousarray(cost, dtype=np.float64)
    nnz64 = np.ascontiguousarray(nnz, dtype=np.float64)

    nnz_windows = unfold_windows(
        nnz64, kernel_y, kernel_x, stride, out_y, out_x
    )
    lane_cycles = np.empty((out_y, out_x, lanes), dtype=np.float64)
    window_nnz = np.empty((out_y, out_x), dtype=np.float64)
    # Materializing every window at once can dwarf the input for large
    # kernels; the unfolded copy goes a few output rows at a time.
    for y0, y1, rows in window_row_chunks(
        unfold_windows(cost64, kernel_y, kernel_x, stride, out_y, out_x)
    ):
        lane_cycles[y0:y1] = (rows @ onehot).reshape(y1 - y0, out_x, lanes)
        window_nnz[y0:y1] = nnz_windows[y0:y1].sum(axis=(2, 3, 4))
    return lane_cycles, window_nnz


def cnv_conv_timing(work: ConvWork, config: ArchConfig) -> LayerTiming:
    """Cycles and activity for one conv layer on CNV.

    First-layer convolutions (raw image input) take the unencoded baseline
    path; their events land in the ``conv1`` category.
    """
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
        nnz = brick_nonzero_counts(slab, config.brick_size)
        if config.empty_brick_cycles:
            cost = np.maximum(nnz, 1)
        else:
            cost = nnz
        passes = ceil_div(work.filters_per_group, config.filters_per_pass)

        lane_cycles, window_nnz = window_lane_cycles(
            cost, nnz, kernel, kernel, stride, out_y, out_x, lanes
        )
        window_cycles = lane_cycles.max(axis=2)
        group_cycles = int(window_cycles.sum()) * passes
        total_cycles += group_cycles

        total_nnz = float(window_nnz.sum())
        total_busy = float(lane_cycles.sum())  # nonzero + empty-brick bubbles
        total_stall = float(
            (window_cycles[..., None] - lane_cycles).sum()
        )

        scale = passes * config.num_units
        nonzero_events += scale * total_nnz
        zero_events += scale * (total_busy - total_nnz)
        stall_events += scale * total_stall

        # Datapath activity: only busy (non-zero) lane-cycles multiply; a
        # stalled or bubble cycle reads no synapses (Section V-D: "synapses
        # are not read when a subunit is stalled").
        busy = scale * total_nnz
        counters.add("mults", busy * config.filters_per_unit)
        counters.add("adds", busy * config.filters_per_unit)
        counters.add("sb_reads", busy)
        counters.add("offset_reads", busy)
        counters.add("nbin_reads", scale * total_busy)
        counters.add("nbin_writes", scale * total_busy)
        counters.add(
            "nbout_reads",
            group_cycles * config.num_units * config.filters_per_unit,
        )
        counters.add(
            "nbout_writes",
            group_cycles * config.num_units * config.filters_per_unit,
        )
        # The dispatcher reads every brick of every window once per pass.
        bricks_per_window = kernel * kernel * nnz.shape[2]
        counters.add("nm_reads", windows * bricks_per_window * passes)
        counters.add("broadcasts", group_cycles)
        # Output encoding: one cycle per output neuron slot (Section IV-B4).
        out_slots = (
            ceil_div(work.filters_per_group, config.brick_size)
            * config.brick_size
            * windows
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


def cnv_network_timing(
    network: Network,
    conv_inputs: dict[str, np.ndarray],
    config: ArchConfig,
) -> NetworkTiming:
    """Full-network CNV timing from a forward pass's recorded conv inputs."""
    layers = [
        cnv_conv_timing(work, config)
        for work in conv_works_from_inputs(network, conv_inputs)
    ]
    layers.extend(other_layers_timing(network, config))
    return NetworkTiming(network=network.name, architecture="cnvlutin", layers=layers)
