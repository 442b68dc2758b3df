"""Analytic timing model of an SCNN-style compressed-sparse accelerator.

SCNN (Parashar et al., ISCA 2017) stores both weights and activations
compressed and computes the *Cartesian product* of the non-zero weight
vector and non-zero activation vector of each input channel: every
multiplication performed is effectual (both operands non-zero), and
output coordinates are reconstructed from the operand indices, with
products scattered into a banked accumulator array.

This model keeps the node budget of the repo's other backends —
``num_units`` PEs, ``multipliers_per_unit`` multipliers each (at the
paper config 16 x 256 = 4096 multipliers, identical to DaDianNao's
array) — and computes, per conv layer:

* **Effectual products** ``E``: for every kernel position (fy, fx) and
  input channel z, (# filters with a non-zero weight at (z, fy, fx)) x
  (# *valid* output positions whose input activation at that offset is
  non-zero).  Valid-output pairs only: products that would land outside
  the output plane (the halo SCNN discards) are not counted, so ``E``
  never exceeds the dense work and ``mults == E`` exactly — the counter
  the conformance suite and fig9_backends cross-validate against an
  independent brute-force/analytic count.
* **PE tiling**: output positions are split into ``num_units``
  contiguous row-major chunks (SCNN's planar tiling); each PE's
  multiplier-limited time is ``ceil(P_pe / multipliers_per_unit)``.
* **Accumulator-bank contention**: each PE has ``2 x
  multipliers_per_unit`` accumulator banks (SCNN provisions 2x to keep
  scatter conflicts rare); position ``p`` maps to bank ``p mod B`` and
  needs ``ceil(products(p) / F_live)`` serialized accumulations, where
  ``F_live = min(filters_per_group, filters_per_unit)`` output channels
  absorb products in parallel.  A PE's time is the max of its
  multiplier-limited and most-loaded-bank time; the layer (per group)
  takes the slowest PE.

The weight side of these counts — each group's per-``(z, fy, fx)``
non-zero filter count and its total — is derived once per pruned filter
bank and held in :func:`repro.nn.memo.derived` while the bank lives.
The activation side is one matrix-vector product of the tap-unfolded
non-zero mask with those counts, and the PE and bank loads are one
``bincount`` each.  Every summed quantity is an integer-valued float64
far below 2**53, so these sums equal, bit for bit, the per-tap and
per-PE loops they replace (kept as oracles in ``tests/``).

Unlike CNV/CNV2 the model has no first-layer special case: compressed
weights skip their zeros against the dense image just as well.  Groups
run sequentially, like every other backend here.

Known honest corner: on tiny output planes (fewer output positions than
PEs — 1x1 outputs at toy scales) most PEs idle and SCNN can lose to the
dense baseline; the conformance suite documents and avoids that regime,
matching the paper's own observation that SCNN underutilizes on small
spatial dimensions.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.other_layers import other_layers_timing
from repro.baseline.timing import conv_works_from_inputs
from repro.baseline.workload import (
    WINDOW_CHUNK_ELEMENTS,
    ConvWork,
    group_activations,
    unfold_windows,
    window_row_chunks,
)
from repro.hw.config import ArchConfig
from repro.hw.counters import ActivityCounters
from repro.hw.timing_types import LayerTiming, NetworkTiming
from repro.nn import memo
from repro.nn.network import Network

__all__ = [
    "effectual_pair_count",
    "filter_counts",
    "scnn_conv_timing",
    "scnn_network_timing",
]

ARCHITECTURE = "scnn"


def filter_counts(
    weights: np.ndarray, groups: int
) -> tuple[tuple[np.ndarray, float], ...]:
    """Per group: non-zero filters at each weight tap, and their total.

    ``weights`` is a conv filter bank ``(filters, depth, Ky, Kx)`` split
    into ``groups`` equal filter groups.  Entry ``g`` is ``(counts,
    total)``: ``counts`` a read-only float64 ``(Ky, Kx, depth)`` array
    holding how many of group ``g``'s filters are non-zero at each
    ``(fy, fx, z)``, ``total`` the group's non-zero weight count.
    Derived once per bank (:func:`repro.nn.memo.derived`).
    """
    def build() -> tuple[tuple[np.ndarray, float], ...]:
        fpg = weights.shape[0] // groups
        entries = []
        for group in range(groups):
            live = weights[group * fpg : (group + 1) * fpg] != 0.0
            counts = np.ascontiguousarray(
                live.sum(axis=0).transpose(1, 2, 0), dtype=np.float64
            )
            counts.flags.writeable = False
            entries.append((counts, float(counts.sum())))
        return tuple(entries)

    return memo.derived(weights, ("scnn.filter_counts", groups), build)


def effectual_pair_count(work: ConvWork, weights: np.ndarray) -> int:
    """Exact count of effectual (non-zero weight x non-zero activation)
    products for ``work``, channel-sum form.

    Computed as sum over (fy, fx, z) of weight-filter counts times valid
    non-zero activation counts — deliberately a *different* accumulation
    order than the per-output-position product map the timing model
    builds, so the two serve as independent cross-checks of each other.
    """
    geom = work.geometry
    kernel = geom["kernel"]
    stride = geom["stride"]
    out_y, out_x = geom["out_y"], geom["out_x"]
    total = 0
    for group, (counts, _) in enumerate(filter_counts(weights, work.num_groups)):
        slab = group_activations(work, group)
        for fy in range(kernel):
            for fx in range(kernel):
                plane = slab[:, fy::stride, fx::stride][:, :out_y, :out_x]
                act_nnz = (plane != 0.0).sum(axis=(1, 2))
                total += int(counts[fy, fx] @ act_nnz)
    return total


def scnn_conv_timing(
    work: ConvWork, config: ArchConfig, weights: np.ndarray
) -> LayerTiming:
    """Cycles and activity for one conv layer on the SCNN-style dataflow."""
    if weights.shape[0] != work.geometry["num_filters"]:
        raise ValueError(
            f"{work.name}: weights carry {weights.shape[0]} filters, "
            f"geometry expects {work.geometry['num_filters']}"
        )
    geom = work.geometry
    kernel = geom["kernel"]
    stride = geom["stride"]
    out_y, out_x = geom["out_y"], geom["out_x"]
    units = config.num_units
    banks = 2 * config.multipliers_per_unit
    f_live = min(work.filters_per_group, config.filters_per_unit)
    fpg = work.filters_per_group

    # Contiguous row-major position chunks, one per PE; position p maps
    # to accumulator bank p mod B of its PE.
    n_pos = out_y * out_x
    bounds = (np.arange(units + 1) * n_pos) // units
    pe_of = np.repeat(np.arange(units), np.diff(bounds))
    pe_bank = pe_of * banks + np.arange(n_pos) % banks

    counters = ActivityCounters()
    total_cycles = 0
    busy_events = 0.0
    stall_events = 0.0

    for group, (counts, live_weights) in enumerate(
        filter_counts(weights, work.num_groups)
    ):
        live = np.ascontiguousarray(
            (group_activations(work, group) != 0.0).transpose(1, 2, 0)
        )

        # Effectual products landing on each valid output position.  The
        # bool rows widen to float64 for the product, so they take an
        # eighth of the chunk budget.
        products = np.empty(n_pos, dtype=np.float64)
        weight_column = counts.reshape(-1)
        for y0, y1, rows in window_row_chunks(
            unfold_windows(live, kernel, kernel, stride, out_y, out_x),
            WINDOW_CHUNK_ELEMENTS // 8,
        ):
            products[y0 * out_x : y1 * out_x] = (
                rows.astype(np.float64) @ weight_column
            )
        group_products = float(products.sum())

        # A PE's time is the max of its multiplier-limited time and its
        # most-loaded bank; ceil(products / F_live) serialized
        # accumulations per position.
        pe_products = np.bincount(pe_of, weights=products, minlength=units)
        mult_limited = -(-pe_products.astype(np.int64)
                         // config.multipliers_per_unit)
        bank_load = np.bincount(
            pe_bank, weights=np.ceil(products / f_live),
            minlength=units * banks,
        ).reshape(units, banks)
        group_cycles = int(
            np.maximum(mult_limited, bank_load.max(axis=1)).max()
        )
        total_cycles += group_cycles

        # Fig. 10 bookkeeping: a cycle offers units x lanes event slots,
        # each worth multipliers_per_unit / lanes products.
        products_per_slot = config.multipliers_per_unit / config.neuron_lanes
        busy = group_products / products_per_slot
        slots = group_cycles * units * config.neuron_lanes
        busy_events += busy
        stall_events += max(0.0, slots - busy)

        # Every product is effectual — the defining counter identity.
        counters.add("mults", group_products)
        counters.add("adds", group_products)
        counters.add("nbout_reads", group_products)
        counters.add("nbout_writes", group_products)
        # Compressed operand traffic (coarse: one read per non-zero,
        # brick-granular for activations, per-element for weights).
        counters.add(
            "nm_reads", float(np.count_nonzero(live)) / config.brick_size
        )
        counters.add("sb_reads", live_weights)
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


def scnn_network_timing(
    network: Network,
    conv_inputs: dict[str, np.ndarray],
    config: ArchConfig,
    weights: dict[str, np.ndarray],
) -> NetworkTiming:
    """Full-network SCNN timing; ``weights`` maps conv layer -> filter bank."""
    layers = [
        scnn_conv_timing(work, config, weights[work.name])
        for work in conv_works_from_inputs(network, conv_inputs)
    ]
    layers.extend(other_layers_timing(network, config))
    return NetworkTiming(
        network=network.name, architecture=ARCHITECTURE, layers=layers
    )
