"""The Cnvlutin contribution: ZFNAf, decoupled units, dispatcher, pruning.

This package holds everything the paper adds on top of DaDianNao: the
Zero-Free Neuron Array format (:mod:`~repro.core.zfnaf`), the on-the-fly
output :mod:`~repro.core.encoder`, the :mod:`~repro.core.dispatcher` that
keeps NM accesses wide while lanes drain independently, the decoupled
:mod:`~repro.core.subunit`/:mod:`~repro.core.unit` front-end, the
structural node simulator (:mod:`~repro.core.accelerator`), the vectorized
timing model (:mod:`~repro.core.timing`) and dynamic neuron pruning
(:mod:`~repro.core.pruning`).
"""

from repro.core.accelerator import CnvNode, encode_layer_output
from repro.core.dispatcher import DispatchedBrick, Dispatcher, LaneSlot, bank_pressure
from repro.core.encoder import EncodedBrickResult, Encoder
from repro.core.pruning import (
    PruningPoint,
    ThresholdSearcher,
    pareto_frontier,
    power_of_two_thresholds,
    raw_to_real,
    real_to_raw,
)
from repro.core.stats import (
    BrickStats,
    LaneBalanceStats,
    brick_stats,
    lane_balance,
    structural_speedup_bound,
)
from repro.core.subunit import Subunit, build_subunit_sb
from repro.core.timing import cnv_conv_timing, lane_assignment, window_lane_cycles
from repro.core.unit import CnvUnit
from repro.core.validate import LayerValidation, ValidationReport, validate_network
from repro.core.zfnaf import ZfnafArray, decode, decode_brick, encode, encode_brick

__all__ = [
    "BrickStats",
    "LaneBalanceStats",
    "brick_stats",
    "lane_balance",
    "structural_speedup_bound",
    "LayerValidation",
    "ValidationReport",
    "validate_network",
    "CnvNode",
    "encode_layer_output",
    "DispatchedBrick",
    "Dispatcher",
    "LaneSlot",
    "bank_pressure",
    "EncodedBrickResult",
    "Encoder",
    "PruningPoint",
    "ThresholdSearcher",
    "pareto_frontier",
    "power_of_two_thresholds",
    "raw_to_real",
    "real_to_raw",
    "Subunit",
    "build_subunit_sb",
    "cnv_conv_timing",
    "lane_assignment",
    "window_lane_cycles",
    "CnvUnit",
    "ZfnafArray",
    "decode",
    "decode_brick",
    "encode",
    "encode_brick",
]
