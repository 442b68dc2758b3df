"""The DaDianNao baseline accelerator (Chen et al., MICRO 2014).

CNV is presented as a modification of this design, so the baseline is a
first-class substrate here: a structural NFU/node simulator producing real
outputs and exact cycle counts, a closed-form timing model proven equal to
it, and the shared workload/'other-layer' models both architectures use.
"""

from repro.baseline.accelerator import (
    DaDianNaoNode,
    StructuralRunResult,
    build_fetch_blocks,
    build_sb_columns,
)
from repro.baseline.gated import gated_conv_timing
from repro.baseline.nfu import NFU
from repro.baseline.other_layers import other_layer_timing, other_layers_timing
from repro.baseline.timing import baseline_conv_timing, conv_works_from_inputs
from repro.baseline.workload import ConvWork, ceil_div, group_activations, window_sums

__all__ = [
    "DaDianNaoNode",
    "StructuralRunResult",
    "build_fetch_blocks",
    "build_sb_columns",
    "NFU",
    "gated_conv_timing",
    "other_layer_timing",
    "other_layers_timing",
    "baseline_conv_timing",
    "conv_works_from_inputs",
    "ConvWork",
    "ceil_div",
    "group_activations",
    "window_sums",
]
