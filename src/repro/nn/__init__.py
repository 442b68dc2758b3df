"""DNN substrate: layers, networks, inference, calibration, training.

This subpackage replaces what the paper obtained from Caffe: the six Table I
network definitions, a functional inference engine producing the inter-layer
activations that Cnvlutin's value-based skipping exploits, fixed-point
arithmetic matching the accelerator datapath, sparsity calibration to the
paper's Fig. 1 statistics, and a small trainable CNN for the accuracy
experiments.
"""

from repro.nn.activations import brick_nonzero_counts, sparse_activations, zero_fraction
from repro.nn.calibration import (
    PAPER_ZERO_FRACTIONS,
    calibrate_network,
    measure_zero_fractions,
)
from repro.nn.inference import ForwardResult, WeightStore, init_weights, run_forward
from repro.nn.models import build_network, network_names
from repro.nn.network import LayerKind, LayerSpec, Network
from repro.nn.tensor import DEFAULT_FORMAT, FixedPointFormat, dequantize, quantize

__all__ = [
    "brick_nonzero_counts",
    "sparse_activations",
    "zero_fraction",
    "PAPER_ZERO_FRACTIONS",
    "calibrate_network",
    "measure_zero_fractions",
    "ForwardResult",
    "WeightStore",
    "init_weights",
    "run_forward",
    "build_network",
    "network_names",
    "LayerKind",
    "LayerSpec",
    "Network",
    "DEFAULT_FORMAT",
    "FixedPointFormat",
    "dequantize",
    "quantize",
]
