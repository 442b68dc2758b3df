"""Pluggable accelerator backends (see :mod:`repro.backends.registry`)."""

from repro.backends.cnv2 import (
    brick_slot_mask,
    cnv2_conv_timing,
    pair_intersection_counts,
    pass_weight_union,
)
from repro.backends.registry import (
    Backend,
    architectures,
    backend_names,
    get_backend,
    iter_backends,
    power_model_for,
    register,
)
from repro.backends.scnn import effectual_pair_count, scnn_conv_timing
from repro.backends.weights import (
    DEFAULT_WEIGHT_SPARSITY,
    prune_conv_weights,
    prune_input_channels,
    prune_weights,
)

__all__ = [
    "Backend",
    "register",
    "get_backend",
    "backend_names",
    "iter_backends",
    "architectures",
    "power_model_for",
    "DEFAULT_WEIGHT_SPARSITY",
    "prune_weights",
    "prune_input_channels",
    "prune_conv_weights",
    "brick_slot_mask",
    "pass_weight_union",
    "pair_intersection_counts",
    "cnv2_conv_timing",
    "effectual_pair_count",
    "scnn_conv_timing",
]
