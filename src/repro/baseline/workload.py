"""Convolution workload preparation shared by the analytic timing models.

Both accelerators see the same workload: for each conv layer, the (spatially
zero-padded) input activations split by group, plus the layer geometry.
Padding neurons are stored in NM as explicit zeros (DESIGN.md decision):
the baseline spends cycles multiplying them, CNV's encoder removes them like
any other zero.  This module also provides the integral-image machinery for
exact per-window non-zero counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import pad_input

__all__ = ["ConvWork", "group_activations", "window_sums", "ceil_div"]


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class ConvWork:
    """One conv layer's workload: geometry plus the input neuron array."""

    name: str
    geometry: dict[str, int]
    activations: np.ndarray  # (in_depth, in_y, in_x), unpadded
    is_first: bool = False

    def __post_init__(self) -> None:
        expected = (
            self.geometry["in_depth"],
            self.geometry["in_y"],
            self.geometry["in_x"],
        )
        if self.activations.shape != expected:
            raise ValueError(
                f"{self.name}: activations {self.activations.shape} != "
                f"geometry {expected}"
            )
        groups = self.geometry["groups"]
        if groups < 1:
            raise ValueError(f"{self.name}: groups must be >= 1, got {groups}")
        for field in ("in_depth", "num_filters"):
            if self.geometry[field] % groups:
                raise ValueError(
                    f"{self.name}: {field} {self.geometry[field]} is not "
                    f"divisible by groups {groups}"
                )

    @property
    def num_groups(self) -> int:
        return self.geometry["groups"]

    @property
    def group_depth(self) -> int:
        return self.geometry["in_depth"] // self.geometry["groups"]

    @property
    def filters_per_group(self) -> int:
        return self.geometry["num_filters"] // self.geometry["groups"]


def group_activations(work: ConvWork, group: int) -> np.ndarray:
    """The spatially padded activation slab consumed by one filter group."""
    depth = work.group_depth
    slab = work.activations[group * depth : (group + 1) * depth]
    return pad_input(slab, work.geometry["pad"])


def window_sums(
    plane: np.ndarray, kernel_y: int, kernel_x: int, stride: int, out_y: int, out_x: int
) -> np.ndarray:
    """Exact sliding-window sums of a 2-D ``plane`` via an integral image.

    Returns ``sums[oy, ox] = sum(plane[oy*S : oy*S+Fy, ox*S : ox*S+Fx])``.
    """
    integral = np.zeros((plane.shape[0] + 1, plane.shape[1] + 1), dtype=np.float64)
    integral[1:, 1:] = plane.cumsum(axis=0).cumsum(axis=1)
    y0 = np.arange(out_y) * stride
    x0 = np.arange(out_x) * stride
    y1 = y0 + kernel_y
    x1 = x0 + kernel_x
    return (
        integral[np.ix_(y1, x1)]
        - integral[np.ix_(y0, x1)]
        - integral[np.ix_(y1, x0)]
        + integral[np.ix_(y0, x0)]
    )
