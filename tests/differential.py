"""Reusable differential harness: batched vs per-image bit-identity.

The contract under test: a layer called on a ``(batch, ...)`` stack
returns, for every image, exactly the bytes the same layer returns for
that image alone.  The batched path is the only path — a single image
runs as a batch of one — so the contract says an image's bytes do not
depend on the batch it rides in.  The forward engine, the serving
batcher and the engine cache all rely on it
(``tests/test_forward_engine.py`` and the serving differentials check it
for whole networks); this harness checks it per layer for ``conv2d`` and
``fully_connected``, whose per-image BLAS calls are the ones that could
break it.

This module is a library, not a test file (pytest does not collect it):
``tests/test_layers.py`` drives the grids, and the integrity suite
reuses the grid and the pruning helper.  The grid spans dtype x stride
x pad x groups x batch x pruning threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


def prune(activations: np.ndarray, threshold: float) -> np.ndarray:
    """Zero all entries below ``threshold`` in magnitude (grid inputs)."""
    out = np.array(activations, copy=True)
    if threshold > 0:
        out[np.abs(out) < threshold] = 0.0
    return out


def assert_batched_matches_single(compute, batch: np.ndarray, case: str = "") -> None:
    """``compute(batch)[b]`` must equal ``compute(batch[b])`` byte for byte."""
    batched = compute(batch)
    assert batched.shape[0] == batch.shape[0], case
    for index, image in enumerate(batch):
        single = np.ascontiguousarray(compute(image))
        row = np.ascontiguousarray(batched[index])
        assert row.shape == single.shape and row.dtype == single.dtype, (
            f"{case}: image {index} shape/dtype {row.shape}/{row.dtype} != "
            f"{single.shape}/{single.dtype}"
        )
        if row.tobytes() != single.tobytes():
            bad = np.flatnonzero(row.view(np.uint8) != single.view(np.uint8))
            raise AssertionError(
                f"{case}: image {index} first differing byte at {bad[0]}"
            )


@dataclass(frozen=True)
class GridCase:
    """One coordinate of the differential grid."""

    dtype: str
    stride: int
    pad: int
    groups: int
    batch: int
    threshold: float


def grid_cases(
    dtypes=("float64", "float32"),
    strides=(1, 2, 3),
    pads=(0, 1, 2),
    groups=(1, 2),
    batches=(1, 3),
    thresholds=(0.0, 0.3, 0.8),
):
    """The full dtype x stride x pad x groups x batch x threshold grid."""
    for combo in product(dtypes, strides, pads, groups, batches, thresholds):
        yield GridCase(*combo)


def _grid_input(rng: np.random.Generator, case: GridCase, shape) -> np.ndarray:
    """Positive-mean activations pruned at the case's threshold."""
    return prune(
        np.maximum(rng.normal(0.3, 1.0, size=(case.batch, *shape)), 0.0),
        case.threshold,
    ).astype(case.dtype)


def run_conv_grid(rng: np.random.Generator, cases=None) -> int:
    """Assert conv batched ≡ per-image across the grid; returns cases checked.

    The channel count is chosen to exercise ``depth % 16 != 0``; higher
    thresholds leave whole windows and channels at zero.
    """
    from repro.nn.layers import conv2d

    checked = 0
    for case in cases if cases is not None else grid_cases():
        depth = 8 if case.groups == 2 else 7
        kernel = 3
        size = kernel + 2 * case.stride + 2  # a few windows per axis
        activations = _grid_input(rng, case, (depth, size, size + case.stride))
        weights = rng.normal(
            size=(4, depth // case.groups, kernel, kernel)
        ).astype(case.dtype)
        bias = rng.normal(size=4).astype(case.dtype)
        assert_batched_matches_single(
            lambda x: conv2d(
                x, weights, bias,
                stride=case.stride, pad=case.pad, groups=case.groups,
            ),
            activations,
            str(case),
        )
        checked += 1
    return checked


def run_fc_grid(rng: np.random.Generator, cases=None) -> int:
    """Assert FC batched ≡ per-image across the (dtype x batch x threshold) grid."""
    from repro.nn.layers import fully_connected

    checked = 0
    seen = set()
    for case in cases if cases is not None else grid_cases():
        key = (case.dtype, case.batch, case.threshold)
        if key in seen:
            continue
        seen.add(key)
        activations = _grid_input(rng, case, (5, 4, 4))
        weights = rng.normal(size=(9, 5 * 4 * 4)).astype(case.dtype)
        bias = rng.normal(size=9).astype(case.dtype)
        assert_batched_matches_single(
            lambda x: fully_connected(x, weights, bias), activations, str(case)
        )
        checked += 1
    return checked
