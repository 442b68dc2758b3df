"""Synthetic data tests (repro.nn.datasets, repro.nn.activations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.activations import brick_nonzero_counts, sparse_activations, zero_fraction
from repro.nn.datasets import NUM_SHAPE_CLASSES, ShapeDataset, natural_image, natural_images


class TestNaturalImage:
    def test_shape_and_range(self, rng):
        img = natural_image((3, 32, 32), rng)
        assert img.shape == (3, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_spatially_correlated(self, rng):
        """Adjacent pixels correlate far more than random ones would."""
        img = natural_image((1, 64, 64), rng)[0]
        diffs_adjacent = np.abs(np.diff(img, axis=1)).mean()
        shuffled = img.reshape(-1).copy()
        rng.shuffle(shuffled)
        diffs_random = np.abs(np.diff(shuffled)).mean()
        assert diffs_adjacent < diffs_random / 2

    def test_batch_reproducible(self):
        a = natural_images((1, 16, 16), 2, seed=5)
        b = natural_images((1, 16, 16), 2, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], a[1])


class TestShapeDataset:
    def test_all_classes_render(self, rng):
        ds = ShapeDataset()
        for label in range(NUM_SHAPE_CLASSES):
            img = ds.render(label, rng)
            assert img.shape == (1, 24, 24)
            assert np.abs(img).max() > 0.5  # shape is visible over noise

    def test_invalid_label(self, rng):
        with pytest.raises(ValueError):
            ShapeDataset().render(NUM_SHAPE_CLASSES, rng)

    def test_batch_balanced(self):
        _, labels = ShapeDataset().batch(NUM_SHAPE_CLASSES * 4, seed=1)
        counts = np.bincount(labels, minlength=NUM_SHAPE_CLASSES)
        assert np.all(counts == 4)

    def test_classes_distinguishable(self):
        """Mean images of different classes differ substantially —
        otherwise the CNN accuracy signal would be meaningless."""
        ds = ShapeDataset(noise=0.0)
        rng = np.random.default_rng(0)
        means = []
        for label in (0, 1, 6):
            means.append(
                np.mean([ds.render(label, rng) for _ in range(8)], axis=0)
            )
        assert np.abs(means[0] - means[1]).mean() > 0.05
        assert np.abs(means[0] - means[2]).mean() > 0.05


class TestSparseActivations:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    def test_zero_fraction_achieved(self, target, seed):
        rng = np.random.default_rng(seed)
        a = sparse_activations((16, 12, 12), target, rng)
        assert zero_fraction(a) == pytest.approx(target, abs=0.02)

    def test_nonnegative(self, rng):
        a = sparse_activations((8, 8, 8), 0.5, rng)
        assert a.min() >= 0.0

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            sparse_activations((4, 4, 4), 1.0, rng)

    def test_zeros_cluster_spatially(self, rng):
        """Correlated fields produce clustered zeros (more uneven bricks
        than i.i.d. zeros) — the structure CNV's stalls depend on."""
        corr = sparse_activations((16, 24, 24), 0.5, rng, correlation=3.0)
        iid = sparse_activations((16, 24, 24), 0.5, rng, correlation=0.0)
        var_corr = brick_nonzero_counts(corr).var()
        var_iid = brick_nonzero_counts(iid).var()
        assert var_corr > var_iid


class TestBrickCounts:
    def test_counts_shape_and_sum(self, rng):
        a = sparse_activations((20, 5, 5), 0.4, rng)
        counts = brick_nonzero_counts(a, brick_size=16)
        assert counts.shape == (5, 5, 2)  # 20 pads to 32 -> 2 bricks
        assert counts.sum() == (a != 0).sum()

    def test_counts_bounded_by_brick_size(self, rng):
        a = sparse_activations((32, 4, 4), 0.1, rng)
        counts = brick_nonzero_counts(a, brick_size=8)
        assert counts.max() <= 8

    def test_exact_small_example(self):
        a = np.zeros((4, 1, 1))
        a[1] = 5.0
        a[3] = 2.0
        counts = brick_nonzero_counts(a, brick_size=4)
        assert counts[0, 0, 0] == 2


def _natural_image_per_plane(shape, rng):
    """Oracle: the per-channel form natural_image had before it filtered
    each octave as one stack (one gaussian_filter call per plane)."""
    from scipy import ndimage

    depth, height, width = shape
    image = np.zeros(shape, dtype=np.float64)
    max_sigma = max(height, width) / 8
    sigma = 1.0
    amplitude = 1.0
    decay = rng.uniform(0.35, 0.75)
    while sigma <= max_sigma:
        noise = rng.normal(size=shape)
        smooth = np.stack(
            [ndimage.gaussian_filter(noise[z], sigma=sigma) for z in range(depth)]
        )
        std = smooth.std()
        if std > 0:
            image += amplitude * rng.uniform(0.5, 1.5) * smooth / std
        sigma *= 2.0
        amplitude *= decay
    illum = ndimage.gaussian_filter(
        rng.normal(size=(height, width)), sigma=max(height, width) / 4
    )
    if illum.std() > 0:
        image *= 1.0 + 0.5 * illum / (3 * illum.std())
    image += 0.3 * rng.normal(size=(depth, 1, 1))
    lo, hi = image.min(), image.max()
    if hi > lo:
        image = (image - lo) / (hi - lo)
    return image


@pytest.mark.parametrize(
    "shape",
    [(3, 67, 67), (3, 64, 64), (3, 115, 115), (3, 112, 112), (3, 224, 224),
     (3, 227, 227), (1, 33, 50), (5, 40, 29)],
)
def test_natural_image_stacked_filter_matches_per_plane_oracle(shape):
    for seed in range(3):
        got = natural_image(shape, np.random.default_rng(seed))
        want = _natural_image_per_plane(shape, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes(), (shape, seed)
