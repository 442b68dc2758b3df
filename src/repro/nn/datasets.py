"""Synthetic input data.

The paper classifies 1000 ImageNet images; we have no network access, so
this module generates two kinds of synthetic inputs:

* :func:`natural_image` — multi-scale correlated random fields that mimic
  the 1/f spatial statistics of natural photographs.  These drive the
  sparsity measurements (Fig. 1) and the timing simulations: what matters
  there is that activations flowing through the calibrated networks have
  realistic spatial structure, not that the images depict objects.
* :class:`ShapeDataset` — a small labelled image-classification task
  (oriented bars, crosses, circles, squares, ...) used to *train* a real
  CNN with :mod:`repro.nn.training` so that the pruning experiments
  (Fig. 14, Table II) have a genuine accuracy signal to trade off against
  speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["natural_image", "natural_images", "ShapeDataset", "NUM_SHAPE_CLASSES"]


def natural_image(
    shape: tuple[int, int, int], rng: np.random.Generator
) -> np.ndarray:
    """One synthetic 'natural' image with 1/f-like spectra, values in [0, 1].

    Built as a sum of Gaussian-smoothed white-noise octaves.  The per-image
    octave weights, contrast and colour cast are themselves randomized so
    *different images differ as strongly as different photographs do* —
    without this, zero-neuron positions would correlate across inputs far
    more than the paper observes (Section II finds no neuron that is zero
    on every input).
    """
    depth, height, width = shape
    image = np.zeros(shape, dtype=np.float64)
    max_sigma = max(height, width) / 8
    sigma = 1.0
    amplitude = 1.0
    decay = rng.uniform(0.35, 0.75)  # per-image spectral slope
    while sigma <= max_sigma:
        # One filter call over the whole stack: a zero sigma skips the
        # channel axis, so each plane sees the same 1-D passes as a
        # per-plane call would give it, byte for byte.
        smooth = ndimage.gaussian_filter(
            rng.normal(size=shape), sigma=(0, sigma, sigma)
        )
        std = smooth.std()
        if std > 0:
            image += amplitude * rng.uniform(0.5, 1.5) * smooth / std
        sigma *= 2.0
        amplitude *= decay
    # Smooth per-image illumination field (shadows / vignetting).
    illum = ndimage.gaussian_filter(
        rng.normal(size=(height, width)), sigma=max(height, width) / 4
    )
    illum_std = illum.std()
    if illum_std > 0:
        image *= 1.0 + 0.5 * illum / (3 * illum_std)
    image += 0.3 * rng.normal(size=(depth, 1, 1))  # per-channel cast
    lo, hi = image.min(), image.max()
    if hi > lo:
        image = (image - lo) / (hi - lo)
    return image


def natural_images(
    shape: tuple[int, int, int], count: int, seed: int = 0
) -> list[np.ndarray]:
    """A reproducible batch of synthetic natural images."""
    rng = np.random.default_rng(seed)
    return [natural_image(shape, rng) for _ in range(count)]


NUM_SHAPE_CLASSES = 8


@dataclass
class ShapeDataset:
    """Labelled synthetic shape-classification images.

    Eight classes rendered on a noisy background at random positions and
    scales: horizontal bar, vertical bar, the two diagonals, cross, square
    outline, disc, and ring.  Deliberately easy enough for a tiny CNN to
    learn well above chance with numpy-speed training, but hard enough that
    aggressive activation pruning measurably hurts accuracy — the property
    Fig. 14 depends on.
    """

    size: int = 24
    noise: float = 0.25

    def render(self, label: int, rng: np.random.Generator) -> np.ndarray:
        """Render one ``(1, size, size)`` image of class ``label``."""
        if not 0 <= label < NUM_SHAPE_CLASSES:
            raise ValueError(f"label must be in [0, {NUM_SHAPE_CLASSES})")
        size = self.size
        canvas = np.zeros((size, size), dtype=np.float64)
        cy = rng.integers(size // 3, 2 * size // 3)
        cx = rng.integers(size // 3, 2 * size // 3)
        half = int(rng.integers(size // 5, size // 3))
        thick = max(1, size // 12)

        ys, xs = np.mgrid[0:size, 0:size]
        dy, dx = ys - cy, xs - cx
        inside = (np.abs(dy) <= half) & (np.abs(dx) <= half)
        if label == 0:  # horizontal bar
            canvas[(np.abs(dy) < thick) & (np.abs(dx) <= half)] = 1.0
        elif label == 1:  # vertical bar
            canvas[(np.abs(dx) < thick) & (np.abs(dy) <= half)] = 1.0
        elif label == 2:  # main diagonal
            canvas[(np.abs(dy - dx) < thick) & inside] = 1.0
        elif label == 3:  # anti-diagonal
            canvas[(np.abs(dy + dx) < thick) & inside] = 1.0
        elif label == 4:  # cross
            canvas[
                ((np.abs(dy) < thick) | (np.abs(dx) < thick)) & inside
            ] = 1.0
        elif label == 5:  # square outline
            border = (
                (np.abs(np.abs(dy) - half) < thick) & (np.abs(dx) <= half)
            ) | ((np.abs(np.abs(dx) - half) < thick) & (np.abs(dy) <= half))
            canvas[border] = 1.0
        elif label == 6:  # disc
            canvas[dy**2 + dx**2 <= half**2] = 1.0
        else:  # ring
            r2 = dy**2 + dx**2
            canvas[(r2 <= half**2) & (r2 >= (half - 2 * thick) ** 2)] = 1.0

        canvas += self.noise * rng.normal(size=canvas.shape)
        return canvas[np.newaxis, :, :]

    def batch(
        self, count: int, seed: int = 0
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Generate ``count`` images with balanced random labels."""
        rng = np.random.default_rng(seed)
        labels = np.arange(count) % NUM_SHAPE_CLASSES
        rng.shuffle(labels)
        images = [self.render(int(label), rng) for label in labels]
        return images, labels
