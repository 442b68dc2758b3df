"""Functional DNN layer implementations (the golden model).

Activations are stored with layout ``(batch, depth, height, width)`` —
``a[b, z, y, x]`` — where each image matches the paper's description of a
layer input as an ``Ix x Iy x i`` array of *input neurons* indexed
``n(x, y, z)``.  Filters (synapses) are 4-D ``(num_filters, depth, Fy, Fx)``.

The batched path is the only path: a public function called on a single
``(depth, height, width)`` image promotes it to a batch of one and returns
that image's result.  Each image's result is **bit-identical** whatever
batch it rides in: elementwise work is vectorized across the batch, while
the BLAS calls (the conv GEMM and the FC matrix-vector product) are issued
per image on buffers laid out exactly alike for every image.  A single
stacked GEMM over all images is *not* used deliberately — OpenBLAS
dispatches shape-dependent kernels (small-matrix and GEMV specializations)
whose accumulation order differs in the last ulp, which would make an
image's bytes depend on its batch (and break the golden, ZFNAf and timing
validation that diffs hardware outputs against this model).

The conv GEMM and the FC matvec are one plain BLAS call each, per image
and per group, issued by :mod:`repro.nn.sparse`.  They multiply every
neuron, zeros included: Cnvlutin's zero skipping lives in its hardware
lanes, which the cycle simulators model, and dense BLAS gains nothing
from scattered zero columns at these shapes.  The kernels carry the ABFT
checksums of :mod:`repro.reliability.integrity`: under
``CNVLUTIN_INTEGRITY`` every (sampled) GEMM/matvec verifies a
Huang-Abraham sum invariant *before* the bias add, read-only, so a
silently corrupted product raises instead of flowing into downstream
layers or the engine cache.

These implementations are the *golden model*: both the DaDianNao baseline
simulator and the Cnvlutin simulator validate their outputs against them
(the paper's own simulator validated against Caffe in the same fashion,
Section V-A).  ``conv2d`` uses an im2col + matmul formulation for speed; a
deliberately naive quadruple-loop ``conv2d_naive`` exists for testing the
fast path.
"""

from __future__ import annotations

import numpy as np

from repro.nn import sparse as kernels

__all__ = [
    "conv2d",
    "conv2d_naive",
    "relu",
    "threshold_relu",
    "max_pool2d",
    "avg_pool2d",
    "lrn",
    "fully_connected",
    "softmax",
    "im2col",
    "conv_output_size",
    "pad_input",
]


def conv_output_size(in_size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial size for a convolution/pooling window.

    Implements ``O = (I - F + 2*pad) / S + 1`` (floor), the formula from
    Section III-A generalized with padding.
    """
    out = (in_size - kernel + 2 * pad) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: in={in_size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def pad_input(activations: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the spatial (y, x) dimensions — the last two axes.

    Works for ``(z, y, x)`` arrays and batched ``(batch, z, y, x)`` arrays.
    The interior is copied into a zero-filled array, so the result holds
    the same bytes as ``np.pad``'s constant-zero padding.
    """
    if pad < 0:
        raise ValueError("pad must be non-negative")
    if pad == 0:
        return activations
    *lead, height, width = activations.shape
    padded = np.zeros(
        (*lead, height + 2 * pad, width + 2 * pad), dtype=activations.dtype
    )
    padded[..., pad : pad + height, pad : pad + width] = activations
    return padded


def im2col(
    activations: np.ndarray, kernel_y: int, kernel_x: int, stride: int
) -> np.ndarray:
    """Unfold windows of a (pre-padded) ``(batch, z, y, x)`` stack into columns.

    Returns ``(batch, out_y * out_x, z * kernel_y * kernel_x)``: each
    ``cols[b]`` is a C-contiguous buffer whose rows are image ``b``'s
    windows flattened in ``(z, fy, fx)`` order.  A single ``(z, y, x)``
    image returns its ``(out_y * out_x, z * kernel_y * kernel_x)`` columns.
    """
    if activations.ndim == 3:
        return im2col(activations[np.newaxis], kernel_y, kernel_x, stride)[0]
    batch, depth, in_y, in_x = activations.shape
    out_y = (in_y - kernel_y) // stride + 1
    out_x = (in_x - kernel_x) // stride + 1
    sb, sz, sy, sx = activations.strides
    windows = np.lib.stride_tricks.as_strided(
        activations,
        shape=(batch, out_y, out_x, depth, kernel_y, kernel_x),
        strides=(sb, sy * stride, sx * stride, sz, sy, sx),
        writeable=False,
    )
    return windows.reshape(batch, out_y * out_x, depth * kernel_y * kernel_x)


def conv2d(
    activations: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """2-D convolution (cross-correlation, as in CNN frameworks).

    Parameters
    ----------
    activations:
        Input neurons, a ``(batch, i, Iy, Ix)`` stack or one ``(i, Iy, Ix)``
        image.
    weights:
        Synapses, shape ``(N, i // groups, Fy, Fx)``.
    bias:
        Optional per-filter bias, shape ``(N,)``.
    stride, pad:
        Spatial stride and symmetric zero padding.
    groups:
        Grouped convolution (AlexNet-style two-GPU splits use ``groups=2``).

    Returns
    -------
    Output neurons of shape ``(batch, N, Oy, Ox)`` — ``(N, Oy, Ox)`` for one
    image — (pre-activation — apply :func:`relu` separately, mirroring the
    hardware where ReLU happens at the output of the unit back-end).
    im2col is stacked across the batch, but the GEMM runs per image (see
    module docstring).
    """
    if activations.ndim == 3:
        return conv2d(activations[np.newaxis], weights, bias, stride, pad, groups)[0]
    batch, depth, in_y, in_x = activations.shape
    num_filters, w_depth, kernel_y, kernel_x = weights.shape
    if depth % groups or num_filters % groups:
        raise ValueError("depth and num_filters must be divisible by groups")
    if w_depth != depth // groups:
        raise ValueError(
            f"weight depth {w_depth} != input depth {depth} / groups {groups}"
        )
    padded = pad_input(activations, pad)
    out_y = conv_output_size(in_y, kernel_y, stride, pad)
    out_x = conv_output_size(in_x, kernel_x, stride, pad)

    group_depth = depth // groups
    group_filters = num_filters // groups
    # Compute in the inputs' precision (float32 weights halve the cost of
    # the full-resolution experiment sweeps; default stays float64).
    out_dtype = np.result_type(activations, weights)
    out = np.empty((batch, num_filters, out_y, out_x), dtype=out_dtype)
    for g in range(groups):
        cols = im2col(
            padded[:, g * group_depth : (g + 1) * group_depth],
            kernel_y,
            kernel_x,
            stride,
        )
        for b in range(batch):
            # (out_y*out_x, group_filters)
            result = kernels.partitioned_gemm(cols[b], weights, g, groups)
            out[b, g * group_filters : (g + 1) * group_filters] = (
                result.T.reshape(group_filters, out_y, out_x)
            )
    # The bias add is unconditional (0.0 when absent): it maps -0.0 to +0.0.
    out += (
        np.asarray(bias).reshape(1, num_filters, 1, 1) if bias is not None else 0.0
    )
    return out


def conv2d_naive(
    activations: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Reference quadruple-loop convolution used to validate :func:`conv2d`.

    Implements the Section III-A sum directly::

        o(k, l, f) = sum_y sum_x sum_i s^f(y, x, i) * n(y + l*S, x + k*S, i)
    """
    depth, in_y, in_x = activations.shape
    num_filters, w_depth, kernel_y, kernel_x = weights.shape
    padded = pad_input(activations, pad)
    out_y = conv_output_size(in_y, kernel_y, stride, pad)
    out_x = conv_output_size(in_x, kernel_x, stride, pad)
    group_depth = depth // groups
    group_filters = num_filters // groups

    out = np.zeros((num_filters, out_y, out_x), dtype=np.float64)
    for f in range(num_filters):
        g = f // group_filters
        z0 = g * group_depth
        for oy in range(out_y):
            for ox in range(out_x):
                acc = 0.0
                for fy in range(kernel_y):
                    for fx in range(kernel_x):
                        for z in range(w_depth):
                            acc += (
                                weights[f, z, fy, fx]
                                * padded[z0 + z, oy * stride + fy, ox * stride + fx]
                            )
                out[f, oy, ox] = acc
    if bias is not None:
        out += np.asarray(bias).reshape(num_filters, 1, 1)
    return out


def relu(activations: np.ndarray) -> np.ndarray:
    """Rectifier: positives pass, negatives become zero (Section II)."""
    return np.maximum(activations, 0.0)


def threshold_relu(activations: np.ndarray, threshold: float) -> np.ndarray:
    """ReLU followed by dynamic neuron pruning (Section V-E).

    Values whose magnitude is below ``threshold`` are set to zero so the
    Cnvlutin encoder will drop them.  With ``threshold == 0`` this is plain
    ReLU.  The hardware reuses the max-pooling comparators for this check.
    """
    out = np.maximum(activations, 0.0)
    if threshold > 0:
        out[np.abs(out) < threshold] = 0.0
    return out


def _pool2d_windows(
    padded: np.ndarray, kernel: int, stride: int, out_y: int, out_x: int
) -> np.ndarray:
    """Contiguous ``(..., out_y, out_x, kernel*kernel)`` window array.

    The trailing axis holds each window flattened in ``(y, x)`` order, so
    reductions over it are bit-identical to per-window reductions (the
    per-pixel loop ``tests/test_layers.py`` keeps as the reference).
    """
    lead = padded.shape[:-2]
    sy, sx = padded.strides[-2:]
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(*lead, out_y, out_x, kernel, kernel),
        strides=(*padded.strides[:-2], sy * stride, sx * stride, sy, sx),
        writeable=False,
    )
    return np.ascontiguousarray(windows).reshape(
        *lead, out_y, out_x, kernel * kernel
    )


def _pool2d_input(
    activations: np.ndarray, kernel: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """The padded input and the output size of a pooling layer."""
    # conv_output_size floors, so the last window ends inside the padded
    # input: ``(out - 1) * stride + kernel <= in + 2 * pad``.
    in_y, in_x = activations.shape[-2:]
    out_y = conv_output_size(in_y, kernel, stride, pad)
    out_x = conv_output_size(in_x, kernel, stride, pad)
    return pad_input(activations, pad), out_y, out_x


def _nan_or_negative_zero(activations: np.ndarray) -> bool:
    """Whether ``activations`` holds a NaN or a ``-0.0``, in two
    reductions and no temporary: a float minimum propagates any NaN, and
    the bits of ``-0.0`` read as a signed integer are the smallest
    integer of their width."""
    if not activations.size:
        return False
    ints = activations.view(f"i{activations.itemsize}")
    return bool(
        np.isnan(activations.min()) or ints.min() == np.iinfo(ints.dtype).min
    )


def max_pool2d(
    activations: np.ndarray, kernel: int, stride: int, pad: int = 0
) -> np.ndarray:
    """Max pooling over ``kernel x kernel`` windows of the last two axes.

    A running ``np.maximum`` over the ``kernel**2`` strided views of the
    padded input; no window is copied.  Its bytes equal ``np.max`` over
    each copied window whenever every window's maximum has one byte
    pattern, that is when the input holds no NaN and no ``-0.0``.
    Which of ``±0``, or which NaN, numpy's maximum returns depends on
    the SIMD path it takes, so such an input takes the copy path and
    keeps its bytes.
    """
    padded, out_y, out_x = _pool2d_input(activations, kernel, stride, pad)
    if _nan_or_negative_zero(activations):
        return _pool2d_windows(padded, kernel, stride, out_y, out_x).max(axis=-1)
    span_y = (out_y - 1) * stride + 1
    span_x = (out_x - 1) * stride + 1
    views = (
        padded[..., fy:fy + span_y:stride, fx:fx + span_x:stride]
        for fy in range(kernel)
        for fx in range(kernel)
    )
    out = next(views).copy()
    for view in views:
        np.maximum(out, view, out=out)
    return out


def avg_pool2d(
    activations: np.ndarray, kernel: int, stride: int, pad: int = 0
) -> np.ndarray:
    """Average pooling over ``kernel x kernel`` windows of the last two axes.

    Reduces each copied window, so the summation order is the window's
    own ``(y, x)`` order (a running sum would change it).
    """
    padded, out_y, out_x = _pool2d_input(activations, kernel, stride, pad)
    return _pool2d_windows(padded, kernel, stride, out_y, out_x).mean(axis=-1)


def lrn(
    activations: np.ndarray,
    local_size: int = 5,
    alpha: float = 1e-4,
    beta: float = 0.75,
    k: float = 1.0,
) -> np.ndarray:
    """Local response normalization across channels (AlexNet-style).

    Vectorized over depth: the clipped per-channel band sums become a
    sliding-window sum over a zero-padded depth axis (adding zeros is
    exact, and the window elements are accumulated in the same ascending
    depth order the per-channel loop used, so results are bit-identical).
    Accepts a leading batch axis.
    """
    channel_axis = activations.ndim - 3
    depth = activations.shape[channel_axis]
    half = local_size // 2
    squared = activations**2
    width = [(0, 0)] * activations.ndim
    width[channel_axis] = (half, half)
    padded = np.pad(squared, width)
    strides = padded.strides
    window_shape = (
        *padded.shape[:channel_axis],
        depth,
        local_size,
        *padded.shape[channel_axis + 1 :],
    )
    window_strides = (
        *strides[:channel_axis],
        strides[channel_axis],
        strides[channel_axis],
        *strides[channel_axis + 1 :],
    )
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=window_shape, strides=window_strides, writeable=False
    )
    sums = windows.sum(axis=channel_axis + 1)
    return activations / (k + (alpha / local_size) * sums) ** beta


def fully_connected(
    activations: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Fully-connected layer: flatten input, multiply by ``(out, in)`` weights.

    A ``(batch, ...)`` stack yields ``(batch, out)``; one ``(depth, H, W)``
    image yields ``(out,)``.  The matrix-vector product runs per image:
    BLAS GEMV and GEMM kernels accumulate in different orders, so a single
    stacked GEMM would make an image's bytes depend on its batch (see
    module docstring).
    """
    if activations.ndim == 3:
        return fully_connected(activations[np.newaxis], weights, bias)[0]
    batch = activations.shape[0]
    flat = activations.reshape(batch, -1)
    if weights.shape[1] != flat.shape[1]:
        raise ValueError(
            f"FC weight columns {weights.shape[1]} != flattened input "
            f"{flat.shape[1]}"
        )
    out = np.empty(
        (batch, weights.shape[0]), dtype=np.result_type(activations, weights)
    )
    for b in range(batch):
        out[b] = kernels.partitioned_matvec(weights, flat[b])
    return out + (bias if bias is not None else 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax, row-wise over a ``(batch, classes)`` array.

    A 1-D logit vector is a batch of one.
    """
    if logits.ndim == 1:
        return softmax(logits[np.newaxis])[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)
