"""Functional DNN layer implementations (the golden model).

All layer functions operate on activations stored as 3-D numpy arrays with
layout ``(depth, height, width)`` — i.e. ``a[z, y, x]`` — matching the
paper's description of a layer input as an ``Ix x Iy x i`` array of *input
neurons* indexed ``n(x, y, z)``.  Filters (synapses) are 4-D
``(num_filters, depth, Fy, Fx)``.

Every activation-consuming function also accepts a leading *batch* axis
(``(batch, depth, height, width)``), producing the batch of outputs in one
call.  The batched results are **bit-identical** to running each image
separately: elementwise work is vectorized across the batch, while the
BLAS calls (the conv GEMM and the FC matrix-vector product) are issued per
image on buffers laid out exactly as the single-image path produces them.
A single stacked GEMM over all images is *not* used deliberately —
OpenBLAS dispatches shape-dependent kernels (small-matrix and GEMV
specializations) whose accumulation order differs in the last ulp, which
would break the engine's bit-identity contract (and with it the golden,
ZFNAf and timing validation that diffs hardware outputs against this
model).

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
    """
    if pad < 0:
        raise ValueError("pad must be non-negative")
    if pad == 0:
        return activations
    width = [(0, 0)] * (activations.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(activations, width)


def im2col(
    activations: np.ndarray, kernel_y: int, kernel_x: int, stride: int
) -> np.ndarray:
    """Unfold windows of a (pre-padded) ``(z, y, x)`` array into columns.

    Returns an array of shape ``(out_y * out_x, z * kernel_y * kernel_x)``
    where each row is one window flattened in ``(z, fy, fx)`` order.  A
    batched ``(batch, z, y, x)`` input unfolds every image at once and
    returns ``(batch, out_y * out_x, z * kernel_y * kernel_x)``; each
    ``cols[b]`` is a C-contiguous buffer identical to the single-image
    unfold of ``activations[b]``.
    """
    if activations.ndim == 4:
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
    depth, in_y, in_x = activations.shape
    out_y = (in_y - kernel_y) // stride + 1
    out_x = (in_x - kernel_x) // stride + 1
    sz, sy, sx = activations.strides
    windows = np.lib.stride_tricks.as_strided(
        activations,
        shape=(out_y, out_x, depth, kernel_y, kernel_x),
        strides=(sy * stride, sx * stride, sz, sy, sx),
        writeable=False,
    )
    return windows.reshape(out_y * out_x, depth * kernel_y * kernel_x)


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
        Input neurons, shape ``(i, Iy, Ix)`` or batched ``(batch, i, Iy, Ix)``.
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
    Output neurons of shape ``(N, Oy, Ox)`` — or ``(batch, N, Oy, Ox)`` for
    batched input — (pre-activation — apply :func:`relu` separately,
    mirroring the hardware where ReLU happens at the output of the unit
    back-end).  Batched output rows are bit-identical to single-image
    calls: im2col is stacked across the batch, but the GEMM runs per image
    (see module docstring).
    """
    if activations.ndim == 4:
        depth, in_y, in_x = activations.shape[1:]
    else:
        depth, in_y, in_x = activations.shape
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
    # The bias add is unconditional (0.0 when absent): it maps -0.0 to
    # +0.0, and the batched and single-image paths end with the same add.
    if activations.ndim == 4:
        batch = activations.shape[0]
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
        out += (
            np.asarray(bias).reshape(1, num_filters, 1, 1) if bias is not None else 0.0
        )
        return out

    out = np.empty((num_filters, out_y, out_x), dtype=out_dtype)
    for g in range(groups):
        cols = im2col(
            padded[g * group_depth : (g + 1) * group_depth], kernel_y, kernel_x, stride
        )
        # (out_y*out_x, group_filters)
        result = kernels.partitioned_gemm(cols, weights, g, groups)
        out[g * group_filters : (g + 1) * group_filters] = result.T.reshape(
            group_filters, out_y, out_x
        )
    out += np.asarray(bias).reshape(num_filters, 1, 1) if bias is not None else 0.0
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

    The trailing axis holds each window flattened in ``(y, x)`` order —
    the same contiguous buffer the per-pixel loop reduced — so reductions
    over it are bit-identical to the loop's per-window reductions.
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


def _pool2d(
    activations: np.ndarray,
    kernel: int,
    stride: int,
    pad: int,
    reducer,
    window_reducer,
) -> np.ndarray:
    in_y, in_x = activations.shape[-2:]
    out_y = conv_output_size(in_y, kernel, stride, pad)
    out_x = conv_output_size(in_x, kernel, stride, pad)
    padded = pad_input(activations, pad)
    if (
        (out_y - 1) * stride + kernel <= padded.shape[-2]
        and (out_x - 1) * stride + kernel <= padded.shape[-1]
    ):
        # No-overhang fast path: one stride-tricks window view and a single
        # vectorized reduction over the flattened windows.
        return window_reducer(_pool2d_windows(padded, kernel, stride, out_y, out_x))
    # Pooling windows may overhang the padded input on the far edge for
    # some Caffe geometries (ceil-mode); clip window extents instead.
    if activations.ndim == 4:
        return np.stack(
            [
                _pool2d(image, kernel, stride, pad, reducer, window_reducer)
                for image in activations
            ]
        )
    depth = activations.shape[0]
    out = np.empty((depth, out_y, out_x), dtype=activations.dtype)
    for oy in range(out_y):
        y0 = oy * stride
        y1 = min(y0 + kernel, padded.shape[1])
        for ox in range(out_x):
            x0 = ox * stride
            x1 = min(x0 + kernel, padded.shape[2])
            out[:, oy, ox] = reducer(padded[:, y0:y1, x0:x1])
    return out


def max_pool2d(
    activations: np.ndarray, kernel: int, stride: int, pad: int = 0
) -> np.ndarray:
    """Max pooling over ``kernel x kernel`` windows (batch axis supported)."""
    return _pool2d(
        activations,
        kernel,
        stride,
        pad,
        lambda w: w.reshape(w.shape[0], -1).max(axis=1),
        lambda windows: windows.max(axis=-1),
    )


def avg_pool2d(
    activations: np.ndarray, kernel: int, stride: int, pad: int = 0
) -> np.ndarray:
    """Average pooling over ``kernel x kernel`` windows (batch axis supported)."""
    return _pool2d(
        activations,
        kernel,
        stride,
        pad,
        lambda w: w.reshape(w.shape[0], -1).mean(axis=1),
        lambda windows: windows.mean(axis=-1),
    )


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

    A batched ``(batch, ...)`` input (ndim == 4) yields ``(batch, out)``.
    The matrix-vector product runs per image: BLAS GEMV and GEMM kernels
    accumulate in different orders, so a single stacked GEMM would not be
    bit-identical to the single-image path (see module docstring).
    """
    if activations.ndim == 4:
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
        out = out + (bias if bias is not None else 0.0)
        return out
    flat = activations.reshape(-1)
    if weights.shape[1] != flat.size:
        raise ValueError(
            f"FC weight columns {weights.shape[1]} != flattened input {flat.size}"
        )
    out = kernels.partitioned_matvec(weights, flat)
    out = out + (bias if bias is not None else 0.0)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over a 1-D logit vector.

    A 2-D ``(batch, classes)`` input is normalized row-wise, bit-identical
    to per-row calls.
    """
    if logits.ndim == 2:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=-1, keepdims=True)
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    return exps / exps.sum()
