"""Forward-pass engine for :class:`~repro.nn.network.Network` descriptions.

This is the functional substrate the paper gets from Caffe: it computes the
activations flowing between layers so that (a) the zero-neuron statistics of
Section II can be measured, (b) the cycle simulators have real inputs to
process, and (c) hardware outputs can be validated layer by layer
("on-the-fly validation of the layer output neurons", Section V-A).

The engine supports:

* per-conv-layer *pruning thresholds* (Section V-E): at the output of a
  layer, post-ReLU values with magnitude below the layer's threshold are
  zeroed — exactly what the CNV encoder does with the reused max-pooling
  comparators;
* per-layer *calibration shifts* (see :mod:`repro.nn.calibration`) which
  stand in for the learned biases of the pretrained models;
* optional 16-bit fixed-point quantization at layer boundaries, matching
  the accelerator datapath;
* *batched* inference: a ``(batch, depth, H, W)`` image stack runs every
  image through the network in one pass, bit-identical to per-image calls
  (see :mod:`repro.nn.layers` for how the BLAS calls preserve this).

The batched path is the only path: :func:`run_forward` promotes a single
``(depth, H, W)`` image to a batch of one and returns its unbatched views
(:func:`slice_result`), so :func:`apply_layer` and the layer functions see
only stacks.  Which layers feed which comes from the
:class:`~repro.nn.network.Network`'s graph.

Activations are computed in the input's floating dtype: a float32 image
over float32 weights stays float32 end to end (integer inputs are promoted
to float64).  Incremental re-use of activations across threshold
configurations lives in :mod:`repro.nn.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.nn import layers as F
from repro.nn.network import LayerKind, LayerSpec, Network
from repro.nn.tensor import FixedPointFormat, dequantize, quantize

__all__ = [
    "WeightStore",
    "ForwardResult",
    "init_weights",
    "draw_weights",
    "image_stack",
    "run_forward",
    "apply_layer",
    "slice_result",
]


@dataclass
class WeightStore:
    """Weights and biases for the conv/FC layers of one network.

    ``shifts`` holds per-layer calibration offsets added to the layer's
    pre-activations — scalars or per-output-channel arrays (broadcast over
    the spatial dims).  They play the role of the learned biases that set
    each unit's operating point (and hence its zero fraction); per-channel
    shifts keep every channel live, as trained biases do.
    """

    weights: dict[str, np.ndarray] = field(default_factory=dict)
    biases: dict[str, np.ndarray] = field(default_factory=dict)
    shifts: dict[str, float | np.ndarray] = field(default_factory=dict)

    def shift(self, layer_name: str):
        return self.shifts.get(layer_name, 0.0)


#: Normals per float64 chunk of :func:`draw_weights` (8 MB of scratch,
#: however large the layer).
_DRAW_CHUNK = 1 << 20


def init_weights(network: Network, rng: np.random.Generator) -> WeightStore:
    """He-initialized random float32 weights for every conv and FC layer
    of one network (:func:`draw_weights` of a one-network list)."""
    return draw_weights([network], rng)[0]


def draw_weights(
    networks: list[Network], rng: np.random.Generator
) -> list[WeightStore]:
    """He-initialized random float32 weights for several networks, drawn
    in one pass over ``rng``'s standard-normal stream.

    The reproduction substitutes pretrained Model-Zoo weights with random
    filters whose scale keeps activation variance roughly constant across
    layers (He et al. scaling); :mod:`repro.nn.calibration` then sets the
    per-layer shifts so the zero-neuron fractions match the paper's Fig. 1.

    Each network's conv and FC layers are consecutive slices of the
    stream from ``rng``'s current state, layer ``l`` scaled by its
    ``sqrt(2 / fan_in)``, so every store equals a draw for its network
    alone on a generator in that state: ``rng.normal(0.0, scale,
    shape).astype(np.float32)`` layer after layer.  The networks share
    the stream's prefix, so one pass as long as the longest network fills
    them all: each float64 chunk of bounded scratch is drawn once, then
    scaled and rounded into every layer it covers in every network.  No
    float64 copy of a layer exists, and ``rng`` ends where the longest
    network's own draw would leave it.
    """
    stores = [WeightStore() for _ in networks]
    # (stream offset, flat float32 destination, scale) of every layer
    slices: list[tuple[int, np.ndarray, np.float64]] = []
    length = 0
    for network, store in zip(networks, stores):
        offset = 0
        for layer in network.layers:
            if layer.kind == LayerKind.CONV:
                depth = network.input_shape_of(layer.name)[0] // layer.groups
                fan_in = depth * layer.kernel * layer.kernel
                shape = (layer.num_filters, depth, layer.kernel, layer.kernel)
            elif layer.kind == LayerKind.FC:
                in_shape = network.input_shape_of(layer.name)
                fan_in = in_shape[0] * in_shape[1] * in_shape[2]
                shape = (layer.num_filters, fan_in)
            else:
                continue
            weights = np.empty(shape, dtype=np.float32)
            store.weights[layer.name] = weights
            store.biases[layer.name] = np.zeros(layer.num_filters, dtype=np.float32)
            slices.append((offset, weights.reshape(-1), np.sqrt(2.0 / fan_in)))
            offset += weights.size
        length = max(length, offset)
    normals = np.empty(min(_DRAW_CHUNK, length))
    scaled = np.empty_like(normals)
    for start in range(0, length, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, length)
        chunk = normals[: stop - start]
        rng.standard_normal(out=chunk)
        for offset, flat, scale in slices:
            lo, hi = max(start, offset), min(stop, offset + flat.size)
            if lo < hi:
                part = scaled[: hi - lo]
                np.multiply(chunk[lo - start : hi - start], scale, out=part)
                # + 0.0 turns -0.0 into +0.0, as in 0.0 + scale * z; the
                # float64 sum is rounded into the float32 layer
                np.add(part, 0.0, out=flat[lo - offset : hi - offset],
                       casting="same_kind")
    return stores


@dataclass
class ForwardResult:
    """All per-layer activations produced by one forward pass.

    Attributes
    ----------
    outputs:
        Output activation of every layer, by name.  For a batched pass
        every array carries the leading batch axis.
    conv_inputs:
        The activation array *consumed* by each conv layer — the neuron
        stream whose zeros CNV skips.  For grouped convolutions this is the
        full (ungrouped) input; the simulators handle the group split.
    logits:
        Output of the last FC layer (before softmax), if any — ``(classes,)``
        per image, ``(batch, classes)`` for a batched pass.
    """

    outputs: dict[str, np.ndarray]
    conv_inputs: dict[str, np.ndarray]
    logits: np.ndarray | None = None


def slice_result(result: ForwardResult, index: int) -> ForwardResult:
    """Single-image view (no copy) of a batched :class:`ForwardResult`."""
    return ForwardResult(
        outputs={name: arr[index] for name, arr in result.outputs.items()},
        conv_inputs={name: arr[index] for name, arr in result.conv_inputs.items()},
        logits=None if result.logits is None else result.logits[index],
    )


def image_stack(network: Network, images) -> np.ndarray:
    """Check ``images`` against the network input; return a float stack.

    A single ``(depth, H, W)`` image becomes a batch of one; any other
    shape than ``(batch, depth, H, W)`` matching ``network.input_shape``
    raises.  Integer images are promoted to float64.
    """
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[np.newaxis]
    if images.ndim != 4 or images.shape[1:] != network.input_shape:
        raise ValueError(
            f"image stack shape {images.shape} incompatible with network "
            f"input {network.input_shape}"
        )
    if not np.issubdtype(images.dtype, np.floating):
        images = images.astype(np.float64)
    return images


def _gather_input(
    network: Network,
    layer: LayerSpec,
    outputs: dict[str, np.ndarray],
    images: np.ndarray,
) -> np.ndarray:
    """The stack ``layer`` reads: the images, its producer's output, or a
    concat of its producers' outputs along the depth axis."""
    inputs = network.inputs(layer.name)
    if layer.kind == LayerKind.CONCAT:
        return np.concatenate([outputs[name] for name in inputs], axis=1)
    return outputs[inputs[0]] if inputs else images


def _apply_shift(pre: np.ndarray, shift) -> np.ndarray:
    """Add a scalar or per-channel shift to a batched pre-activation array.

    Channels run along axis 1 of both the conv ``(batch, N, y, x)`` and the
    FC ``(batch, N)`` pre-activations.
    """
    if np.ndim(shift) == 1:
        shift = np.asarray(shift).reshape(-1, *[1] * (pre.ndim - 2))
    return pre + shift


def apply_layer(
    layer: LayerSpec,
    src: np.ndarray,
    store: WeightStore,
    thresholds: dict[str, float],
    shift_fn=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Compute one layer's raw output from its (already gathered) input.

    ``src`` is the layer's batched ``(batch, depth, H, W)`` input activation
    (see :func:`_gather_input`).  Returns ``(out, logits)`` where ``logits``
    is non-``None`` only for FC and SOFTMAX layers (the *pre-quantization*
    ``(batch, classes)`` logits).  Quantization at the layer boundary is
    the caller's job.
    """
    if layer.kind == LayerKind.CONV:
        pre = F.conv2d(
            src,
            store.weights[layer.name],
            store.biases[layer.name],
            stride=layer.stride,
            pad=layer.pad,
            groups=layer.groups,
        )
        if shift_fn is not None:
            pre = _apply_shift(pre, shift_fn(layer.name, pre))
        else:
            pre = _apply_shift(pre, store.shift(layer.name))
        if layer.fused_relu:
            return F.threshold_relu(pre, thresholds.get(layer.name, 0.0)), None
        return pre, None
    if layer.kind == LayerKind.RELU:
        return F.threshold_relu(src, thresholds.get(layer.name, 0.0)), None
    if layer.kind == LayerKind.MAXPOOL:
        return F.max_pool2d(src, layer.kernel, layer.stride, layer.pad), None
    if layer.kind == LayerKind.AVGPOOL:
        return F.avg_pool2d(src, layer.kernel, layer.stride, layer.pad), None
    if layer.kind == LayerKind.LRN:
        return F.lrn(src, local_size=layer.lrn_size), None
    if layer.kind == LayerKind.DROPOUT:
        return src, None  # identity at inference time
    if layer.kind == LayerKind.FC:
        pre = F.fully_connected(
            src, store.weights[layer.name], store.biases[layer.name]
        )
        if shift_fn is not None:
            pre = _apply_shift(pre, shift_fn(layer.name, pre))
        else:
            pre = _apply_shift(pre, store.shift(layer.name))
        if layer.fused_relu:
            pre = F.threshold_relu(pre, thresholds.get(layer.name, 0.0))
        return pre.reshape(pre.shape[0], layer.num_filters, 1, 1), pre
    if layer.kind == LayerKind.SOFTMAX:
        logits = src.reshape(src.shape[0], -1)  # softmax input, FC or not (nin)
        return F.softmax(logits).reshape(src.shape), logits
    raise AssertionError(f"unhandled kind {layer.kind}")  # pragma: no cover


def run_forward(
    network: Network,
    store: WeightStore,
    image: np.ndarray,
    thresholds: dict[str, float] | None = None,
    collect_conv_inputs: bool = True,
    fmt: FixedPointFormat | None = None,
    keep_outputs: bool = True,
    shift_fn=None,
    collect_logits: bool = True,
) -> ForwardResult:
    """Run one image — or a stack of images — through the network.

    Parameters
    ----------
    network, store, image:
        The network description, its weights, and a ``(batch, depth, H, W)``
        stack or one ``(depth, H, W)`` image (see :func:`image_stack`).  The
        pass computes in the image's floating dtype (integer images are
        promoted to float64).  A stack's results carry the leading batch
        axis; one image runs as a batch of one and gets that batch's
        unbatched views.  Either way each image's arrays are bit-identical.
    thresholds:
        Optional per-layer pruning thresholds (real-valued); applied to the
        post-ReLU output of the named conv/FC layers (Section V-E dynamic
        neuron pruning).
    collect_conv_inputs:
        Record the neuron array consumed by each conv layer (needed for the
        sparsity statistics and the accelerator simulations).
    fmt:
        If given, quantize activations to this fixed-point format at every
        layer boundary, as the hardware stores them in NM.
    keep_outputs:
        If false, only ``conv_inputs``/``logits`` are retained (saves
        memory on deep networks).
    shift_fn:
        Optional ``(layer_name, pre_activation) -> shift`` hook used by the
        calibration pass (:mod:`repro.nn.calibration`): when provided it
        overrides ``store.shifts`` for conv/FC layers and sees the raw
        (unshifted) pre-activation.
    collect_logits:
        If false, the caller reads only ``conv_inputs``: the pass records
        the input of the last conv layer and stops there, so that layer
        and everything after it (the FC classifier included) are never
        computed and ``logits`` is ``None``.  Layers run in topological
        order, so no conv input depends on the skipped tail; the
        ``conv_inputs`` are byte-identical to the full pass's, and with
        ``keep_outputs`` only the computed layers appear in ``outputs``.
    """
    images = image_stack(network, image)
    thresholds = thresholds or {}

    def maybe_quantize(arr: np.ndarray) -> np.ndarray:
        if fmt is None:
            return arr
        return dequantize(quantize(arr, fmt), fmt)

    outputs: dict[str, np.ndarray] = {}
    conv_inputs: dict[str, np.ndarray] = {}
    logits: np.ndarray | None = None
    images = maybe_quantize(images)

    stop = (
        None if collect_logits or not network.conv_layers
        else network.index_of(network.conv_layers[-1].name)
    )

    for idx, layer in enumerate(network.layers):
        if idx == stop:
            if collect_conv_inputs:
                conv_inputs[layer.name] = _gather_input(
                    network, layer, outputs, images
                )
            break
        with obs.span(
            f"layer:{layer.name}", cat="nn", network=network.name,
            kind=layer.kind,
        ) as layer_span:
            src = _gather_input(network, layer, outputs, images)
            if layer.kind == LayerKind.CONCAT:
                out = src
            else:
                if layer.kind == LayerKind.CONV and collect_conv_inputs:
                    conv_inputs[layer.name] = src
                out, layer_logits = apply_layer(layer, src, store, thresholds, shift_fn)
                if layer_logits is not None:
                    logits = layer_logits

            out = maybe_quantize(out)
            outputs[layer.name] = out
            if obs.tracing_enabled():
                layer_span.set(shape=str(out.shape))

        if not keep_outputs:
            for name in network.last_reads(layer.name):
                del outputs[name]

    result = ForwardResult(
        outputs=outputs if keep_outputs else {},
        conv_inputs=conv_inputs,
        logits=logits,
    )
    return slice_result(result, 0) if np.ndim(image) == 3 else result
