"""Network description: layer specs, the layer graph, and shape inference.

A :class:`Network` is an ordered list of :class:`LayerSpec` objects plus the
input shape.  It is a *description* — weights and activations live elsewhere
(:mod:`repro.nn.inference` runs a network, :mod:`repro.nn.models` defines the
six networks from Table I of the paper).

Inception-style branching (GoogLeNet) is expressed with ``input_from``: a
layer may read the output of any earlier named layer instead of its
immediate predecessor, and a ``concat`` layer merges several named outputs
along the depth axis.  This is sufficient to express every topology the
paper evaluates.

This module is the only reader of ``input_from``.  On construction a
:class:`Network` derives, per layer, its inputs, its index, its output
shape (through :func:`layer_output_shape`) and the outputs it reads last;
the forward walks, the engine's threshold scopes and calibration query
those facts.  Shapes are per image: the forward pass runs every input as
a ``(batch, depth, H, W)`` stack, a single image being a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nn.layers import conv_output_size

__all__ = ["LayerKind", "LayerSpec", "Network", "Shape3D", "layer_output_shape"]

#: Activation shape ``(depth, height, width)``.
Shape3D = tuple[int, int, int]

_VALID_KINDS = frozenset(
    {"conv", "relu", "maxpool", "avgpool", "lrn", "fc", "softmax", "concat", "dropout"}
)


class LayerKind:
    """String constants for the supported layer kinds."""

    CONV = "conv"
    RELU = "relu"
    MAXPOOL = "maxpool"
    AVGPOOL = "avgpool"
    LRN = "lrn"
    FC = "fc"
    SOFTMAX = "softmax"
    CONCAT = "concat"
    DROPOUT = "dropout"


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    Attributes
    ----------
    name:
        Unique layer name, e.g. ``"conv2"`` or ``"inception_3a/5x5"``.
    kind:
        One of the :class:`LayerKind` constants.
    num_filters, kernel, stride, pad, groups:
        Convolution / pooling geometry (``num_filters`` doubles as the
        output width of FC layers).
    input_from:
        Name(s) of the producing layer(s); ``None`` means the previous
        layer in the list (or the network input for the first layer).
        ``concat`` layers list several producers.
    fused_relu:
        Convolution and FC layers in all six paper networks are followed
        by a ReLU; marking it fused keeps layer lists compact and mirrors
        the hardware, where the activation function sits at the unit's
        output (Section III-A "before the activation function").
    """

    name: str
    kind: str
    num_filters: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    groups: int = 1
    input_from: tuple[str, ...] | None = None
    fused_relu: bool = False
    lrn_size: int = 5

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == LayerKind.CONV:
            if self.num_filters <= 0 or self.kernel <= 0:
                raise ValueError(f"conv layer {self.name!r} needs filters and kernel")
            if self.num_filters % self.groups:
                raise ValueError(f"conv layer {self.name!r}: filters % groups != 0")
        if self.kind == LayerKind.CONCAT and not self.input_from:
            raise ValueError(f"concat layer {self.name!r} needs input_from")

    @property
    def is_conv(self) -> bool:
        return self.kind == LayerKind.CONV


def layer_output_shape(layer: LayerSpec, sources: list[Shape3D]) -> Shape3D:
    """Per-image output shape of ``layer`` given the shapes it reads.

    ``sources`` lists one shape per input (the image's shape for a layer
    that reads the image); only a concat reads several.
    """
    if layer.kind == LayerKind.CONCAT:
        heights = {s[1] for s in sources}
        widths = {s[2] for s in sources}
        if len(heights) != 1 or len(widths) != 1:
            raise ValueError(
                f"concat {layer.name!r}: mismatched spatial dims {sources}"
            )
        return (sum(s[0] for s in sources), heights.pop(), widths.pop())
    depth, in_y, in_x = sources[0]
    if layer.kind == LayerKind.CONV:
        if depth % layer.groups:
            raise ValueError(
                f"conv {layer.name!r}: depth {depth} not divisible by "
                f"groups {layer.groups}"
            )
        depth = layer.num_filters
    if layer.kind in (LayerKind.CONV, LayerKind.MAXPOOL, LayerKind.AVGPOOL):
        out_y = conv_output_size(in_y, layer.kernel, layer.stride, layer.pad)
        out_x = conv_output_size(in_x, layer.kernel, layer.stride, layer.pad)
        return (depth, out_y, out_x)
    if layer.kind == LayerKind.FC:
        return (layer.num_filters, 1, 1)
    return sources[0]  # relu, lrn, softmax, dropout: shape preserving


@dataclass
class Network:
    """An ordered DNN description with its layer graph and shapes.

    Parameters
    ----------
    name:
        Network name as used in the paper's Table I (e.g. ``"alex"``).
    input_shape:
        Shape of the input image as ``(depth, height, width)``.
    layers:
        Layer specs in topological (execution) order.

    A malformed graph — duplicate names, an ``input_from`` naming no
    earlier layer, several inputs on a layer other than a concat, or
    shapes that do not fit — raises :class:`ValueError` here.
    """

    name: str
    input_shape: Shape3D
    layers: list[LayerSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [layer.name for layer in self.layers]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate layer names: {dupes}")
        self._index = {name: idx for idx, name in enumerate(names)}
        self._inputs: dict[str, tuple[str, ...]] = {}
        self._shapes: dict[str, Shape3D] = {}
        last_reader: dict[str, str] = {}
        for idx, layer in enumerate(self.layers):
            inputs = self._derive_inputs(idx, layer)
            self._inputs[layer.name] = inputs
            sources = [self._shapes[src] for src in inputs] or [self.input_shape]
            self._shapes[layer.name] = layer_output_shape(layer, sources)
            for src in inputs:
                last_reader[src] = layer.name
        self._last_reads: dict[str, tuple[str, ...]] = {name: () for name in names}
        for src, reader in last_reader.items():
            self._last_reads[reader] += (src,)

    def _derive_inputs(self, index: int, layer: LayerSpec) -> tuple[str, ...]:
        if layer.input_from is None:
            return (self.layers[index - 1].name,) if index else ()
        if layer.kind != LayerKind.CONCAT and len(layer.input_from) != 1:
            raise ValueError(
                f"{layer.kind} layer {layer.name!r} must read exactly one "
                f"input, not {layer.input_from}"
            )
        for src in layer.input_from:
            if src not in self._shapes:
                raise ValueError(
                    f"layer {layer.name!r} reads {src!r}, which is not an "
                    f"earlier layer"
                )
        return tuple(layer.input_from)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def output_shape(self, layer_name: str) -> Shape3D:
        """Activation shape produced by ``layer_name``."""
        return self._shapes[layer_name]

    def inputs(self, layer_name: str) -> tuple[str, ...]:
        """Names of the layers whose outputs ``layer_name`` reads.

        Empty for the layer that reads the image; every producer, in
        order, for a concat; exactly one name otherwise.
        """
        return self._inputs[layer_name]

    def last_reads(self, layer_name: str) -> tuple[str, ...]:
        """Outputs no layer after ``layer_name`` reads: once it has run, a
        forward pass that keeps no outputs can drop them."""
        return self._last_reads[layer_name]

    def input_shape_of(self, layer_name: str) -> Shape3D:
        """Activation shape consumed by ``layer_name`` (a non-concat layer)."""
        if self.layers[self._index[layer_name]].kind == LayerKind.CONCAT:
            raise ValueError("concat layers have multiple input shapes")
        inputs = self._inputs[layer_name]
        return self._shapes[inputs[0]] if inputs else self.input_shape

    def index_of(self, layer_name: str) -> int:
        return self._index[layer_name]

    @property
    def conv_layers(self) -> list[LayerSpec]:
        """All convolutional layers, in execution order."""
        return [layer for layer in self.layers if layer.is_conv]

    @property
    def num_conv_layers(self) -> int:
        """Conv layer count — the quantity Table I reports per network."""
        return len(self.conv_layers)

    def conv_geometry(self, layer: LayerSpec) -> dict[str, int]:
        """Geometry bundle for a conv layer used by the timing models."""
        depth, in_y, in_x = self.input_shape_of(layer.name)
        out_n, out_y, out_x = self.output_shape(layer.name)
        return {
            "in_depth": depth,
            "in_y": in_y,
            "in_x": in_x,
            "num_filters": out_n,
            "kernel": layer.kernel,
            "stride": layer.stride,
            "pad": layer.pad,
            "groups": layer.groups,
            "out_y": out_y,
            "out_x": out_x,
        }

    def first_conv_layers(self) -> set[str]:
        """Conv layers consuming the raw input image (not accelerated by CNV)."""
        return {
            layer.name for layer in self.conv_layers if not self._inputs[layer.name]
        }

    def macs_per_layer(self) -> dict[str, int]:
        """Multiply-accumulate counts per layer (conv and FC)."""
        macs: dict[str, int] = {}
        for layer in self.layers:
            if layer.kind == LayerKind.CONV:
                geom = self.conv_geometry(layer)
                per_output = (
                    layer.kernel * layer.kernel * geom["in_depth"] // layer.groups
                )
                macs[layer.name] = (
                    per_output * geom["out_y"] * geom["out_x"] * geom["num_filters"]
                )
            elif layer.kind == LayerKind.FC:
                in_shape = self.input_shape_of(layer.name)
                macs[layer.name] = (
                    in_shape[0] * in_shape[1] * in_shape[2] * layer.num_filters
                )
        return macs

    def describe(self) -> str:
        """Human-readable summary table of the network."""
        lines = [f"{self.name}: input {self.input_shape}"]
        for layer in self.layers:
            shape = self._shapes[layer.name]
            extra = ""
            if layer.kind == LayerKind.CONV:
                extra = (
                    f" {layer.num_filters}x{layer.kernel}x{layer.kernel}"
                    f" s{layer.stride} p{layer.pad}"
                    + (f" g{layer.groups}" if layer.groups > 1 else "")
                )
            lines.append(f"  {layer.name:28s} {layer.kind:8s}{extra:24s} -> {shape}")
        return "\n".join(lines)
