"""The six networks of Table I, with their published layer geometries.

=======  ===========  =======================================
network  conv layers  source (paper, Table I)
=======  ===========  =======================================
alex     5            Caffe: bvlc_reference_caffenet
google   59           Caffe: bvlc_googlenet
nin      12           Model Zoo: NIN-imagenet
vgg19    16           Model Zoo: VGG 19-layer
cnnM     5            Model Zoo: VGG_CNN_M_2048
cnnS     5            Model Zoo: VGG_CNN_S
=======  ===========  =======================================

Geometries follow the published prototxts.  Pooling output sizes use floor
rounding; where Caffe's ceil-mode changes a size we add one pixel of padding
so that canonical feature-map sizes (56/28/14/7 for GoogLeNet etc.) are
preserved — the timing and sparsity behaviour CNV depends on is unaffected.

GoogLeNet's 59 convolutional layers are the 57 layers of the main trunk
(3 stem + 9 inception modules x 6) plus the two 1x1 convolutions in the
auxiliary classifiers.
"""

from __future__ import annotations

from dataclasses import replace

from repro.nn.network import LayerKind, LayerSpec, Network, Shape3D, layer_output_shape

__all__ = ["build_network", "network_names", "NETWORK_BUILDERS", "TABLE1_SOURCES"]

#: Source column of the paper's Table I.
TABLE1_SOURCES = {
    "alex": "Caffe: bvlc_reference_caffenet",
    "google": "Caffe: bvlc_googlenet",
    "nin": "Model Zoo: NIN-imagenet",
    "vgg19": "Model Zoo: VGG 19-layer",
    "cnnM": "Model Zoo: VGG_CNN_M_2048",
    "cnnS": "Model Zoo: VGG_CNN_S",
}


def _conv(name, filters, kernel, stride=1, pad=0, groups=1, input_from=None):
    return LayerSpec(
        name=name,
        kind="conv",
        num_filters=filters,
        kernel=kernel,
        stride=stride,
        pad=pad,
        groups=groups,
        input_from=(input_from,) if isinstance(input_from, str) else input_from,
        fused_relu=True,
    )


def _pool(name, kernel, stride, pad=0, kind="maxpool", input_from=None):
    return LayerSpec(
        name=name,
        kind=kind,
        kernel=kernel,
        stride=stride,
        pad=pad,
        input_from=(input_from,) if isinstance(input_from, str) else input_from,
    )


def _lrn(name):
    return LayerSpec(name=name, kind="lrn")


def _fc(name, width, fused_relu=True):
    return LayerSpec(name=name, kind="fc", num_filters=width, fused_relu=fused_relu)


def build_alex() -> Network:
    """bvlc_reference_caffenet (AlexNet), 5 conv layers, 227x227 input."""
    layers = [
        _conv("conv1", 96, 11, stride=4),
        _pool("pool1", 3, 2),
        _lrn("norm1"),
        _conv("conv2", 256, 5, pad=2, groups=2),
        _pool("pool2", 3, 2),
        _lrn("norm2"),
        _conv("conv3", 384, 3, pad=1),
        _conv("conv4", 384, 3, pad=1, groups=2),
        _conv("conv5", 256, 3, pad=1, groups=2),
        _pool("pool5", 3, 2),
        _fc("fc6", 4096),
        _fc("fc7", 4096),
        _fc("fc8", 1000, fused_relu=False),
        LayerSpec(name="prob", kind="softmax"),
    ]
    return Network(name="alex", input_shape=(3, 227, 227), layers=layers)


def build_nin() -> Network:
    """NIN-imagenet, 12 conv layers (4 mlpconv blocks), 224x224 input."""
    layers = [
        _conv("conv1", 96, 11, stride=4),
        _conv("cccp1", 96, 1),
        _conv("cccp2", 96, 1),
        _pool("pool0", 3, 2),
        _conv("conv2", 256, 5, pad=2),
        _conv("cccp3", 256, 1),
        _conv("cccp4", 256, 1),
        _pool("pool2", 3, 2),
        _conv("conv3", 384, 3, pad=1),
        _conv("cccp5", 384, 1),
        _conv("cccp6", 384, 1),
        _pool("pool3", 3, 2),
        _conv("conv4-1024", 1024, 3, pad=1),
        _conv("cccp7-1024", 1024, 1),
        _conv("cccp8-1024", 1000, 1),
        _pool("pool4", 5, 1, kind="avgpool"),
        LayerSpec(name="prob", kind="softmax"),
    ]
    return Network(name="nin", input_shape=(3, 224, 224), layers=layers)


def build_vgg19() -> Network:
    """VGG 19-layer, 16 conv layers, 224x224 input."""
    layers: list[LayerSpec] = []
    block_filters = [64, 128, 256, 512, 512]
    block_convs = [2, 2, 4, 4, 4]
    for b, (filters, convs) in enumerate(zip(block_filters, block_convs), start=1):
        for c in range(1, convs + 1):
            layers.append(_conv(f"conv{b}_{c}", filters, 3, pad=1))
        layers.append(_pool(f"pool{b}", 2, 2))
    layers += [
        _fc("fc6", 4096),
        _fc("fc7", 4096),
        _fc("fc8", 1000, fused_relu=False),
        LayerSpec(name="prob", kind="softmax"),
    ]
    return Network(name="vgg19", input_shape=(3, 224, 224), layers=layers)


def build_cnn_m() -> Network:
    """VGG_CNN_M_2048 (Chatfield et al.), 5 conv layers, 224x224 input."""
    layers = [
        _conv("conv1", 96, 7, stride=2),
        _lrn("norm1"),
        _pool("pool1", 3, 2),
        _conv("conv2", 256, 5, stride=2, pad=1),
        _lrn("norm2"),
        _pool("pool2", 3, 2),
        _conv("conv3", 512, 3, pad=1),
        _conv("conv4", 512, 3, pad=1),
        _conv("conv5", 512, 3, pad=1),
        _pool("pool5", 3, 2),
        _fc("fc6", 4096),
        _fc("fc7", 2048),
        _fc("fc8", 1000, fused_relu=False),
        LayerSpec(name="prob", kind="softmax"),
    ]
    return Network(name="cnnM", input_shape=(3, 224, 224), layers=layers)


def build_cnn_s() -> Network:
    """VGG_CNN_S (Chatfield et al.), 5 conv layers, 224x224 input."""
    layers = [
        _conv("conv1", 96, 7, stride=2),
        _lrn("norm1"),
        _pool("pool1", 3, 3),
        _conv("conv2", 256, 5),
        _pool("pool2", 2, 2),
        _conv("conv3", 512, 3, pad=1),
        _conv("conv4", 512, 3, pad=1),
        _conv("conv5", 512, 3, pad=1),
        _pool("pool5", 3, 3),
        _fc("fc6", 4096),
        _fc("fc7", 4096),
        _fc("fc8", 1000, fused_relu=False),
        LayerSpec(name="prob", kind="softmax"),
    ]
    return Network(name="cnnS", input_shape=(3, 224, 224), layers=layers)


#: (1x1, 3x3_reduce, 3x3, 5x5_reduce, 5x5, pool_proj) filter counts for the
#: nine bvlc_googlenet inception modules.
_INCEPTION = {
    "3a": (64, 96, 128, 16, 32, 32),
    "3b": (128, 128, 192, 32, 96, 64),
    "4a": (192, 96, 208, 16, 48, 64),
    "4b": (160, 112, 224, 24, 64, 64),
    "4c": (128, 128, 256, 24, 64, 64),
    "4d": (112, 144, 288, 32, 64, 64),
    "4e": (256, 160, 320, 32, 128, 128),
    "5a": (256, 160, 320, 32, 128, 128),
    "5b": (384, 192, 384, 48, 128, 128),
}


def _inception(layers: list[LayerSpec], module: str, source: str) -> str:
    """Append one inception module reading from ``source``; return its output."""
    n1, n3r, n3, n5r, n5, npp = _INCEPTION[module]
    pre = f"inception_{module}"
    layers += [
        _conv(f"{pre}/1x1", n1, 1, input_from=source),
        _conv(f"{pre}/3x3_reduce", n3r, 1, input_from=source),
        _conv(f"{pre}/3x3", n3, 3, pad=1, input_from=f"{pre}/3x3_reduce"),
        _conv(f"{pre}/5x5_reduce", n5r, 1, input_from=source),
        _conv(f"{pre}/5x5", n5, 5, pad=2, input_from=f"{pre}/5x5_reduce"),
        _pool(f"{pre}/pool", 3, 1, pad=1, input_from=source),
        _conv(f"{pre}/pool_proj", npp, 1, input_from=f"{pre}/pool"),
        LayerSpec(
            name=f"{pre}/output",
            kind="concat",
            input_from=(
                f"{pre}/1x1",
                f"{pre}/3x3",
                f"{pre}/5x5",
                f"{pre}/pool_proj",
            ),
        ),
    ]
    return f"{pre}/output"


def build_google() -> Network:
    """bvlc_googlenet, 59 conv layers (57 trunk + 2 auxiliary), 224x224 input.

    The two auxiliary classifier branches hang off inception_4a and
    inception_4d; the main trunk continues from the inception outputs (the
    branches are dead ends used only for training-time loss, but their conv
    layers count toward Table I's 59 and consume cycles at inference when
    enabled, so they are modelled).
    """
    layers: list[LayerSpec] = [
        _conv("conv1/7x7_s2", 64, 7, stride=2, pad=3),
        _pool("pool1/3x3_s2", 3, 2, pad=1),
        _lrn("pool1/norm1"),
        _conv("conv2/3x3_reduce", 64, 1),
        _conv("conv2/3x3", 192, 3, pad=1),
        _lrn("conv2/norm2"),
        _pool("pool2/3x3_s2", 3, 2, pad=1),
    ]
    out = _inception(layers, "3a", "pool2/3x3_s2")
    out = _inception(layers, "3b", out)
    layers.append(_pool("pool3/3x3_s2", 3, 2, pad=1, input_from=out))
    out = _inception(layers, "4a", "pool3/3x3_s2")
    # Auxiliary classifier 1 (branch off 4a's output).
    layers += [
        _pool("loss1/ave_pool", 5, 3, kind="avgpool", input_from=out),
        _conv("loss1/conv", 128, 1, input_from="loss1/ave_pool"),
    ]
    out = _inception(layers, "4b", out)
    out = _inception(layers, "4c", out)
    out = _inception(layers, "4d", out)
    # Auxiliary classifier 2 (branch off 4d's output).
    layers += [
        _pool("loss2/ave_pool", 5, 3, kind="avgpool", input_from=out),
        _conv("loss2/conv", 128, 1, input_from="loss2/ave_pool"),
    ]
    out = _inception(layers, "4e", out)
    layers.append(_pool("pool4/3x3_s2", 3, 2, pad=1, input_from=out))
    out = _inception(layers, "5a", "pool4/3x3_s2")
    out = _inception(layers, "5b", out)
    layers += [
        _pool("pool5/7x7_s1", 7, 1, kind="avgpool", input_from=out),
        _fc("loss3/classifier", 1000, fused_relu=False),
        LayerSpec(name="prob", kind="softmax"),
    ]
    return Network(name="google", input_shape=(3, 224, 224), layers=layers)


NETWORK_BUILDERS = {
    "alex": build_alex,
    "google": build_google,
    "nin": build_nin,
    "vgg19": build_vgg19,
    "cnnM": build_cnn_m,
    "cnnS": build_cnn_s,
}


def network_names() -> list[str]:
    """Names of the six evaluated networks, in the paper's Table I order."""
    return ["alex", "google", "nin", "vgg19", "cnnM", "cnnS"]


def _adapt_pools(network: Network, input_shape: Shape3D) -> list[LayerSpec]:
    """Clamp pooling kernels that exceed the incoming feature-map size.

    At the published input resolutions this is a no-op.  At the reduced
    resolutions the experiment harness uses for tractable runs, the final
    global-average pools (and occasionally an inner pool) would overhang
    the shrunken feature maps; clamping the kernel (and stride) to the map
    size preserves each network's topology and conv-layer geometry ratios.
    Clamping leaves the layer graph alone, so ``network``'s (full-size)
    graph gives each layer's inputs at ``input_shape`` too.
    """
    shapes: dict[str, Shape3D] = {}
    layers: list[LayerSpec] = []
    for layer in network.layers:
        sources = [shapes[src] for src in network.inputs(layer.name)] or [input_shape]
        if layer.kind in (LayerKind.MAXPOOL, LayerKind.AVGPOOL):
            spatial = min(sources[0][1:])
            if layer.kernel - 2 * layer.pad > spatial:
                layer = replace(
                    layer, kernel=spatial, stride=min(layer.stride, spatial), pad=0
                )
        shapes[layer.name] = layer_output_shape(layer, sources)
        layers.append(layer)
    return layers


def build_network(name: str, input_size: int | None = None) -> Network:
    """Build one of the six Table I networks by name.

    ``input_size`` overrides the published input resolution (227 for alex,
    224 otherwise); pooling kernels that no longer fit the shrunken maps
    are clamped (see :func:`_adapt_pools`).  Conv-layer counts, filter
    counts and kernels — everything Table I reports — are unchanged.
    """
    try:
        builder = NETWORK_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown network {name!r}; choose from {sorted(NETWORK_BUILDERS)}"
        ) from None
    network = builder()
    if input_size is not None and input_size != network.input_shape[1]:
        input_shape = (network.input_shape[0], input_size, input_size)
        layers = _adapt_pools(network, input_shape)
        network = Network(name=network.name, input_shape=input_shape, layers=layers)
    return network
