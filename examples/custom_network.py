#!/usr/bin/env python
"""Bring your own network: describe it, calibrate it, accelerate it.

Shows the library-adoption path for a network that is not one of the
paper's six: declare the topology with LayerSpec, initialize and calibrate
weights to a chosen zero-neuron level, and compare DaDianNao vs Cnvlutin
timing — including a custom accelerator geometry and the empty-brick
ablation knob.

Run:  python examples/custom_network.py
"""

import numpy as np

from repro.backends import get_backend
from repro.experiments.report import format_table
from repro.hw import PAPER_CONFIG
from repro.nn import (
    LayerSpec,
    Network,
    calibrate_network,
    init_weights,
    measure_zero_fractions,
    run_forward,
)
from repro.nn.datasets import natural_images


def build_my_net() -> Network:
    """A compact VGG-flavoured classifier for 64x64 RGB inputs."""
    return Network(
        name="mynet",
        input_shape=(3, 64, 64),
        layers=[
            LayerSpec(name="conv1", kind="conv", num_filters=32, kernel=5, stride=2, fused_relu=True),
            LayerSpec(name="pool1", kind="maxpool", kernel=2, stride=2),
            LayerSpec(name="conv2", kind="conv", num_filters=64, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="conv3", kind="conv", num_filters=64, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="pool2", kind="maxpool", kernel=2, stride=2),
            LayerSpec(name="conv4", kind="conv", num_filters=128, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="fc", kind="fc", num_filters=10, fused_relu=False),
            LayerSpec(name="prob", kind="softmax"),
        ],
    )


def main() -> None:
    net = build_my_net()
    print(net.describe())

    rng = np.random.default_rng(0)
    store = init_weights(net, rng)
    images = natural_images(net.input_shape, 3, seed=1)

    # Calibrate the ReLU operating points to 50% zero neurons.
    calibrate_network(net, store, images[0], mean_target=0.50)
    report = measure_zero_fractions(net, store, images)
    print(f"\ncalibrated zero-neuron fraction: {report.mac_weighted_mean:.1%} "
          "(target 50%)")

    fwd = run_forward(net, store, images[0])
    baseline, skipping = get_backend("baseline"), get_backend("cnv")
    rows = []
    for label, arch in [
        ("paper geometry", PAPER_CONFIG),
        ("half-size node (8 units)", PAPER_CONFIG.with_(num_units=8)),
        ("free empty-brick skip", PAPER_CONFIG.with_(empty_brick_cycles=0)),
    ]:
        base = baseline.network_timing(net, fwd.conv_inputs, arch).total_cycles
        cnv = skipping.network_timing(net, fwd.conv_inputs, arch).total_cycles
        rows.append({"configuration": label, "baseline": base, "cnv": cnv,
                     "speedup": base / cnv})
    print()
    print(format_table(rows))


if __name__ == "__main__":
    main()
