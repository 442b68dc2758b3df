"""Tests of the six Table I network definitions (repro.nn.models)."""

from dataclasses import replace

import pytest

from repro.nn.models import TABLE1_SOURCES, build_network, network_names

#: Conv-layer counts from the paper's Table I.
TABLE1 = {"alex": 5, "google": 59, "nin": 12, "vgg19": 16, "cnnM": 5, "cnnS": 5}

#: Every pooling layer ``build_network`` clamps, per (224-net, alex) input
#: size, as (kernel, stride, pad) at full size -> at that size.
CLAMPED_POOLS = {
    (64, 67): {
        ("google", "loss1/ave_pool"): ((5, 3, 0), (4, 3, 0)),
        ("google", "loss2/ave_pool"): ((5, 3, 0), (4, 3, 0)),
        ("google", "pool5/7x7_s1"): ((7, 1, 0), (2, 1, 0)),
        ("nin", "pool3"): ((3, 2, 0), (2, 2, 0)),
        ("nin", "pool4"): ((5, 1, 0), (1, 1, 0)),
        ("cnnM", "pool5"): ((3, 2, 0), (2, 2, 0)),
        ("cnnS", "pool5"): ((3, 3, 0), (2, 2, 0)),
    },
    (112, 115): {
        ("google", "pool5/7x7_s1"): ((7, 1, 0), (4, 1, 0)),
        ("nin", "pool4"): ((5, 1, 0), (2, 1, 0)),
    },
    (224, 227): {},
}


class TestTable1:
    @pytest.mark.parametrize("name", network_names())
    def test_conv_layer_counts(self, name):
        assert build_network(name).num_conv_layers == TABLE1[name]

    def test_all_networks_have_sources(self):
        for name in network_names():
            assert name in TABLE1_SOURCES

    def test_unknown_network(self):
        with pytest.raises(KeyError):
            build_network("resnet")


class TestAlexGeometry:
    def test_published_feature_map_sizes(self):
        net = build_network("alex")
        assert net.output_shape("conv1") == (96, 55, 55)
        assert net.output_shape("conv2") == (256, 27, 27)
        assert net.output_shape("conv5") == (256, 13, 13)
        assert net.output_shape("pool5") == (256, 6, 6)
        assert net.output_shape("fc8") == (1000, 1, 1)

    def test_grouped_layers(self):
        net = build_network("alex")
        groups = {l.name: l.groups for l in net.conv_layers}
        assert groups == {"conv1": 1, "conv2": 2, "conv3": 1, "conv4": 2, "conv5": 2}


class TestGoogleGeometry:
    def test_inception_output_depths(self):
        net = build_network("google")
        assert net.output_shape("inception_3a/output")[0] == 256
        assert net.output_shape("inception_4e/output")[0] == 832
        assert net.output_shape("inception_5b/output")[0] == 1024

    def test_spatial_pyramid(self):
        net = build_network("google")
        assert net.output_shape("pool2/3x3_s2")[1] == 28
        assert net.output_shape("pool3/3x3_s2")[1] == 14
        assert net.output_shape("pool4/3x3_s2")[1] == 7
        assert net.output_shape("pool5/7x7_s1")[1:] == (1, 1)

    def test_aux_classifier_convs_counted(self):
        net = build_network("google")
        names = {l.name for l in net.conv_layers}
        assert "loss1/conv" in names and "loss2/conv" in names


class TestVgg19Geometry:
    def test_blocks(self):
        net = build_network("vgg19")
        assert net.output_shape("conv1_2") == (64, 224, 224)
        assert net.output_shape("conv5_4") == (512, 14, 14)
        assert net.output_shape("pool5") == (512, 7, 7)

    def test_all_convs_are_3x3_same_pad(self):
        for layer in build_network("vgg19").conv_layers:
            assert layer.kernel == 3 and layer.pad == 1 and layer.stride == 1


class TestNinGeometry:
    def test_mlpconv_structure(self):
        net = build_network("nin")
        kernels = [l.kernel for l in net.conv_layers]
        assert kernels == [11, 1, 1, 5, 1, 1, 3, 1, 1, 3, 1, 1]

    def test_global_average_pool(self):
        net = build_network("nin")
        assert net.output_shape("pool4") == (1000, 1, 1)


class TestScaledBuilds:
    @pytest.mark.parametrize("name", network_names())
    @pytest.mark.parametrize("size", [64, 112])
    def test_reduced_resolution_builds(self, name, size):
        net = build_network(name, input_size=size)
        assert net.num_conv_layers == TABLE1[name]
        assert net.input_shape[1] == size

    def test_scaling_preserves_filter_counts(self):
        full = build_network("vgg19")
        small = build_network("vgg19", input_size=64)
        assert [l.num_filters for l in full.conv_layers] == [
            l.num_filters for l in small.conv_layers
        ]

    @pytest.mark.parametrize(
        "sizes", sorted(CLAMPED_POOLS), ids=lambda sizes: "%d-%d" % sizes
    )
    def test_pool_clamps_pinned(self, sizes):
        """The clamped pools' geometry, and no other layer's, differs
        from the full-size network's."""
        clamped = {}
        for name in network_names():
            size = sizes[1] if name == "alex" else sizes[0]
            full = build_network(name)
            scaled = build_network(name, input_size=size)
            assert [l.name for l in scaled.layers] == [l.name for l in full.layers]
            for before, after in zip(full.layers, scaled.layers):
                if before == after:
                    continue
                geometry = (after.kernel, after.stride, after.pad)
                assert replace(
                    before, kernel=geometry[0], stride=geometry[1], pad=geometry[2]
                ) == after, after.name
                clamped[(name, after.name)] = (
                    (before.kernel, before.stride, before.pad), geometry
                )
        assert clamped == CLAMPED_POOLS[sizes]

    def test_default_size_unchanged(self):
        assert build_network("alex").input_shape == (3, 227, 227)
        assert build_network("alex", input_size=227).input_shape == (3, 227, 227)


class TestEncodedDepthAssumption:
    def test_google_has_unaligned_depths(self):
        """GoogLeNet's 5x5 convolutions read depth-24 inputs — not a
        multiple of the 16-neuron brick — so ZFNAf's final-brick zero
        padding is exercised by a real evaluated network."""
        net = build_network("google")
        depths = {
            net.input_shape_of(l.name)[0] // l.groups for l in net.conv_layers
        }
        assert 24 in depths
        assert any(d % 16 for d in depths)

    @pytest.mark.parametrize("name", network_names())
    def test_most_depths_brick_aligned(self, name):
        """The bulk of each network's conv input depths are 16-aligned
        (the regime the paper's vertical-slice assignment targets)."""
        net = build_network(name)
        first = net.first_conv_layers()
        aligned = 0
        total = 0
        for layer in net.conv_layers:
            if layer.name in first:
                continue
            total += 1
            depth = net.input_shape_of(layer.name)[0] // layer.groups
            aligned += depth % 16 == 0
        assert aligned / total > 0.5
