"""Network description and shape-inference tests (repro.nn.network)."""

import pytest

from repro.nn.network import LayerKind, LayerSpec, Network


def simple_net() -> Network:
    return Network(
        name="t",
        input_shape=(3, 8, 8),
        layers=[
            LayerSpec(name="conv1", kind="conv", num_filters=4, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="pool1", kind="maxpool", kernel=2, stride=2),
            LayerSpec(name="conv2", kind="conv", num_filters=8, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="fc", kind="fc", num_filters=10),
            LayerSpec(name="prob", kind="softmax"),
        ],
    )


class TestLayerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(name="x", kind="mystery")

    def test_conv_requires_geometry(self):
        with pytest.raises(ValueError):
            LayerSpec(name="x", kind="conv")

    def test_conv_filters_divisible_by_groups(self):
        with pytest.raises(ValueError):
            LayerSpec(name="x", kind="conv", num_filters=5, kernel=3, groups=2)

    def test_concat_requires_inputs(self):
        with pytest.raises(ValueError):
            LayerSpec(name="x", kind="concat")


class TestShapes:
    def test_chain(self):
        net = simple_net()
        assert net.output_shape("conv1") == (4, 8, 8)
        assert net.output_shape("pool1") == (4, 4, 4)
        assert net.output_shape("conv2") == (8, 4, 4)
        assert net.output_shape("fc") == (10, 1, 1)

    def test_input_shape_of(self):
        net = simple_net()
        assert net.input_shape_of("conv1") == (3, 8, 8)
        assert net.input_shape_of("conv2") == (4, 4, 4)

    def test_concat_shapes(self):
        net = Network(
            name="t",
            input_shape=(4, 6, 6),
            layers=[
                LayerSpec(name="a", kind="conv", num_filters=2, kernel=1, input_from=None),
                LayerSpec(name="b", kind="conv", num_filters=3, kernel=1, input_from=("a",)),
                LayerSpec(name="c", kind="conv", num_filters=5, kernel=1, input_from=("a",)),
                LayerSpec(name="cat", kind="concat", input_from=("b", "c")),
            ],
        )
        assert net.output_shape("cat") == (8, 6, 6)

    def test_concat_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Network(
                name="t",
                input_shape=(4, 6, 6),
                layers=[
                    LayerSpec(name="a", kind="conv", num_filters=2, kernel=1),
                    LayerSpec(name="b", kind="conv", num_filters=2, kernel=3, input_from=("a",)),
                    LayerSpec(name="cat", kind="concat", input_from=("a", "b")),
                ],
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network(
                name="t",
                input_shape=(1, 4, 4),
                layers=[
                    LayerSpec(name="x", kind="relu"),
                    LayerSpec(name="x", kind="relu"),
                ],
            )

    def test_group_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Network(
                name="t",
                input_shape=(3, 4, 4),
                layers=[
                    LayerSpec(name="c", kind="conv", num_filters=4, kernel=1, groups=2)
                ],
            )

    @pytest.mark.parametrize("source", ["conv9", "b", "a"])
    def test_input_that_is_no_earlier_layer_rejected(self, source):
        """An unknown, later or own name fails where the graph is derived,
        naming the layer and the bad input."""
        with pytest.raises(ValueError, match=rf"'a' reads '{source}'"):
            Network(
                name="t",
                input_shape=(3, 4, 4),
                layers=[
                    LayerSpec(name="x", kind="relu"),
                    LayerSpec(name="a", kind="relu", input_from=(source,)),
                    LayerSpec(name="b", kind="relu"),
                ],
            )

    def test_several_inputs_only_on_a_concat(self):
        with pytest.raises(ValueError, match=r"'b' must read exactly one input"):
            Network(
                name="t",
                input_shape=(3, 4, 4),
                layers=[
                    LayerSpec(name="a", kind="relu"),
                    LayerSpec(name="x", kind="relu"),
                    LayerSpec(name="b", kind="relu", input_from=("a", "x")),
                ],
            )


class TestQueries:
    def test_conv_layers_in_order(self):
        net = simple_net()
        assert [l.name for l in net.conv_layers] == ["conv1", "conv2"]
        assert net.num_conv_layers == 2

    def test_index_of_missing(self):
        with pytest.raises(KeyError):
            simple_net().index_of("nope")

    def test_conv_geometry(self):
        geom = simple_net().conv_geometry(simple_net().conv_layers[1])
        assert geom == {
            "in_depth": 4,
            "in_y": 4,
            "in_x": 4,
            "num_filters": 8,
            "kernel": 3,
            "stride": 1,
            "pad": 1,
            "groups": 1,
            "out_y": 4,
            "out_x": 4,
        }

    def test_macs(self):
        macs = simple_net().macs_per_layer()
        assert macs["conv1"] == 3 * 3 * 3 * 8 * 8 * 4
        assert macs["fc"] == 8 * 4 * 4 * 10

    def test_grouped_macs_divide_by_groups(self):
        net = Network(
            name="g",
            input_shape=(8, 4, 4),
            layers=[
                LayerSpec(
                    name="c", kind="conv", num_filters=4, kernel=1, groups=2
                )
            ],
        )
        # Each filter sees depth 4, not 8.
        assert net.macs_per_layer()["c"] == 4 * 4 * 4 * 4

    def test_inputs_and_first(self):
        net = simple_net()
        assert net.inputs("conv1") == ()
        assert net.inputs("conv2") == ("pool1",)
        assert net.first_conv_layers() == {"conv1"}

    def test_inputs_and_last_reads_follow_branches(self):
        net = Network(
            name="t",
            input_shape=(4, 6, 6),
            layers=[
                LayerSpec(name="a", kind="conv", num_filters=2, kernel=1),
                LayerSpec(name="b", kind="conv", num_filters=3, kernel=1),
                LayerSpec(name="c", kind="conv", num_filters=5, kernel=1, input_from=("a",)),
                LayerSpec(name="cat", kind="concat", input_from=("b", "c")),
                LayerSpec(name="prob", kind="softmax"),
            ],
        )
        assert [net.inputs(l.name) for l in net.layers] == [
            (), ("a",), ("a",), ("b", "c"), ("cat",),
        ]
        assert [net.last_reads(l.name) for l in net.layers] == [
            (), (), ("a",), ("b", "c"), ("cat",),
        ]
        assert net.index_of("cat") == 3

    def test_describe_mentions_all_layers(self):
        text = simple_net().describe()
        for layer in simple_net().layers:
            assert layer.name in text
