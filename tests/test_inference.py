"""Inference-engine tests (repro.nn.inference)."""

import numpy as np
import pytest

from repro.experiments.config import PaperConfig
from repro.nn import inference
from repro.nn.datasets import natural_images
from repro.nn.inference import draw_weights, init_weights, run_forward
from repro.nn.models import build_network, network_names
from repro.nn.network import LayerKind, LayerSpec, Network
from repro.nn.tensor import DEFAULT_FORMAT


def tiny_net() -> Network:
    return Network(
        name="t",
        input_shape=(3, 8, 8),
        layers=[
            LayerSpec(name="conv1", kind="conv", num_filters=4, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="pool1", kind="maxpool", kernel=2, stride=2),
            LayerSpec(name="conv2", kind="conv", num_filters=6, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="fc", kind="fc", num_filters=5, fused_relu=False),
            LayerSpec(name="prob", kind="softmax"),
        ],
    )


class TestForward:
    def test_shapes_follow_network(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        image = rng.uniform(size=net.input_shape)
        result = run_forward(net, store, image)
        for layer in net.layers:
            assert result.outputs[layer.name].shape == net.output_shape(layer.name)

    def test_conv_inputs_recorded(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        result = run_forward(net, store, rng.uniform(size=net.input_shape))
        assert set(result.conv_inputs) == {"conv1", "conv2"}
        assert result.conv_inputs["conv2"].shape == (4, 4, 4)

    def test_logits_and_prob(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        result = run_forward(net, store, rng.uniform(size=net.input_shape))
        assert result.logits.shape == (5,)
        assert result.outputs["prob"].sum() == pytest.approx(1.0)

    def test_relu_applied_to_fused_layers(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        result = run_forward(net, store, rng.uniform(size=net.input_shape))
        assert np.all(result.outputs["conv1"] >= 0)

    def test_wrong_image_shape_rejected(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        with pytest.raises(ValueError):
            run_forward(net, store, np.zeros((3, 4, 4)))

    def test_keep_outputs_false_still_returns_conv_inputs(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        result = run_forward(
            net, store, rng.uniform(size=net.input_shape), keep_outputs=False
        )
        assert result.outputs == {}
        assert set(result.conv_inputs) == {"conv1", "conv2"}
        assert result.logits is not None


def assert_per_layer_draw(network: Network, store, seed: int) -> None:
    """The oracle: ``store`` holds, byte for byte, what a fresh generator
    of ``seed`` draws for ``network`` alone, one ``rng.normal(0.0,
    scale, shape)`` per conv/FC layer in layer order, cast to float32."""
    assert list(store.weights) == [
        layer.name for layer in network.layers
        if layer.kind in (LayerKind.CONV, LayerKind.FC)
    ]
    reference = np.random.default_rng(seed)
    for name, weights in store.weights.items():  # the draw order
        scale = np.sqrt(2.0 / np.prod(weights.shape[1:]))
        expected = reference.normal(0.0, scale, weights.shape).astype(np.float32)
        assert weights.dtype == np.float32, name
        assert weights.tobytes() == expected.tobytes(), name
        biases = store.biases[name]
        assert biases.dtype == np.float32 and not biases.any()


def tiny_network(name: str) -> Network:
    return build_network(
        name, input_size=PaperConfig(scale="tiny").input_size(name)
    )


class TestInitWeights:
    @pytest.mark.parametrize("name", network_names())
    def test_float32_draw_equals_the_cast_float64_draw(self, name, monkeypatch):
        """Weights drawn straight into float32 (through a bounded float64
        buffer) equal the whole float64 draw cast afterwards, byte for
        byte, on every paper network at tiny scale."""
        # An odd chunk: every network draws some layer over several
        # chunks and a ragged tail.
        monkeypatch.setattr(inference, "_DRAW_CHUNK", 65537)
        network = tiny_network(name)
        store = init_weights(network, np.random.default_rng(7))
        assert_per_layer_draw(network, store, seed=7)
        assert max(w.size for w in store.weights.values()) > inference._DRAW_CHUNK

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_one_pass_equals_a_fresh_draw_per_network(self, order, monkeypatch):
        """One pass over the stream for all six networks gives each the
        bytes of its own draw on a fresh generator, in either order, and
        leaves the generator where the longest network's draw does."""
        monkeypatch.setattr(inference, "_DRAW_CHUNK", 65537)
        names = network_names()
        networks = [
            tiny_network(name)
            for name in (names if order == "forward" else names[::-1])
        ]
        rng = np.random.default_rng(7)
        stores = draw_weights(networks, rng)
        sizes = [sum(w.size for w in s.weights.values()) for s in stores]
        for network, store in zip(networks, stores):
            assert_per_layer_draw(network, store, seed=7)
        del stores
        longest = np.random.default_rng(7)
        init_weights(networks[int(np.argmax(sizes))], longest)
        assert rng.bit_generator.state == longest.bit_generator.state
        assert len(set(sizes)) == len(sizes)  # every network ends elsewhere


class TestDtypePolicy:
    def test_float32_stays_float32_end_to_end(self, rng):
        """Regression: run_forward used to upcast every image to float64."""
        net = tiny_net()
        store = init_weights(net, rng)
        store.weights = {k: v.astype(np.float32) for k, v in store.weights.items()}
        store.biases = {k: v.astype(np.float32) for k, v in store.biases.items()}
        image = rng.uniform(size=net.input_shape).astype(np.float32)
        result = run_forward(net, store, image)
        assert result.outputs["conv1"].dtype == np.float32
        assert result.outputs["conv2"].dtype == np.float32
        assert result.conv_inputs["conv2"].dtype == np.float32
        assert result.logits.dtype == np.float32

    def test_float64_preserved(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        image = rng.uniform(size=net.input_shape)  # float64
        result = run_forward(net, store, image)
        assert result.outputs["conv1"].dtype == np.float64

    def test_integer_image_promoted_to_float64(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        image = rng.integers(0, 255, size=net.input_shape)
        result = run_forward(net, store, image)
        assert result.outputs["conv1"].dtype == np.float64


class TestThresholds:
    def test_threshold_increases_zeros_downstream(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        image = rng.uniform(size=net.input_shape)
        clean = run_forward(net, store, image)
        pruned = run_forward(net, store, image, thresholds={"conv1": 0.3})
        z_clean = (clean.conv_inputs["conv2"] == 0).mean()
        z_pruned = (pruned.conv_inputs["conv2"] == 0).mean()
        assert z_pruned >= z_clean

    def test_zero_threshold_is_noop(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        image = rng.uniform(size=net.input_shape)
        clean = run_forward(net, store, image)
        pruned = run_forward(net, store, image, thresholds={"conv1": 0.0})
        assert np.array_equal(clean.logits, pruned.logits)

    def test_threshold_only_affects_named_layer_onward(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        image = rng.uniform(size=net.input_shape)
        clean = run_forward(net, store, image)
        pruned = run_forward(net, store, image, thresholds={"conv2": 10.0})
        assert np.array_equal(
            clean.conv_inputs["conv2"], pruned.conv_inputs["conv2"]
        )
        assert not np.array_equal(clean.logits, pruned.logits)


class TestQuantizedForward:
    def test_quantized_close_to_float(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        image = rng.uniform(size=net.input_shape)
        float_result = run_forward(net, store, image)
        fixed_result = run_forward(net, store, image, fmt=DEFAULT_FORMAT)
        assert np.allclose(float_result.logits, fixed_result.logits, atol=0.5)

    def test_quantized_values_on_grid(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        image = rng.uniform(size=net.input_shape)
        result = run_forward(net, store, image, fmt=DEFAULT_FORMAT)
        out = result.outputs["conv1"]
        assert np.allclose(out * DEFAULT_FORMAT.scale, np.round(out * DEFAULT_FORMAT.scale))


class TestShiftFn:
    def test_shift_fn_overrides_store(self, rng):
        net = tiny_net()
        store = init_weights(net, rng)
        store.shifts["conv1"] = 100.0  # would saturate everything positive
        image = rng.uniform(size=net.input_shape)
        recorded = {}

        def shift_fn(name, pre):
            recorded[name] = pre.shape
            return 0.0

        result = run_forward(net, store, image, shift_fn=shift_fn)
        assert "conv1" in recorded and "fc" in recorded
        assert result.outputs["conv1"].max() < 100.0


class TestFullNetworks:
    @pytest.mark.parametrize("name", ["alex", "nin"])
    def test_tiny_scale_forward(self, rng, name):
        net = build_network(name, input_size=67 if name == "alex" else 64)
        store = init_weights(net, rng)
        image = natural_images(net.input_shape, 1, seed=3)[0]
        result = run_forward(net, store, image, keep_outputs=False)
        assert result.logits.shape == (1000,)
        assert len(result.conv_inputs) == net.num_conv_layers

    def test_google_branching_forward(self, rng):
        net = build_network("google", input_size=64)
        store = init_weights(net, rng)
        image = natural_images(net.input_shape, 1, seed=3)[0]
        result = run_forward(net, store, image, keep_outputs=True)
        # Aux branches computed, trunk unaffected by them.
        assert "loss1/conv" in result.conv_inputs
        assert result.outputs["prob"].sum() == pytest.approx(1.0)
