"""End-to-end tests: the pruning trade-off experiment and full-stack runs."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.baseline.accelerator import DaDianNaoNode
from repro.baseline.workload import ConvWork
from repro.core.accelerator import CnvNode, encode_layer_output
from repro.core.zfnaf import decode, encode
from repro.experiments.config import PaperConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.fig14_pruning import SmallCnnEvaluator
from repro.hw.config import small_config
from repro.nn.layers import conv2d, relu
from repro.nn.training import train_small_cnn


@pytest.fixture(scope="module")
def trained():
    return train_small_cnn(train_count=192, test_count=96, epochs=3)


class TestSmallCnnEvaluator:
    def test_unpruned_matches_training_accuracy_regime(self, trained):
        evaluator = SmallCnnEvaluator(trained, small_config(), accuracy_images=64)
        accuracy, speedup = evaluator({})
        assert accuracy > 0.5
        assert speedup > 1.0  # ReLU sparsity alone already helps

    def test_aggressive_pruning_hurts_accuracy(self, trained):
        evaluator = SmallCnnEvaluator(trained, small_config(), accuracy_images=64)
        clean_acc, clean_speedup = evaluator({})
        raw = {name: 256 for name in evaluator.prunable_layers}
        pruned_acc, pruned_speedup = evaluator(raw)
        assert pruned_speedup > clean_speedup
        assert pruned_acc < clean_acc

    def test_paper_shape_lossless_region_exists(self, trained):
        """Fig. 14: an initial region prunes without accuracy loss."""
        evaluator = SmallCnnEvaluator(trained, small_config(), accuracy_images=64)
        clean_acc, clean_speedup = evaluator({})
        raw = {name: 1 for name in evaluator.prunable_layers}
        tiny_acc, tiny_speedup = evaluator(raw)
        assert tiny_acc >= clean_acc - 0.05
        assert tiny_speedup >= clean_speedup - 1e-9


class TestHardwareLayerChaining:
    def test_two_layers_through_cnv_hardware(self, rng):
        """Layer 1's encoder output feeds layer 2's dispatcher — the full
        inter-layer path of Section IV-B4 — and the final outputs match the
        golden model exactly."""
        cfg = small_config()
        act = np.abs(rng.normal(size=(8, 6, 6)))
        act[act < 0.7] = 0.0
        w1 = rng.normal(size=(4, 8, 3, 3))
        w2 = rng.normal(size=(4, 4, 2, 2))

        geom1 = {
            "in_depth": 8, "in_y": 6, "in_x": 6, "num_filters": 4,
            "kernel": 3, "stride": 1, "pad": 0, "groups": 1, "out_y": 4, "out_x": 4,
        }
        work1 = ConvWork("l1", geom1, act)
        out1 = CnvNode(cfg).run_conv_layer(work1, w1)
        golden1 = conv2d(act, w1)
        assert np.allclose(out1.output, golden1)

        # Encode layer 1's output through the hardware encoder (with ReLU).
        encoded = encode_layer_output(out1.output, cfg)
        act2 = relu(golden1)
        assert np.allclose(decode(encoded), act2)

        geom2 = {
            "in_depth": 4, "in_y": 4, "in_x": 4, "num_filters": 4,
            "kernel": 2, "stride": 1, "pad": 0, "groups": 1, "out_y": 3, "out_x": 3,
        }
        work2 = ConvWork("l2", geom2, act2)
        out2 = CnvNode(cfg).run_conv_layer(work2, w2, input_zfnaf={0: encoded})
        assert np.allclose(out2.output, conv2d(act2, w2))

    def test_encoder_threshold_prunes_through_chain(self, rng):
        cfg = small_config()
        out = rng.normal(size=(4, 3, 3))
        encoded = encode_layer_output(out, cfg, threshold=0.5)
        dense = decode(encoded)
        live = dense[dense != 0]
        assert live.size == 0 or np.abs(live).min() >= 0.5


class TestStructuralVsAnalyticOnRealNetwork:
    def test_trained_cnn_layer_on_both_simulators(self, trained, rng):
        """A real (trained) conv layer's activations through the structural
        CNV node match the golden conv and the analytic cycle count."""
        from repro.core.timing import cnv_conv_timing
        from repro.nn.inference import run_forward
        from repro.nn.datasets import ShapeDataset

        images, _ = ShapeDataset().batch(1, seed=42)
        fwd = run_forward(trained.network, trained.store, images[0])
        act = fwd.conv_inputs["conv2"]  # 8 x 12 x 12, post-ReLU sparse
        cfg = small_config()
        geom = trained.network.conv_geometry(
            trained.network.conv_layers[1]
        )
        work = ConvWork("conv2", geom, act)
        weights = trained.store.weights["conv2"]
        result = CnvNode(cfg).run_conv_layer(work, weights)
        golden = conv2d(act, weights, stride=1, pad=1)
        assert np.allclose(result.output, golden)
        assert result.cycles == cnv_conv_timing(work, cfg).cycles

    def test_network_timing_on_trained_cnn(self, trained):
        from repro.nn.datasets import ShapeDataset
        from repro.nn.inference import run_forward

        images, _ = ShapeDataset().batch(1, seed=43)
        fwd = run_forward(trained.network, trained.store, images[0])
        net, cfg = trained.network, small_config()
        base = get_backend("baseline").network_timing(net, fwd.conv_inputs, cfg)
        cnv = get_backend("cnv").network_timing(net, fwd.conv_inputs, cfg)
        assert base.total_cycles > cnv.total_cycles


class TestQuantizedEquivalence:
    def test_simulators_agree_on_quantized_grid_values(self, rng):
        """With activations and weights on the fixed-point grid, both
        simulators produce identical results (no float divergence)."""
        from repro.nn.tensor import DEFAULT_FORMAT, dequantize, quantize

        act = dequantize(quantize(np.abs(rng.normal(size=(4, 5, 5)))))
        act[act < 0.5] = 0.0
        weights = dequantize(quantize(rng.normal(size=(2, 4, 2, 2))))
        geom = {
            "in_depth": 4, "in_y": 5, "in_x": 5, "num_filters": 2,
            "kernel": 2, "stride": 1, "pad": 0, "groups": 1, "out_y": 4, "out_x": 4,
        }
        work = ConvWork("q", geom, act)
        cfg = small_config()
        base = DaDianNaoNode(cfg).run_conv_layer(work, weights)
        cnv = CnvNode(cfg).run_conv_layer(work, weights)
        assert np.allclose(base.output, cnv.output, atol=1e-12)
