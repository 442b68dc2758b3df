"""Edge-case and invariant tests across the simulation stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.baseline.accelerator import DaDianNaoNode
from repro.baseline.timing import baseline_conv_timing
from repro.baseline.workload import ConvWork
from repro.core.accelerator import CnvNode
from repro.core.timing import cnv_conv_timing
from repro.hw.config import small_config
from repro.nn.layers import conv2d

from conftest import make_conv_work


def _run_both(work, weights, cfg):
    golden = conv2d(
        work.activations,
        weights,
        stride=work.geometry["stride"],
        pad=work.geometry["pad"],
        groups=work.geometry["groups"],
    )
    base = DaDianNaoNode(cfg).run_conv_layer(work, weights)
    cnv = CnvNode(cfg).run_conv_layer(work, weights)
    assert np.allclose(base.output, golden)
    assert np.allclose(cnv.output, golden)
    assert base.cycles == baseline_conv_timing(work, cfg).cycles
    assert cnv.cycles == cnv_conv_timing(work, cfg).cycles
    return base, cnv


class TestGeometryEdgeCases:
    def test_1x1_convolution(self, rng):
        """google's reduce layers: window = one brick column."""
        work, weights = make_conv_work(
            rng, in_depth=12, in_y=4, in_x=4, num_filters=3, kernel=1, pad=0
        )
        _run_both(work, weights, small_config())

    def test_kernel_equals_input(self, rng):
        """An FC-like convolution: a single window covering everything."""
        work, weights = make_conv_work(
            rng, in_depth=8, in_y=3, in_x=3, num_filters=4, kernel=3, pad=0
        )
        base, cnv = _run_both(work, weights, small_config())
        assert work.geometry["out_y"] == 1

    def test_stride_larger_than_kernel(self, rng):
        """Non-overlapping windows skip input entirely between them."""
        work, weights = make_conv_work(
            rng, in_depth=4, in_y=7, in_x=7, num_filters=2, kernel=2, stride=3, pad=0
        )
        _run_both(work, weights, small_config())

    def test_single_filter(self, rng):
        work, weights = make_conv_work(
            rng, in_depth=8, in_y=5, in_x=5, num_filters=1, kernel=3, pad=1
        )
        _run_both(work, weights, small_config())

    def test_fully_dense_and_fully_sparse(self, rng):
        for zero_fraction in (0.0, 0.95):
            work, weights = make_conv_work(rng, zero_fraction=zero_fraction)
            _run_both(work, weights, small_config())

    def test_depth_one(self, rng):
        work, weights = make_conv_work(
            rng, in_depth=1, in_y=5, in_x=5, num_filters=2, kernel=2, pad=0,
            zero_fraction=0.3,
        )
        _run_both(work, weights, small_config())


class TestThresholdMonotonicity:
    @settings(max_examples=8, deadline=None)
    @given(st.floats(0.01, 0.3), st.integers(0, 2**32 - 1))
    def test_raising_thresholds_never_raises_cnv_cycles(self, threshold, seed):
        """Through the full engine: more pruning -> never more cycles."""
        from repro.nn.datasets import natural_images
        from repro.nn.inference import init_weights, run_forward
        from repro.nn.models import build_network

        rng = np.random.default_rng(seed)
        net = build_network("alex", input_size=67)
        store = init_weights(net, rng)
        image = natural_images(net.input_shape, 1, seed=seed % 1000)[0]
        cfg = small_config()
        low = run_forward(net, store, image, thresholds={"conv2": threshold})
        high = run_forward(net, store, image, thresholds={"conv2": threshold * 2})
        cnv = get_backend("cnv")
        cycles_low = cnv.network_timing(net, low.conv_inputs, cfg).total_cycles
        cycles_high = cnv.network_timing(net, high.conv_inputs, cfg).total_cycles
        assert cycles_high <= cycles_low


class TestCalibrationOnBranchingTopology:
    def test_google_calibrates(self):
        from repro.nn.calibration import calibrate_network, measure_zero_fractions
        from repro.nn.datasets import natural_images
        from repro.nn.inference import init_weights
        from repro.nn.models import build_network

        net = build_network("google", input_size=64)
        store = init_weights(net, np.random.default_rng(11))
        images = natural_images(net.input_shape, 2, seed=12)
        calibrate_network(net, store, images[0])
        report = measure_zero_fractions(net, store, images)
        assert 0.3 < report.mac_weighted_mean < 0.65


class TestFig14Smoke:
    def test_runs_without_smallcnn(self, tmp_path):
        from repro.experiments import fig14_pruning
        from repro.experiments.config import PaperConfig
        from repro.experiments.context import ExperimentContext

        config = PaperConfig(
            scale="tiny", networks=["alex"], cache_dir=tmp_path, num_images=1
        )
        ctx = ExperimentContext(config)
        result = fig14_pruning.run(ctx, deltas=(0.1, 0.3), include_smallcnn=False)
        assert {r["network"] for r in result.rows} == {"alex"}
        speeds = [r["speedup"] for r in result.rows]
        assert speeds == sorted(speeds)
