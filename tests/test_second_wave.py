"""Second-wave coverage: internals, renderers, and cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.workload import ConvWork
from repro.core.encoder import Encoder
from repro.core.validate import _crop_layer
from repro.core.zfnaf import encode, encode_brick
from repro.experiments.charts import render
from repro.experiments.report import ExperimentResult
from repro.power.energy import energy_report
from repro.hw.counters import ActivityCounters

from conftest import make_conv_work


class TestChartRenderers:
    def _result(self, experiment, rows):
        return ExperimentResult(experiment=experiment, title="t", rows=rows)

    def test_fig10_stacked(self):
        rows = [
            {
                "network": "alex", "arch": "baseline",
                "other": 0.1, "conv1": 0.2, "nonzero": 0.3, "zero": 0.4,
                "stall": 0.0, "total": 1.0,
            }
        ]
        text = render(self._result("fig10", rows))
        assert "=stall" in text

    def test_fig11_deltas(self):
        rows = [
            {"component": "nm", "baseline_mm2": 10.0, "cnv_mm2": 13.4},
            {"component": "total", "baseline_mm2": 70.0, "cnv_mm2": 73.1},
        ]
        text = render(self._result("fig11", rows))
        assert "+34" in text

    def test_fig12_stacked(self):
        rows = [
            {
                "component": c,
                "baseline_static": 0.1, "baseline_dynamic": 0.1,
                "cnv_static": 0.08, "cnv_dynamic": 0.09, "delta": -0.05,
            }
            for c in ("nm", "sb", "logic", "sram", "total")
        ]
        text = render(self._result("fig12", rows))
        assert "baseline" in text and "cnv" in text

    def test_fig13_double_chart(self):
        rows = [{"network": "alex", "EDP_gain": 1.5, "ED2P_gain": 2.2}]
        text = render(self._result("fig13", rows))
        assert "EDP improvement" in text and "ED2P improvement" in text

    def test_fig1_percent(self):
        rows = [{"network": "alex", "zero_fraction": 0.44}]
        assert "44%" in render(self._result("fig1", rows))


class TestEncoderBrickSizes:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([2, 4, 8, 16, 32]), st.integers(0, 2**32 - 1))
    def test_serial_equals_vectorized_any_brick_size(self, brick, seed):
        rng = np.random.default_rng(seed)
        neurons = rng.normal(size=brick)
        neurons[rng.uniform(size=brick) < 0.5] = 0.0
        result = Encoder(brick_size=brick).encode_brick(neurons)
        values, offsets = encode_brick(neurons)
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.offsets, offsets)
        assert result.cycles == brick


class TestThresholdGroupsNonGoogle:
    def test_per_layer_for_flat_networks(self, tmp_path):
        from repro.experiments.config import PaperConfig
        from repro.experiments.context import ExperimentContext
        from repro.experiments.thresholds import threshold_groups

        config = PaperConfig(
            scale="tiny", networks=["alex"], cache_dir=tmp_path, num_images=1
        )
        ctx = ExperimentContext(config)
        groups = threshold_groups(ctx, "alex")
        assert groups == {name: name for name in groups}


class TestEnergyByComponent:
    def test_component_totals_consistent(self):
        counters = ActivityCounters()
        counters.add("mults", 1e8)
        counters.add("nm_reads", 1e5)
        report = energy_report(counters, 1e-3, "cnvlutin")
        by = report.by_component()
        assert sum(by.values()) == pytest.approx(report.total_j)
        assert by["nm"] > 0 and by["logic"] > 0


class TestWorkloadValidation:
    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="activations"):
            ConvWork(
                name="bad",
                geometry={
                    "in_depth": 4, "in_y": 5, "in_x": 5, "num_filters": 2,
                    "kernel": 2, "stride": 1, "pad": 0, "groups": 1,
                    "out_y": 4, "out_x": 4,
                },
                activations=rng.normal(size=(4, 6, 6)),
            )


class TestValidateCrop:
    def test_crop_recomputes_output_dims(self, rng):
        geometry = {
            "in_depth": 4, "in_y": 20, "in_x": 20, "num_filters": 2,
            "kernel": 3, "stride": 2, "pad": 1, "groups": 1,
            "out_y": 10, "out_x": 10,
        }
        act = rng.normal(size=(4, 20, 20))
        cropped, new_geom = _crop_layer(act, geometry, max_spatial=7)
        assert cropped.shape == (4, 7, 7)
        assert new_geom["out_y"] == (7 - 3 + 2) // 2 + 1

    def test_crop_never_below_kernel(self, rng):
        geometry = {
            "in_depth": 2, "in_y": 9, "in_x": 9, "num_filters": 1,
            "kernel": 5, "stride": 1, "pad": 0, "groups": 1,
            "out_y": 5, "out_x": 5,
        }
        act = rng.normal(size=(2, 9, 9))
        cropped, new_geom = _crop_layer(act, geometry, max_spatial=3)
        assert new_geom["in_y"] == 5  # clamped up to the kernel


class TestHardwareEncoderVsEngineThresholds:
    def test_hardware_pruning_equals_engine_pruning(self, rng):
        """The encoder's threshold comparison and the engine's
        threshold_relu produce identical zero patterns."""
        from repro.core.accelerator import encode_layer_output
        from repro.core.zfnaf import decode
        from repro.hw.config import small_config
        from repro.nn.layers import threshold_relu

        pre = rng.normal(size=(8, 5, 5))
        threshold = 0.3
        hw = decode(encode_layer_output(pre, small_config(), threshold=threshold))
        engine = threshold_relu(pre, threshold)
        assert np.array_equal(hw, engine)
