"""Analytic baseline timing tests (repro.baseline.timing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.baseline.timing import baseline_conv_timing
from repro.baseline.workload import ConvWork, ceil_div, window_sums
from repro.hw.config import PAPER_CONFIG, small_config
from repro.nn.activations import sparse_activations

from conftest import make_conv_work


class TestWindowSums:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(3, 10),
        st.integers(3, 10),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_sums(self, height, width, kernel, stride, seed):
        if height < kernel or width < kernel:
            return
        rng = np.random.default_rng(seed)
        plane = rng.normal(size=(height, width))
        out_y = (height - kernel) // stride + 1
        out_x = (width - kernel) // stride + 1
        fast = window_sums(plane, kernel, kernel, stride, out_y, out_x)
        for oy in range(out_y):
            for ox in range(out_x):
                direct = plane[
                    oy * stride : oy * stride + kernel,
                    ox * stride : ox * stride + kernel,
                ].sum()
                assert fast[oy, ox] == pytest.approx(direct)


class TestBaselineCycles:
    def test_cycles_are_value_independent(self, rng):
        """The baseline cannot skip zeros: cycles depend on geometry only."""
        work_dense, _ = make_conv_work(rng, zero_fraction=0.0)
        work_sparse, _ = make_conv_work(rng, zero_fraction=0.8)
        cfg = small_config()
        assert (
            baseline_conv_timing(work_dense, cfg).cycles
            == baseline_conv_timing(work_sparse, cfg).cycles
        )

    def test_closed_form(self, rng):
        """cycles = windows * ceil(Fy*Fx*i / lanes) * passes."""
        work, _ = make_conv_work(
            rng, in_depth=8, in_y=6, in_x=6, num_filters=4, kernel=3, pad=1
        )
        cfg = small_config()  # 4 lanes, 4 filters/pass
        timing = baseline_conv_timing(work, cfg)
        assert timing.cycles == 36 * ceil_div(3 * 3 * 8, 4) * 1

    def test_row_packing_closed_form(self, rng):
        """fetch_packing='row': cycles = windows * Fy * ceil(Fx*i/lanes)."""
        work, _ = make_conv_work(
            rng, in_depth=6, in_y=6, in_x=6, num_filters=4, kernel=3, pad=1
        )
        cfg = small_config().with_(fetch_packing="row")
        timing = baseline_conv_timing(work, cfg)
        assert timing.cycles == 36 * 3 * ceil_div(3 * 6, 4)

    def test_filter_passes(self, rng):
        """More filters than the node handles -> extra passes."""
        work4, w4 = make_conv_work(rng, num_filters=4)
        work8, w8 = make_conv_work(rng, num_filters=8)
        cfg = small_config()  # filters_per_pass = 4
        assert (
            baseline_conv_timing(work8, cfg).cycles
            == 2 * baseline_conv_timing(work4, cfg).cycles
        )

    def test_groups_sum(self, rng):
        """Grouped convolution runs groups sequentially at reduced depth."""
        work, _ = make_conv_work(rng, in_depth=8, num_filters=4, groups=2)
        cfg = small_config()
        timing = baseline_conv_timing(work, cfg)
        # Each group: depth 4, 2 filters -> 1 pass; window cost ceil(9*4/4)=9.
        assert timing.cycles == 2 * 36 * 9

    def test_first_layer_packs_shallow_input(self):
        """conv1 (depth 3) packs densely along the window traversal —
        Section II's 'time increases mostly linearly with the number of
        elements' — so alex conv1 takes ceil(11*11*3/16) = 23 cycles per
        window (one 16-wide brick per (x, y) would be 121)."""
        rng = np.random.default_rng(0)
        act = np.abs(rng.normal(size=(3, 227, 227)))
        geometry = {
            "in_depth": 3, "in_y": 227, "in_x": 227, "num_filters": 96,
            "kernel": 11, "stride": 4, "pad": 0, "groups": 1,
            "out_y": 55, "out_x": 55,
        }
        work = ConvWork("conv1", geometry, act, is_first=True)
        timing = baseline_conv_timing(work, PAPER_CONFIG)
        assert timing.cycles == 55 * 55 * 23
        row = baseline_conv_timing(work, PAPER_CONFIG.with_(fetch_packing="row"))
        assert row.cycles == 55 * 55 * 11 * 3

    def test_brick_aligned_depth_same_under_both_packings(self, rng):
        """For lane-multiple depths the two packings agree."""
        work, _ = make_conv_work(rng, in_depth=8, kernel=3, pad=0)
        window_cfg = small_config()
        row_cfg = small_config().with_(fetch_packing="row")
        assert (
            baseline_conv_timing(work, window_cfg).cycles
            == baseline_conv_timing(work, row_cfg).cycles
        )


class TestBaselineEvents:
    def test_event_total_is_units_lanes_cycles(self, rng):
        work, _ = make_conv_work(rng)
        cfg = small_config()
        timing = baseline_conv_timing(work, cfg)
        total = sum(timing.lane_events.values())
        assert total == timing.cycles * cfg.num_units * cfg.neuron_lanes

    def test_zero_events_track_sparsity(self, rng):
        sparse, _ = make_conv_work(rng, zero_fraction=0.7, pad=0)
        dense, _ = make_conv_work(rng, zero_fraction=0.0, pad=0)
        cfg = small_config()
        assert (
            baseline_conv_timing(sparse, cfg).lane_events["zero"]
            > baseline_conv_timing(dense, cfg).lane_events["zero"]
        )

    def test_dense_unpadded_has_no_zero_events(self, rng):
        """With no zeros and depth a lane multiple, every slot is non-zero."""
        work, _ = make_conv_work(rng, in_depth=8, zero_fraction=0.0, pad=0)
        timing = baseline_conv_timing(work, small_config())
        assert timing.lane_events["zero"] == 0

    def test_first_layer_events_are_conv1(self, rng):
        work, _ = make_conv_work(rng, is_first=True)
        timing = baseline_conv_timing(work, small_config())
        assert set(timing.lane_events) == {"conv1"}

    def test_stall_never_appears(self, rng):
        """Lock-step lanes never stall on the baseline."""
        work, _ = make_conv_work(rng)
        timing = baseline_conv_timing(work, small_config())
        assert timing.lane_events.get("stall", 0) == 0


class TestBaselineNetwork:
    def test_network_timing_covers_all_conv_layers(self, rng):
        from repro.nn.models import build_network
        from repro.nn.inference import init_weights, run_forward
        from repro.nn.datasets import natural_images

        net = build_network("alex", input_size=67)
        store = init_weights(net, rng)
        image = natural_images(net.input_shape, 1, seed=0)[0]
        fwd = run_forward(net, store, image)
        baseline = get_backend("baseline")
        timing = baseline.network_timing(net, fwd.conv_inputs, PAPER_CONFIG)
        conv_names = {l.name for l in timing.layers if l.kind == "conv"}
        assert conv_names == {l.name for l in net.conv_layers}
        assert timing.total_cycles > 0
        assert timing.conv_cycles < timing.total_cycles  # other layers cost

    def test_missing_input_raises(self):
        from repro.nn.models import build_network

        net = build_network("alex", input_size=67)
        with pytest.raises(KeyError):
            get_backend("baseline").network_timing(net, {}, PAPER_CONFIG)


class TestConvWorkGeometry:
    @staticmethod
    def _geometry(depth, filters, groups):
        return {
            "in_depth": depth, "in_y": 4, "in_x": 4, "num_filters": filters,
            "kernel": 3, "stride": 1, "pad": 1, "groups": groups,
            "out_y": 4, "out_x": 4,
        }

    @pytest.mark.parametrize(
        "depth, filters, groups, message",
        [
            (32, 16, 3, "in_depth 32 is not divisible by groups 3"),
            (32, 15, 2, "num_filters 15 is not divisible by groups 2"),
            (32, 16, 0, "groups must be >= 1"),
        ],
    )
    def test_bad_grouping_rejected(self, depth, filters, groups, message):
        with pytest.raises(ValueError, match=message):
            ConvWork(
                "bad", self._geometry(depth, filters, groups),
                np.zeros((depth, 4, 4)),
            )
