"""Zero-gating comparator tests (repro.baseline.gated)."""

import pytest

from repro.backends import get_backend
from repro.baseline.gated import gated_conv_timing
from repro.baseline.timing import baseline_conv_timing
from repro.hw.config import small_config
from repro.power.energy import energy_report

from conftest import make_conv_work


class TestGatedConv:
    def test_same_cycles_as_baseline(self, rng):
        """Gating saves power, never time (Section VI on Eyeriss)."""
        work, _ = make_conv_work(rng, zero_fraction=0.6)
        cfg = small_config()
        assert (
            gated_conv_timing(work, cfg).cycles
            == baseline_conv_timing(work, cfg).cycles
        )

    def test_gated_mults_scale_with_effectual_fraction(self, rng):
        work, _ = make_conv_work(rng, zero_fraction=0.6, pad=0)
        cfg = small_config()
        base = baseline_conv_timing(work, cfg)
        gated = gated_conv_timing(work, cfg)
        events = base.lane_events
        effectual = events["nonzero"] / (events["nonzero"] + events["zero"])
        assert gated.counters["mults"] == pytest.approx(
            base.counters["mults"] * effectual
        )
        # Memory traffic is NOT gated (NM reads still happen).
        assert gated.counters["nm_reads"] == base.counters["nm_reads"]

    def test_first_layer_ungated(self, rng):
        work, _ = make_conv_work(rng, is_first=True, zero_fraction=0.6)
        cfg = small_config()
        base = baseline_conv_timing(work, cfg)
        gated = gated_conv_timing(work, cfg)
        assert gated.counters["mults"] == base.counters["mults"]


class TestGatedNetwork:
    @pytest.fixture(scope="class")
    def run(self):
        import numpy as np

        from repro.nn.datasets import natural_images
        from repro.nn.inference import init_weights, run_forward
        from repro.nn.models import build_network

        net = build_network("alex", input_size=67)
        store = init_weights(net, np.random.default_rng(2))
        image = natural_images(net.input_shape, 1, seed=2)[0]
        fwd = run_forward(net, store, image, keep_outputs=False)
        return net, fwd

    def test_three_way_comparison(self, run):
        """CNV beats gating on time AND energy; gating beats baseline on
        energy only — the paper's Section VI positioning."""
        net, fwd = run
        cfg = small_config()
        base = get_backend("baseline").network_timing(net, fwd.conv_inputs, cfg)
        gated = get_backend("gated").network_timing(net, fwd.conv_inputs, cfg)
        cnv = get_backend("cnv").network_timing(net, fwd.conv_inputs, cfg)

        assert gated.total_cycles == base.total_cycles
        assert cnv.total_cycles < base.total_cycles

        freq = cfg.frequency_ghz
        e_base = energy_report(base.counters(), base.seconds(freq), "dadiannao")
        e_gated = energy_report(
            gated.counters(), gated.seconds(freq), "dadiannao-gated"
        )
        e_cnv = energy_report(cnv.counters(), cnv.seconds(freq), "cnvlutin")
        assert e_gated.total_j < e_base.total_j
        assert e_cnv.total_j < e_base.total_j

    def test_architecture_label(self, run):
        net, fwd = run
        gated = get_backend("gated")
        timing = gated.network_timing(net, fwd.conv_inputs, small_config())
        assert timing.architecture == "dadiannao-gated"
