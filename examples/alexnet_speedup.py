#!/usr/bin/env python
"""AlexNet on Cnvlutin: per-layer speedup, activity and energy.

Calibrates an AlexNet-geometry network to the paper's Fig. 1 zero-neuron
statistics (44%), runs the full-network timing models, and prints the
per-layer cycle breakdown, the Fig. 10-style activity split and the
Fig. 13 efficiency metrics — the single-network version of the paper's
evaluation.

Run:  python examples/alexnet_speedup.py [--scale reduced|tiny|full]
"""

import argparse

from repro.experiments import ExperimentContext, PaperConfig, format_table
from repro.experiments.fig12_power import network_energy
from repro.hw.counters import LANE_EVENT_CATEGORIES
from repro.power.metrics import EfficiencyMetrics, improvement


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="reduced", choices=["tiny", "reduced", "full"])
    args = parser.parse_args()

    config = PaperConfig(scale=args.scale, networks=["alex"])
    ctx = ExperimentContext(config)
    print(f"calibrating alex at {args.scale} scale "
          f"(input {config.input_size('alex')}px)...")

    base = ctx.timing("baseline", "alex")
    cnv = ctx.timing("cnv", "alex")

    rows = []
    cnv_cycles = cnv.cycles_by_layer()
    for layer in base.layers:
        cnv_c = cnv_cycles.get(layer.name, layer.cycles)
        rows.append(
            {
                "layer": layer.name,
                "kind": layer.kind,
                "baseline_cycles": layer.cycles,
                "cnv_cycles": cnv_c,
                "speedup": layer.cycles / cnv_c if cnv_c else float("inf"),
            }
        )
    print()
    print(format_table(rows))

    print(f"\ntotal: baseline {base.total_cycles} cycles, CNV {cnv.total_cycles} "
          f"-> {base.total_cycles / cnv.total_cycles:.2f}x speedup "
          "(paper alex: ~1.37x)")

    events = cnv.lane_events()
    total = sum(base.lane_events().values())
    split = ", ".join(
        f"{c}: {events[c] / total:.1%}" for c in LANE_EVENT_CATEGORIES
    )
    print(f"CNV activity breakdown (of baseline events): {split}")

    base_rep, cnv_rep = network_energy(ctx, "alex")
    freq = ctx.arch.frequency_ghz
    ratios = improvement(
        EfficiencyMetrics(base_rep.total_j, base.seconds(freq)),
        EfficiencyMetrics(cnv_rep.total_j, cnv.seconds(freq)),
    )
    print(f"energy gain {ratios['energy']:.2f}x, EDP gain {ratios['edp']:.2f}x, "
          f"ED2P gain {ratios['ed2p']:.2f}x (paper means: 1.47x / 2.01x)")


if __name__ == "__main__":
    main()
