"""Fig. 12 — power/energy breakdown normalized to the baseline.

The paper reports static, dynamic and overall consumption split across NM,
SB, logic and SRAM, with three quoted deltas: NM +53%, SB dynamic power
-18%, unit SRAM/logic +2%, and overall CNV 7% below the baseline.  Here
the breakdown is computed from measured activity counters and the
calibrated component model, averaged over the configured networks; both
the energy and average-power views are reported (see DESIGN.md on the
paper's Fig. 12/Fig. 13 normalization).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.context import ExperimentContext
from repro.experiments.report import ExperimentResult
from repro.power.components import COMPONENTS
from repro.power.energy import energy_report

__all__ = ["run", "network_energy"]


def network_energy(ctx: ExperimentContext, name: str):
    """(baseline EnergyReport, cnv EnergyReport) for one network."""
    base = ctx.timing("baseline", name)
    cnv = ctx.timing("cnv", name)
    freq = ctx.arch.frequency_ghz
    base_rep = energy_report(base.counters(), base.seconds(freq), "dadiannao")
    cnv_rep = energy_report(cnv.counters(), cnv.seconds(freq), "cnvlutin")
    return base_rep, cnv_rep


def run(ctx: ExperimentContext) -> ExperimentResult:
    sums = {
        (arch, kind, comp): 0.0
        for arch in ("baseline", "cnv")
        for kind in ("static", "dynamic")
        for comp in COMPONENTS
    }
    base_totals, cnv_totals = [], []
    power_ratios = []
    for name in ctx.config.networks:
        base_rep, cnv_rep = network_energy(ctx, name)
        for comp in COMPONENTS:
            sums[("baseline", "static", comp)] += base_rep.static_j[comp]
            sums[("baseline", "dynamic", comp)] += base_rep.dynamic_j[comp]
            sums[("cnv", "static", comp)] += cnv_rep.static_j[comp]
            sums[("cnv", "dynamic", comp)] += cnv_rep.dynamic_j[comp]
        base_totals.append(base_rep.total_j)
        cnv_totals.append(cnv_rep.total_j)
        power_ratios.append(cnv_rep.average_power_w / base_rep.average_power_w)

    base_total = sum(base_totals)
    rows = []
    for comp in COMPONENTS:
        base_c = (
            sums[("baseline", "static", comp)] + sums[("baseline", "dynamic", comp)]
        )
        cnv_c = sums[("cnv", "static", comp)] + sums[("cnv", "dynamic", comp)]
        rows.append(
            {
                "component": comp,
                "baseline_static": sums[("baseline", "static", comp)] / base_total,
                "baseline_dynamic": sums[("baseline", "dynamic", comp)] / base_total,
                "cnv_static": sums[("cnv", "static", comp)] / base_total,
                "cnv_dynamic": sums[("cnv", "dynamic", comp)] / base_total,
                "delta": cnv_c / base_c - 1.0,
            }
        )
    energy_ratio = sum(cnv_totals) / base_total
    rows.append(
        {
            "component": "total",
            "baseline_static": sum(sums[("baseline", "static", c)] for c in COMPONENTS)
            / base_total,
            "baseline_dynamic": sum(
                sums[("baseline", "dynamic", c)] for c in COMPONENTS
            )
            / base_total,
            "cnv_static": sum(sums[("cnv", "static", c)] for c in COMPONENTS)
            / base_total,
            "cnv_dynamic": sum(sums[("cnv", "dynamic", c)] for c in COMPONENTS)
            / base_total,
            "delta": energy_ratio - 1.0,
        }
    )
    return ExperimentResult(
        experiment="fig12",
        title="Energy breakdown normalized to baseline",
        rows=rows,
        notes=(
            f"CNV/baseline energy ratio {energy_ratio:.3f} "
            f"(paper overall: 0.93); mean average-power ratio "
            f"{float(np.mean(power_ratios)):.3f}. Paper deltas: NM +53%, "
            "SB dynamic -18%, SRAM/logic +2%."
        ),
        extra={"energy_ratio": energy_ratio},
    )
