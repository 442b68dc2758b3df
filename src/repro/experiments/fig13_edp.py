"""Fig. 13 — EDP and ED²P improvement of CNV over DaDianNao.

Paper: 1.47x EDP and 2.01x ED²P on average.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.context import ExperimentContext
from repro.experiments.fig12_power import network_energy
from repro.experiments.report import ExperimentResult
from repro.power.metrics import EfficiencyMetrics, improvement

__all__ = ["run"]


def run(ctx: ExperimentContext) -> ExperimentResult:
    rows = []
    edps, ed2ps = [], []
    freq = ctx.arch.frequency_ghz
    for name in ctx.config.networks:
        base_rep, cnv_rep = network_energy(ctx, name)
        base_metrics = EfficiencyMetrics(
            energy_j=base_rep.total_j,
            delay_s=ctx.timing("baseline", name).seconds(freq),
        )
        cnv_metrics = EfficiencyMetrics(
            energy_j=cnv_rep.total_j,
            delay_s=ctx.timing("cnv", name).seconds(freq),
        )
        ratios = improvement(base_metrics, cnv_metrics)
        edps.append(ratios["edp"])
        ed2ps.append(ratios["ed2p"])
        rows.append(
            {
                "network": name,
                "speedup": ratios["speedup"],
                "energy_gain": ratios["energy"],
                "EDP_gain": ratios["edp"],
                "ED2P_gain": ratios["ed2p"],
            }
        )
    rows.append(
        {
            "network": "average",
            "speedup": float(
                np.mean([r["speedup"] for r in rows])
            ),
            "energy_gain": float(np.mean([r["energy_gain"] for r in rows])),
            "EDP_gain": float(np.mean(edps)),
            "ED2P_gain": float(np.mean(ed2ps)),
        }
    )
    return ExperimentResult(
        experiment="fig13",
        title="EDP and ED2P improvement of CNV over DaDianNao",
        rows=rows,
        notes="paper averages: EDP 1.47x, ED2P 2.01x.",
    )
