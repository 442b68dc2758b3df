"""Fig. 10 — breakdown of execution activity, CNV normalized to baseline.

Each (unit, neuron-lane, cycle) triple is one event, categorized as
other / conv1 / non-zero / zero / stall (Section V-B).  The baseline bar
is 1.0 by construction; CNV's bar height equals 1/speedup, and its small
stall share shows CNV captures most of the zero-skipping potential.
"""

from __future__ import annotations

from repro.experiments.context import ExperimentContext
from repro.experiments.report import ExperimentResult
from repro.hw.counters import LANE_EVENT_CATEGORIES

__all__ = ["run", "conv1_runtime_share"]


def conv1_runtime_share(ctx: ExperimentContext, name: str) -> float:
    """First-layer share of baseline runtime (Section V-B quotes google at
    35% vs a 21% average — part of why google speeds up least)."""
    timing = ctx.timing("baseline", name)
    first = ctx.network_structure(name).first_conv_layers()
    conv1_cycles = sum(l.cycles for l in timing.layers if l.name in first)
    return conv1_cycles / timing.total_cycles


def run(ctx: ExperimentContext) -> ExperimentResult:
    rows = []
    for name in ctx.config.networks:
        base = ctx.timing("baseline", name)
        cnv = ctx.timing("cnv", name)
        base_events = base.lane_events()
        cnv_events = cnv.lane_events()
        base_total = sum(base_events.values())
        for arch, events in (("baseline", base_events), ("cnv", cnv_events)):
            row = {"network": name, "arch": arch}
            for category in LANE_EVENT_CATEGORIES:
                row[category] = events[category] / base_total
            row["total"] = sum(events.values()) / base_total
            rows.append(row)
    shares = ", ".join(
        f"{name} {conv1_runtime_share(ctx, name):.0%}"
        for name in ctx.config.networks
    )
    return ExperimentResult(
        experiment="fig10",
        title="Breakdown of execution activity (normalized to baseline)",
        rows=rows,
        columns=["network", "arch", *LANE_EVENT_CATEGORIES, "total"],
        notes="cnv total equals 1/speedup; a small stall share means CNV "
        "captures most of the zero-skipping potential (Section V-B). "
        f"conv1 share of baseline runtime: {shares} "
        "(paper: google 35%, average 21%).",
    )
