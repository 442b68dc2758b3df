"""Ablation: ZFNAf brick size (8 / 16 / 32 neurons).

The paper uses 16-neuron bricks (4-bit offsets, +25% NM capacity).  Smaller
bricks skip zeros at finer granularity but need relatively larger offsets;
larger bricks amortize offsets but serialize more neurons per lane.  This
sweep quantifies the conv-layer cycle impact on the evaluated networks.
"""

from conftest import run_once
from repro.core.timing import cnv_network_timing
from repro.experiments.report import format_table


def _sweep(ctx):
    rows = []
    for name in ctx.config.networks:
        nctx = ctx.network_ctx(name)
        fwd = ctx.forward(name, 0)
        base = ctx.timing("baseline", name).total_cycles
        row = {"network": name}
        for brick in (8, 16, 32):
            cfg = ctx.arch.with_(brick_size=brick)
            cycles = cnv_network_timing(nctx.network, fwd.conv_inputs, cfg).total_cycles
            offset_bits = cfg.offset_bits
            row[f"speedup_b{brick}"] = base / cycles
            row[f"overhead_b{brick}"] = offset_bits / cfg.data_bits
        rows.append(row)
    return rows


def test_ablation_brick_size(benchmark, ctx):
    rows = run_once(benchmark, _sweep, ctx)
    print()
    print(format_table(rows))
    for row in rows:
        assert row["speedup_b16"] > 1.0
        # 16-neuron bricks cost 25% capacity overhead (Section IV-B1).
        assert row["overhead_b16"] == 0.25
