"""Ablation: baseline fetch-block packing policy (DESIGN.md decision #8).

Packing only matters where the input depth is not a multiple of 16 — the
unencoded first layers above all — but those layers bound CNV's end-to-end
speedup (Amdahl).  This sweep compares dense window packing (default)
against NM-row-contiguous packing on conv1 runtime share and speedup.
"""

from conftest import run_once
from repro.backends import get_backend
from repro.experiments.report import format_table


def _sweep(ctx):
    baseline, skipping = get_backend("baseline"), get_backend("cnv")
    rows = []
    for name in ctx.config.networks:
        nctx = ctx.network_ctx(name)
        fwd = ctx.forward(name, 0)
        row = {"network": name}
        for packing in ("window", "row"):
            cfg = ctx.arch.with_(fetch_packing=packing)
            base = baseline.network_timing(nctx.network, fwd.conv_inputs, cfg)
            cnv = skipping.network_timing(nctx.network, fwd.conv_inputs, cfg)
            first = nctx.network.first_conv_layers()
            conv1 = sum(l.cycles for l in base.layers if l.name in first)
            row[f"conv1_share_{packing}"] = conv1 / base.total_cycles
            row[f"speedup_{packing}"] = base.total_cycles / cnv.total_cycles
        rows.append(row)
    return rows


def test_ablation_fetch_packing(benchmark, ctx):
    rows = run_once(benchmark, _sweep, ctx)
    print()
    print(format_table(rows))
    for row in rows:
        # Row packing can only make the (unencoded) first layer pricier,
        # lowering end-to-end speedup.
        assert row["conv1_share_row"] >= row["conv1_share_window"] - 1e-9
        assert row["speedup_row"] <= row["speedup_window"] + 1e-9
