"""Ablation: cost of an all-zero brick (DESIGN.md decision #3).

The shipped model charges one cycle per empty brick — the NM bank supplies
at most one brick per cycle (Section IV-B3).  The ablation compares against
a free skip (``empty_brick_cycles=0``), bounding how much that conservative
choice costs.
"""

from conftest import run_once
from repro.backends import get_backend
from repro.experiments.report import format_table


def _speedups(ctx):
    cnv = get_backend("cnv")
    rows = []
    for name in ctx.config.networks:
        nctx = ctx.network_ctx(name)
        fwd = ctx.forward(name, 0)
        base = ctx.timing("baseline", name).total_cycles
        one = cnv.network_timing(nctx.network, fwd.conv_inputs, ctx.arch).total_cycles
        free = cnv.network_timing(
            nctx.network, fwd.conv_inputs, ctx.arch.with_(empty_brick_cycles=0)
        ).total_cycles
        rows.append(
            {
                "network": name,
                "speedup_1cycle": base / one,
                "speedup_freeskip": base / free,
                "freeskip_benefit": one / free - 1.0,
            }
        )
    return rows


def test_ablation_empty_brick_cost(benchmark, ctx):
    rows = run_once(benchmark, _speedups, ctx)
    print()
    print(format_table(rows))
    for row in rows:
        assert row["speedup_freeskip"] >= row["speedup_1cycle"] - 1e-9
        # Real networks rarely produce fully-empty bricks: the one-cycle
        # charge costs little, which is why the paper could afford it.
        assert row["freeskip_benefit"] < 0.25
