"""Ablation: encoding the first convolutional layer.

CNV leaves conv1 unencoded (its image input is dense, Section IV-B4);
the per-layer software flag could enable encoding anyway.  This ablation
measures how little that would buy — the justification for the paper's
choice.
"""

from conftest import run_once
from repro.backends import get_backend
from repro.experiments.report import format_table


def _sweep(ctx):
    cnv = get_backend("cnv")
    rows = []
    for name in ctx.config.networks:
        nctx = ctx.network_ctx(name)
        fwd = ctx.forward(name, 0)
        base = ctx.timing("baseline", name).total_cycles
        plain = cnv.network_timing(nctx.network, fwd.conv_inputs, ctx.arch).total_cycles
        encoded = cnv.network_timing(
            nctx.network, fwd.conv_inputs, ctx.arch.with_(first_layer_encoded=True)
        ).total_cycles
        rows.append(
            {
                "network": name,
                "speedup_conv1_raw": base / plain,
                "speedup_conv1_encoded": base / encoded,
            }
        )
    return rows


def test_ablation_first_layer_encoding(benchmark, ctx):
    rows = run_once(benchmark, _sweep, ctx)
    print()
    print(format_table(rows))
    for row in rows:
        # Image inputs are dense: encoding conv1 may even slow it down
        # (offset serialization without zeros to skip) — gains stay small.
        gain = row["speedup_conv1_encoded"] / row["speedup_conv1_raw"]
        assert gain < 1.3
