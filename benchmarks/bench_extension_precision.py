"""Extension bench: CNV combined with variable per-layer precision.

Section VII's future-work direction quantified: find each network's
minimal per-layer activation precisions (prediction-stability criterion),
then model bit-serial CNV lanes at those precisions.  Zero skipping and
precision scaling compound nearly multiplicatively.
"""

from conftest import run_once
from repro.extensions.precision import (
    combined_cnv_precision_timing,
    minimal_precisions,
    precision_speedup_factor,
)
from repro.experiments.report import format_table


def _sweep(ctx):
    rows = []
    for name in ctx.config.networks[:3]:  # precision search is forward-heavy
        nctx = ctx.network_ctx(name)
        profile = minimal_precisions(nctx.network, nctx.store, nctx.images[:2])
        fwd = ctx.forward(name, 0)
        base = ctx.timing("baseline", name).total_cycles
        plain = ctx.timing("cnv", name).total_cycles
        combined = combined_cnv_precision_timing(
            nctx.network, fwd.conv_inputs, ctx.arch, profile.bits
        ).total_cycles
        rows.append(
            {
                "network": name,
                "mean_bits": profile.mean_bits,
                "cnv_speedup": base / plain,
                "cnv+precision_speedup": base / combined,
                "ideal_precision_factor": precision_speedup_factor(profile.bits),
            }
        )
    return rows


def test_extension_cnv_plus_precision(benchmark, ctx):
    rows = run_once(benchmark, _sweep, ctx)
    print()
    print(format_table(rows))
    for row in rows:
        assert row["mean_bits"] <= 16
        assert row["cnv+precision_speedup"] >= row["cnv_speedup"] - 1e-9
