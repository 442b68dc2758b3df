"""Three-way comparison: baseline vs zero-gating vs zero-skipping.

Section VI positions CNV against Eyeriss-style gating: gating converts
ineffectual products into energy savings only, CNV converts them into both
time and energy savings.  This bench quantifies the gap on the evaluated
networks.
"""

from conftest import run_once
from repro.experiments.report import format_table
from repro.power.energy import energy_report


def _compare(ctx):
    rows = []
    freq = ctx.arch.frequency_ghz
    for name in ctx.config.networks:
        base = ctx.timing("baseline", name)
        gated = ctx.timing("gated", name)
        cnv = ctx.timing("cnv", name)
        e_base = energy_report(base.counters(), base.seconds(freq), "dadiannao")
        e_gated = energy_report(
            gated.counters(), gated.seconds(freq), "dadiannao-gated"
        )
        e_cnv = energy_report(cnv.counters(), cnv.seconds(freq), "cnvlutin")
        rows.append(
            {
                "network": name,
                "gating_speedup": base.total_cycles / gated.total_cycles,
                "cnv_speedup": base.total_cycles / cnv.total_cycles,
                "gating_energy_gain": e_base.total_j / e_gated.total_j,
                "cnv_energy_gain": e_base.total_j / e_cnv.total_j,
            }
        )
    return rows


def test_comparison_gating_vs_skipping(benchmark, ctx):
    rows = run_once(benchmark, _compare, ctx)
    print()
    print(format_table(rows))
    for row in rows:
        assert row["gating_speedup"] == 1.0  # gating never saves time
        assert row["cnv_speedup"] > 1.0
        assert row["gating_energy_gain"] > 1.0
