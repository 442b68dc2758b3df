"""Golden snapshot of the ``repro-obs report`` text output.

The report renderer is the operator-facing view of every metric
namespace the repo emits (engine cache, artifact cache, per-layer
forward time, retries/faults, the ``serve.*`` serving summary with
sketch quantiles, the sharded-router summary, and the backend activity
table).  A hand-written schema-v4 manifest fixture exercises
every section at once; this test pins the rendered text byte for byte
so formatting or aggregation drift is a deliberate, reviewed change.

Refresh after an intentional change with::

    CNVLUTIN_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_obs_report_golden.py -q

and commit the updated ``tests/golden/obs_report.txt``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.obs.report import main as report_main
from repro.obs.report import metrics_report

MANIFEST_PATH = Path(__file__).parent / "golden" / "obs_report_manifest.json"
GOLDEN_PATH = Path(__file__).parent / "golden" / "obs_report.txt"


def render() -> str:
    manifest = json.loads(MANIFEST_PATH.read_text())
    return metrics_report(manifest, top=5) + "\n"


def test_report_matches_golden():
    actual = render()

    if os.environ.get("CNVLUTIN_UPDATE_GOLDEN"):
        GOLDEN_PATH.write_text(actual)
        pytest.skip(f"updated golden file {GOLDEN_PATH}")

    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; generate it with "
        "CNVLUTIN_UPDATE_GOLDEN=1"
    )
    assert actual == GOLDEN_PATH.read_text(), (
        "repro-obs report output drifted from the golden snapshot "
        "(refresh with CNVLUTIN_UPDATE_GOLDEN=1 if intentional)"
    )


def test_report_covers_every_section():
    """The fixture must keep exercising each renderer section."""
    text = render()
    for heading in (
        "-- self time by experiment",
        "-- slowest work units",
        "-- forward compute by layer",
        "-- forward compute by network",
        "-- caches --",
        "-- serving --",
        "-- sharded serving --",
        "-- backend activity --",
        "-- retries / faults --",
    ):
        assert heading in text, f"fixture no longer exercises {heading!r}"
    assert "shed rate 8%" in text
    assert "pool:worker: 1" in text
    # v4 sketch quantiles and the queue-depth watermark render too.
    assert "p50" in text and "p99" in text
    assert "queue depth last 3 (max 11)" in text
    # Backend activity rows resolve architectures through the registry
    # and render scientific-notation event counts.
    assert "cnvlutin2" in text and "scnn" in text
    assert "1.200e+06" in text


def test_loadgen_report_header_reads_config_and_summary():
    # The shape `repro-serve loadgen --json` writes: config, summary and
    # the stop-time metrics snapshot, but no run-manifest keys.
    document = {
        "config": {"scale": "tiny", "networks": ["alex"], "shards": 2},
        "summary": {"requests": 50, "ok": 50, "wall_s": 3.46},
        "metrics": json.loads(MANIFEST_PATH.read_text())["metrics"],
    }
    text = metrics_report(document)
    assert text.splitlines()[0] == (
        "== obs report: scale=tiny shards=2 wall=3.5s requests=50 "
        "(loadgen report) =="
    )
    assert "manifest v" not in text
    assert "-- sharded serving --" in text


def test_report_cli_prints_the_same_text(capsys):
    assert report_main(["report", str(MANIFEST_PATH), "--top", "5"]) == 0
    assert capsys.readouterr().out == render()


def test_report_cli_rejects_bad_input(tmp_path, capsys):
    assert report_main(["report", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert report_main(["report", str(bad)]) == 2
    array = tmp_path / "array.json"
    array.write_text("[]")
    assert report_main(["report", str(array)]) == 2
    capsys.readouterr()
