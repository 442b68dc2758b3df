"""Paper-fidelity reference: Figs. 1, 9, 10 and 11 at reduced scale.

A checked-in JSON reference (``tests/reference/fidelity_reduced.json``)
pins the zero fractions (Fig. 1), the CNV speedups (Fig. 9), the
execution-time breakdown (Fig. 10) and the area table (Fig. 11) on all
six networks at ``reduced`` scale.  Cells compare within an absolute
1e-4, below the precision the printed tables show, so a change that
moves canonical bytes in the last ulps passes while one that moves a
paper number fails with a per-cell diff.

The file name does not match ``test_*.py``: the tier-1 run does not
collect it (about 25 s cold on two vCPUs).  CI runs it as its own job::

    PYTHONPATH=src python -m pytest tests/fidelity_reduced.py -q

Refresh after an intentional change with ``CNVLUTIN_UPDATE_GOLDEN=1``
set, as for ``tests/test_golden_regression.py``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments.config import PaperConfig
from repro.experiments.report import diff_result_docs, results_to_json_doc
from repro.experiments.runner import run_all

REFERENCE_PATH = Path(__file__).parent / "reference" / "fidelity_reduced.json"

FIDELITY_EXPERIMENTS = ["fig1", "fig9", "fig10", "fig11"]

#: Absolute tolerance per cell: below the 3-4 decimals the tables print.
ABS_TOL = 1e-4


def test_reduced_scale_paper_numbers_match_reference(tmp_path):
    config = PaperConfig(scale="reduced", cache_dir=tmp_path / "cache", smallcnn=False)
    results = run_all(config, only=FIDELITY_EXPERIMENTS, verbose=False)
    actual = json.loads(results_to_json_doc(results))

    if os.environ.get("CNVLUTIN_UPDATE_GOLDEN"):
        REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
        REFERENCE_PATH.write_text(json.dumps(actual, indent=2) + "\n")
        pytest.skip(f"updated reference file {REFERENCE_PATH}")

    assert REFERENCE_PATH.exists(), (
        f"missing reference file {REFERENCE_PATH}; generate it with "
        "CNVLUTIN_UPDATE_GOLDEN=1"
    )
    expected = json.loads(REFERENCE_PATH.read_text())
    mismatches = diff_result_docs(expected, actual, rel_tol=0.0, abs_tol=ABS_TOL)
    assert not mismatches, (
        "reduced-scale paper numbers drifted from the reference "
        "(refresh with CNVLUTIN_UPDATE_GOLDEN=1 if intentional):\n"
        + "\n".join(mismatches)
    )
