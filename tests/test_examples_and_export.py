"""Executable-documentation tests: examples run, exports are well-formed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.report import ExperimentResult

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

#: What each example must print; a script missing here need only exit 0.
EXPECTED_STDOUT = {
    "alexnet_speedup.py": ("total:", "EDP gain"),
    "custom_network.py": ("paper geometry",),
    "pruning_tradeoff.py": ("pareto frontier",),
    "quickstart.py": ("speedup", "match the structural simulators"),
}


class TestExamples:
    @pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
    def test_example_runs(self, script):
        """Every example runs, at tiny scale where it takes ``--scale``."""
        args = ["--scale", "tiny"] if '"--scale"' in script.read_text() else []
        env = dict(os.environ)
        env["CNVLUTIN_CACHE_DIR"] = str(REPO / ".cache")
        result = subprocess.run(
            [sys.executable, str(script), *args],
            capture_output=True,
            text=True,
            timeout=600,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        for text in EXPECTED_STDOUT.get(script.name, ()):
            assert text in result.stdout, text


class TestJsonExport:
    def test_to_json_roundtrips(self):
        result = ExperimentResult(
            experiment="fig9",
            title="Speedup",
            rows=[{"network": "alex", "CNV": 1.5, "paper": float("nan")}],
            notes="n",
        )
        payload = json.loads(result.to_json())
        assert payload["experiment"] == "fig9"
        assert payload["rows"][0]["CNV"] == 1.5
        assert payload["rows"][0]["paper"] is None  # NaN -> null

    def test_runner_json_flag(self, tmp_path, monkeypatch):
        from repro.experiments.runner import main

        monkeypatch.setenv("CNVLUTIN_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "results.json"
        code = main([
            "--scale", "tiny", "--networks", "alex",
            "--only", "table1,fig11", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert [p["experiment"] for p in payload] == ["table1", "fig11"]
