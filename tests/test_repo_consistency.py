"""Repository-consistency tests: docs, registry, and accounting identities."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from repro.backends import backend_names, get_backend
from repro.experiments.runner import EXPERIMENTS
from repro.hw.config import small_config
from repro.settings import ENV

REPO = Path(__file__).resolve().parents[1]


class TestDocumentation:
    def test_design_md_lists_every_experiment(self):
        """DESIGN.md's experiment index and the runner registry agree."""
        text = (REPO / "DESIGN.md").read_text()
        for experiment in EXPERIMENTS:
            if "_" in experiment:
                # Extension experiments (fig9_backends) are documented
                # by their registry name, not a paper figure label.
                label = experiment
            elif experiment.startswith("table"):
                label = {"table1": "Table I", "table2": "Table II"}[experiment]
            else:
                label = experiment.replace("fig", "Fig. ")
            assert label in text, f"{label} missing from DESIGN.md"

    def test_experiments_md_covers_all_figures(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for heading in ("Fig. 1", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12",
                        "Fig. 13", "Fig. 14", "Table I", "Table II"):
            assert heading in text, f"{heading} missing from EXPERIMENTS.md"

    def test_readme_mentions_key_entry_points(self):
        text = (REPO / "README.md").read_text()
        for needle in ("cnvlutin-experiments", "pytest benchmarks/",
                       "DESIGN.md", "EXPERIMENTS.md", "quickstart.py"):
            assert needle in text

    def test_readme_knob_table_lists_every_setting(self):
        """README's knob table has one row per ``repro.settings`` knob,
        in the module's order."""
        text = (REPO / "README.md").read_text()
        rows = re.findall(
            r"^\| `(CNVLUTIN_\w+)` \| `(\w+)` \|", text, re.MULTILINE
        )
        assert rows == [(env, field) for field, env in ENV.items()]

    def test_every_example_has_a_docstring_and_main(self):
        for script in sorted((REPO / "examples").glob("*.py")):
            source = script.read_text()
            assert source.lstrip().startswith(("#!", '"""')), script.name
            assert "def main(" in source, script.name
            assert '__name__ == "__main__"' in source, script.name

    def test_bench_exists_for_every_paper_experiment(self):
        bench_names = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        expected = {
            "fig1": "bench_fig01_zero_fraction.py",
            "table1": "bench_table1_networks.py",
            "fig9": "bench_fig09_speedup.py",
            "fig10": "bench_fig10_breakdown.py",
            "fig11": "bench_fig11_area.py",
            "fig12": "bench_fig12_power.py",
            "fig13": "bench_fig13_edp.py",
            "table2": "bench_table2_thresholds.py",
            "fig14": "bench_fig14_pruning.py",
        }
        for experiment, bench in expected.items():
            assert bench in bench_names, f"no bench for {experiment}"


class TestEnvironmentAccess:
    def test_only_the_settings_module_mentions_os_environ(self):
        src = REPO / "src" / "repro"
        offenders = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if path != src / "settings.py" and "os.environ" in path.read_text()
        ]
        assert offenders == []


class TestLayerGraph:
    def test_only_the_network_module_reads_input_from(self):
        """``Network`` derives every layer's inputs; the forward walks,
        threshold scopes, calibration and the pool adapter query them."""
        src = REPO / "src" / "repro"
        offenders = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if path != src / "nn" / "network.py"
            and re.search(r"\.input_from\b", path.read_text())
        ]
        assert offenders == []


def _imported_modules(tree: ast.Module, module: str, is_package: bool):
    """Every module an ``import``/``from`` statement anywhere in ``tree``
    (function bodies included) may load, parent packages included."""
    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            yield from (".".join(parts[:i]) for i in range(1, len(parts) + 1))


class TestReachability:
    def test_every_module_is_reachable_from_a_console_script(self):
        """The static import graph of the ``[project.scripts]`` modules
        covers every module under ``src/repro``: no package survives that
        only its own tests, benchmarks or examples reach."""
        src = REPO / "src"
        files = {}
        for path in sorted((src / "repro").rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            is_package = parts[-1] == "__init__"
            name = ".".join(parts[:-1] if is_package else parts)
            files[name] = (path, is_package)
        scripts = (REPO / "pyproject.toml").read_text()
        scripts = scripts.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        roots = re.findall(r'^\S+ = "([\w.]+):\w+"$', scripts, re.MULTILINE)
        assert roots and set(roots) <= set(files), roots
        reached, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name in reached or name not in files:
                continue
            reached.add(name)
            path, is_package = files[name]
            tree = ast.parse(path.read_text(), filename=str(path))
            todo.extend(_imported_modules(tree, name, is_package))
        assert sorted(set(files) - reached) == []


class TestContinuousIntegration:
    def test_backends_job_matrix_matches_registry(self):
        """The CI `backends` job runs one conformance job per registered
        backend, in registration order."""
        text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        job = text[text.index("\n  backends:\n"):]
        match = re.search(r"^ +backend: \[([^\]]*)\]", job, re.MULTILINE)
        assert match, "backends job has no `backend: [...]` matrix"
        matrix = [name.strip() for name in match.group(1).split(",")]
        assert matrix == backend_names()


class TestAccountingIdentities:
    """The Fig. 10 metric must be an exact accounting of cycles."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.nn.datasets import natural_images
        from repro.nn.inference import init_weights, run_forward
        from repro.nn.models import build_network

        net = build_network("cnnS", input_size=64)
        store = init_weights(net, np.random.default_rng(17))
        image = natural_images(net.input_shape, 1, seed=18)[0]
        fwd = run_forward(net, store, image, keep_outputs=False)
        return net, fwd

    def test_baseline_identity(self, run):
        net, fwd = run
        cfg = small_config()
        timing = get_backend("baseline").network_timing(net, fwd.conv_inputs, cfg)
        events = sum(timing.lane_events().values())
        assert events == pytest.approx(
            timing.total_cycles * cfg.num_units * cfg.neuron_lanes
        )

    def test_cnv_identity(self, run):
        net, fwd = run
        cfg = small_config()
        timing = get_backend("cnv").network_timing(net, fwd.conv_inputs, cfg)
        events = sum(timing.lane_events().values())
        assert events == pytest.approx(
            timing.total_cycles * cfg.num_units * cfg.neuron_lanes
        )

    def test_shared_categories_identical_across_architectures(self, run):
        """'other' and 'conv1' events are architecture-independent."""
        net, fwd = run
        cfg = small_config()
        base = get_backend("baseline").network_timing(net, fwd.conv_inputs, cfg)
        cnv = get_backend("cnv").network_timing(net, fwd.conv_inputs, cfg)
        base, cnv = base.lane_events(), cnv.lane_events()
        assert base["other"] == pytest.approx(cnv["other"])
        assert base["conv1"] == pytest.approx(cnv["conv1"])

    def test_cnv_nonzero_matches_baseline_nonzero(self, run):
        """Both architectures process the same effectual neurons; CNV just
        removes the zero events and adds stalls."""
        net, fwd = run
        cfg = small_config()
        base = get_backend("baseline").network_timing(net, fwd.conv_inputs, cfg)
        cnv = get_backend("cnv").network_timing(net, fwd.conv_inputs, cfg)
        base, cnv = base.lane_events(), cnv.lane_events()
        assert cnv["nonzero"] == pytest.approx(base["nonzero"])
