"""Parallel runner, artifact cache, and run-manifest tests.

Covers the contract that makes ``--jobs N`` safe to use for paper
results: content-addressed artifacts agree between workers and parent,
the parallel path reproduces the serial output byte-for-byte, and the
manifest faithfully records where time and cache traffic went.
"""

import json

import pytest

from repro.experiments.config import PaperConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.manifest import (
    ArtifactCache,
    RunManifest,
    UnitRecord,
    config_fingerprint,
    stable_hash,
)
from repro.experiments.parallel import (
    WorkUnit,
    execute_units,
    plan_units,
    run_unit,
)
from repro.experiments.report import diff_result_docs, results_to_json_doc
from repro.experiments.runner import EXPERIMENTS, run_all, run_all_with_manifest
from repro.hw.config import PAPER_CONFIG


def tiny_config(tmp_path, **overrides):
    kwargs = {
        "scale": "tiny",
        "networks": ["alex", "cnnS"],
        "num_images": 1,
        "smallcnn": False,
    }
    kwargs.update(overrides)
    return PaperConfig(cache_dir=tmp_path, **kwargs)


class TestStableHash:
    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})


class TestConfigFingerprint:
    def test_excludes_networks_and_cache_location(self, tmp_path):
        """A single-network worker config must address the same artifacts
        as the full-sweep parent — otherwise workers warm a cache the
        assembly pass never reads."""
        parent = tiny_config(tmp_path / "a")
        worker = tiny_config(tmp_path / "b", networks=["alex"], use_cache=False)
        assert config_fingerprint(parent, PAPER_CONFIG) == config_fingerprint(
            worker, PAPER_CONFIG
        )

    def test_sensitive_to_seed_scale_and_arch(self, tmp_path):
        base = config_fingerprint(tiny_config(tmp_path), PAPER_CONFIG)
        assert base != config_fingerprint(tiny_config(tmp_path, seed=8), PAPER_CONFIG)
        assert base != config_fingerprint(
            tiny_config(tmp_path, scale="reduced"), PAPER_CONFIG
        )
        from repro.hw.config import small_config

        assert base != config_fingerprint(tiny_config(tmp_path), small_config())


class TestArtifactCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return ArtifactCache(tmp_path, {"seed": 7})

    def test_roundtrip(self, cache):
        cache.store("calib", {"conv1": 3}, network="alex")
        assert cache.load("calib", network="alex") == {"conv1": 3}

    def test_miss_returns_none(self, cache):
        assert cache.load("calib", network="nin") is None

    def test_content_addressing_layout(self, cache):
        cache.store("calib", {"x": 1}, network="alex")
        path = cache.path("calib", network="alex")
        assert path.exists()
        assert path.parent.name == path.stem[:2]
        assert path.parent.parent.name == "objects"

    def test_params_change_the_address(self, cache):
        assert cache.key("calib", network="alex") != cache.key(
            "calib", network="nin"
        )
        assert cache.key("calib", network="alex") != cache.key(
            "sparsity", network="alex"
        )

    def test_fingerprint_changes_the_address(self, tmp_path):
        a = ArtifactCache(tmp_path, {"seed": 7})
        b = ArtifactCache(tmp_path, {"seed": 8})
        assert a.key("calib", network="alex") != b.key("calib", network="alex")

    def test_disabled_never_touches_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path, {"seed": 7}, enabled=False)
        cache.store("calib", {"x": 1}, network="alex")
        assert cache.load("calib", network="alex") is None
        assert not (tmp_path / "objects").exists()

    def test_counters(self, cache):
        snapshot = cache.counters()
        cache.load("calib", network="alex")  # miss
        cache.store("calib", {"x": 1}, network="alex")
        cache.load("calib", network="alex")  # hit
        assert cache.delta_since(snapshot) == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "quarantined": 0,
        }

    def test_corrupt_object_is_a_miss(self, cache):
        cache.store("calib", {"x": 1}, network="alex")
        cache.path("calib", network="alex").write_text("{truncated")
        assert cache.load("calib", network="alex") is None


class TestPlanUnits:
    def test_per_network_decomposition_in_paper_order(self, tmp_path):
        config = tiny_config(tmp_path)
        units = plan_units(config, ["fig1", "fig9"])
        assert [u.label for u in units] == [
            "fig1:alex", "fig1:cnnS", "fig9:alex", "fig9:cnnS",
        ]

    def test_fig11_is_a_singleton(self, tmp_path):
        units = plan_units(tiny_config(tmp_path), ["fig11"])
        assert [u.label for u in units] == ["fig11:all"]
        assert units[0].network is None

    def test_fig14_sweep_units_plus_optional_smallcnn(self, tmp_path):
        with_cnn = plan_units(tiny_config(tmp_path, smallcnn=True), ["fig14"])
        assert [u.label for u in with_cnn] == [
            "fig14:alex", "fig14:cnnS", "fig14:smallcnn",
        ]
        assert [u.kind for u in with_cnn] == ["sweep", "sweep", "smallcnn"]
        without = plan_units(tiny_config(tmp_path), ["fig14"])
        assert [u.label for u in without] == ["fig14:alex", "fig14:cnnS"]

    def test_affinity_groups_by_network(self, tmp_path):
        units = plan_units(tiny_config(tmp_path), ["fig1", "fig9", "fig11"])
        assert units[0].affinity == units[2].affinity == "alex"
        assert units[4].affinity.startswith("@")


class TestOnlyValidation:
    def test_unknown_name_rejected_before_anything_runs(self, tmp_path, monkeypatch):
        """A typo anywhere in --only must not execute the experiments that
        precede it (the old behaviour was a KeyError mid-run)."""
        executed = []
        real = EXPERIMENTS["table1"]
        monkeypatch.setitem(
            EXPERIMENTS, "table1", lambda ctx: executed.append(1) or real(ctx)
        )
        config = tiny_config(tmp_path, networks=["alex"])
        with pytest.raises(KeyError, match="fig99"):
            run_all(config, only=["table1", "fig99"], verbose=False)
        assert executed == []

    def test_error_lists_valid_choices(self, tmp_path):
        with pytest.raises(KeyError, match="fig1"):
            run_all(tiny_config(tmp_path), only=["bogus"], verbose=False)


class TestUnitExecution:
    def test_failed_unit_records_error_instead_of_raising(self, tmp_path):
        config = tiny_config(tmp_path, networks=["alex"])
        ctx = ExperimentContext(config)
        record = run_unit(ctx, WorkUnit("fig9", "nosuchnet", kind="timings"))
        assert record.status == "error"
        assert record.error
        assert record.unit == "fig9:nosuchnet"

    def test_pool_and_serial_paths_return_planning_order(self, tmp_path):
        config = tiny_config(tmp_path)
        units = plan_units(config, ["table1"])
        for jobs in (1, 2):
            records = execute_units(config, units, jobs=jobs)
            assert [r.unit for r in records] == ["table1:alex", "table1:cnnS"]
            assert all(r.status == "ok" for r in records)


DETERMINISM_EXPERIMENTS = ["fig1", "table1", "fig9", "fig9_backends", "fig14"]


class TestParallelDeterminism:
    def test_jobs4_matches_serial_byte_for_byte_and_warm_cache_hits_100(
        self, tmp_path
    ):
        """The acceptance criterion: parallel output (tables + JSON) is
        byte-identical to serial from independent cold caches, and a warm
        rerun records a 100% artifact hit rate in its manifest."""
        serial_cfg = tiny_config(tmp_path / "serial")
        parallel_cfg = tiny_config(tmp_path / "parallel")

        serial_results, serial_manifest = run_all_with_manifest(
            serial_cfg, only=DETERMINISM_EXPERIMENTS, verbose=False
        )
        parallel_results, parallel_manifest = run_all_with_manifest(
            parallel_cfg, only=DETERMINISM_EXPERIMENTS, verbose=False, jobs=4
        )

        assert results_to_json_doc(parallel_results) == results_to_json_doc(
            serial_results
        )
        for serial, parallel in zip(serial_results, parallel_results):
            assert parallel.to_table() == serial.to_table()

        assert serial_manifest.jobs == 1
        assert parallel_manifest.jobs == 4
        assert parallel_manifest.config_hash == serial_manifest.config_hash
        phases = {u.phase for u in parallel_manifest.units}
        assert phases == {"parallel", "assembly"}

        # Warm rerun: every artifact comes from the cache.
        warm_results, warm_manifest = run_all_with_manifest(
            parallel_cfg, only=DETERMINISM_EXPERIMENTS, verbose=False, jobs=4
        )
        assert results_to_json_doc(warm_results) == results_to_json_doc(
            serial_results
        )
        assert warm_manifest.cache_misses == 0
        assert warm_manifest.cache_hits > 0
        assert warm_manifest.hit_rate == 1.0


class TestRunManifest:
    def make_manifest(self):
        manifest = RunManifest(
            scale="tiny",
            seed=7,
            networks=["alex"],
            jobs=2,
            config_hash="abc123",
            experiments=["fig1"],
        )
        manifest.add_unit(
            UnitRecord(
                unit="fig1:alex", experiment="fig1", network="alex",
                phase="parallel", worker=41, seconds=1.5,
                cache_hits=2, cache_misses=3,
            )
        )
        manifest.add_unit(
            UnitRecord(
                unit="fig1:assembly", experiment="fig1", network=None,
                phase="assembly", worker=40, seconds=0.25,
                cache_hits=5, cache_misses=0,
            )
        )
        manifest.wall_seconds = 2.0
        manifest.cache_stores = 3
        return manifest

    def test_totals_and_hit_rate(self):
        manifest = self.make_manifest()
        assert manifest.cache_hits == 7
        assert manifest.cache_misses == 3
        assert manifest.hit_rate == pytest.approx(0.7)

    def test_save_load_roundtrip(self, tmp_path):
        manifest = self.make_manifest()
        path = tmp_path / "manifests" / "latest.json"
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        payload = json.loads(path.read_text())
        assert payload["version"] == 4
        assert payload["cache"]["hit_rate"] == pytest.approx(0.7)

    def test_profile_table_sorted_by_wall_time(self):
        table = self.make_manifest().profile_table()
        lines = table.splitlines()
        assert "jobs=2" in lines[0]
        assert "70% hit rate" in lines[0]
        body = [line for line in lines if "fig1:" in line]
        assert body[0].startswith("fig1:alex")  # slowest first


class TestCliFlags:
    def test_jobs_profile_and_manifest_paths(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.runner import main

        monkeypatch.setenv("CNVLUTIN_CACHE_DIR", str(tmp_path / "cache"))
        json_path = tmp_path / "results.json"
        manifest_path = tmp_path / "manifest.json"
        code = main([
            "--scale", "tiny", "--networks", "alex", "--only", "table1,fig11",
            "--jobs", "2", "--no-smallcnn", "--profile",
            "--manifest", str(manifest_path), "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "== run profile:" in out
        manifest = RunManifest.load(manifest_path)
        assert manifest.jobs == 2
        assert manifest.experiments == ["table1", "fig11"]
        doc = json.loads(json_path.read_text())
        assert [entry["experiment"] for entry in doc] == ["table1", "fig11"]

    def test_default_manifest_path_with_jobs(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.runner import main

        monkeypatch.setenv("CNVLUTIN_CACHE_DIR", str(tmp_path / "cache"))
        code = main([
            "--scale", "tiny", "--networks", "alex", "--only", "table1",
            "--jobs", "2", "--no-smallcnn",
        ])
        assert code == 0
        assert (tmp_path / "cache" / "manifests" / "latest.json").exists()

    def test_bad_only_exits_2_with_message(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.runner import main

        monkeypatch.setenv("CNVLUTIN_CACHE_DIR", str(tmp_path / "cache"))
        code = main(["--scale", "tiny", "--only", "fig99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_network_exits_2_with_message(self, tmp_path, capsys, monkeypatch):
        # An unknown network is an input error: it must exit 2 before any
        # experiment runs, not degrade into FAILED tables (exit 1).
        from repro.experiments.runner import main

        monkeypatch.setenv("CNVLUTIN_CACHE_DIR", str(tmp_path / "cache"))
        code = main(["--scale", "tiny", "--networks", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown network" in captured.err
        assert captured.out == ""

    def test_bad_network_exits_2_on_sim_cli(self, tmp_path, capsys, monkeypatch):
        # cnvlutin-sim validates the positional via argparse choices.
        from repro.cli import main

        monkeypatch.setenv("CNVLUTIN_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(SystemExit) as excinfo:
            main(["network", "bogus", "--scale", "tiny"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestDiffResultDocs:
    def test_identical_docs_have_no_diff(self, tmp_path):
        config = tiny_config(tmp_path, networks=["alex"])
        results = run_all(config, only=["table1"], verbose=False)
        doc = json.loads(results_to_json_doc(results))
        assert diff_result_docs(doc, doc) == []

    def test_cell_change_is_reported(self, tmp_path):
        config = tiny_config(tmp_path, networks=["alex"])
        results = run_all(config, only=["table1"], verbose=False)
        doc = json.loads(results_to_json_doc(results))
        tampered = json.loads(json.dumps(doc))
        tampered[0]["rows"][0]["conv_layers"] += 1
        mismatches = diff_result_docs(doc, tampered)
        assert mismatches
        assert any("conv_layers" in m for m in mismatches)
