"""Chaos suite: the pipeline converges under injected faults.

The acceptance contract of the reliability subsystem: with injected
worker crashes, cache corruption, unit exceptions, and hangs, a
``run_all --jobs 2`` still completes via retries and produces tables
byte-identical to a fault-free serial run; a run that recorded failures
can be ``--resume``\\ d and re-executes only the incomplete units; and a
damaged artifact cache costs recomputation, never correctness.
"""

import json
import multiprocessing
import os

import pytest

import repro.settings
from repro.experiments.config import PaperConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.manifest import ArtifactCache, RunManifest, UnitRecord, stable_hash
from repro.experiments.parallel import WorkUnit, execute_units, plan_units, run_unit
from repro.experiments.report import results_to_json_doc
from repro.experiments.runner import EXPERIMENTS, run_all_with_manifest
from repro.reliability import (
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    parse_faults,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def tiny_config(tmp_path, **overrides):
    kwargs = {
        "scale": "tiny",
        "networks": ["alex", "cnnS"],
        "num_images": 1,
        "smallcnn": False,
    }
    kwargs.update(overrides)
    return PaperConfig(cache_dir=tmp_path, **kwargs)


def fast_policy(**overrides):
    kwargs = {"max_attempts": 3, "backoff_base": 0.01, "backoff_max": 0.05}
    kwargs.update(overrides)
    return RetryPolicy(**kwargs)


def set_faults(monkeypatch, tmp_path, spec):
    monkeypatch.setenv("CNVLUTIN_FAULTS", spec)
    state = tmp_path / "fault-state"
    monkeypatch.setenv("CNVLUTIN_FAULT_STATE", str(state))
    repro.settings.reload()
    return state


# ---------------------------------------------------------------------------
# fault spec grammar
# ---------------------------------------------------------------------------
class TestFaultSpecGrammar:
    def test_full_grammar(self):
        rules = parse_faults(
            "unit:fig9/nin=raise@0; pool:worker=crash@1,3;"
            "cache:read=corrupt@*; unit:fig1/alex=delay:2.5"
        )
        assert [r.site for r in rules] == [
            "unit:fig9/nin", "pool:worker", "cache:read", "unit:fig1/alex",
        ]
        assert rules[0].action.kind == "raise"
        assert rules[0].trials == frozenset({0})
        assert rules[1].trials == frozenset({1, 3})
        assert rules[2].trials is None  # every trial
        assert rules[3].action.kind == "delay"
        assert rules[3].action.seconds == 2.5

    def test_probability_suffix(self):
        (rule,) = parse_faults("cache:read=raise~0.5@*")
        assert rule.action.probability == 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            "unit:fig9/nin",  # no action
            "=raise",  # empty site
            "cache:read=explode",  # unknown action
            "cache:read=delay:x",  # bad delay
            "cache:read=delay:-1",  # negative delay
            "cache:read=raise@x",  # bad trial list
            "cache:read=raise@-1",  # negative trial
            "cache:read=raise~2",  # probability out of range
            "sparse:gemm=raise",  # a site the program no longer fires
            "cache:reed=raise@0",  # typo of a real site
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)

    def test_empty_spec_is_a_noop_injector(self, monkeypatch):
        monkeypatch.delenv("CNVLUTIN_FAULTS", raising=False)
        injector = FaultInjector.from_settings()
        assert not injector.enabled
        assert injector.fire("unit:fig9/nin", trial=0) is None


class TestFaultInjector:
    def test_unmatched_site_never_counts_a_trial(self, tmp_path):
        injector = FaultInjector(
            rules=parse_faults("cache:read=raise@0"), state_dir=tmp_path
        )
        injector.fire("cache:write")
        assert not any(tmp_path.iterdir())

    def test_trial_counter_shared_across_instances(self, tmp_path):
        """Two injectors over the same state dir model two processes: the
        hit counter is global, so a ``@0`` rule fires exactly once."""
        rules = parse_faults("pool:worker=raise@0")
        first = FaultInjector(rules=rules, state_dir=tmp_path)
        second = FaultInjector(rules=rules, state_dir=tmp_path)
        with pytest.raises(InjectedFault):
            first.fire("pool:worker")
        assert second.fire("pool:worker") is None  # trial 1: clean
        assert first.fire("pool:worker") is None  # trial 2: clean

    def test_probability_deterministic_in_seed(self):
        rules = parse_faults("cache:read=raise~0.5@*")
        outcomes = []
        for seed in (0, 1):
            fired = []
            for trial in range(32):
                injector = FaultInjector(rules=rules, seed=seed)
                try:
                    injector.fire("cache:read", trial=trial)
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            outcomes.append(fired)
        # Same seed reproduces exactly; roughly half the trials fire.
        repeat = []
        for trial in range(32):
            injector = FaultInjector(rules=rules, seed=0)
            try:
                injector.fire("cache:read", trial=trial)
                repeat.append(False)
            except InjectedFault:
                repeat.append(True)
        assert repeat == outcomes[0]
        assert outcomes[0] != outcomes[1]
        assert 4 < sum(outcomes[0]) < 28

    def test_corrupt_action_is_returned_to_the_call_site(self):
        injector = FaultInjector(rules=parse_faults("cache:read=corrupt@0"))
        assert injector.fire("cache:read", trial=0) == "corrupt"
        assert injector.fire("cache:read", trial=1) is None


class TestRetryPolicy:
    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_max=4.0, jitter=0.1, seed=3)
        delays = [policy.delay("fig9:alex", attempt) for attempt in range(6)]
        assert delays == [policy.delay("fig9:alex", a) for a in range(6)]
        for attempt, delay in enumerate(delays):
            nominal = min(4.0, 0.5 * 2.0**attempt)
            assert nominal * 0.9 <= delay <= nominal * 1.1
        assert policy.delay("fig9:alex", 0) != policy.delay("fig9:nin", 0)

    def test_chain_timeout_scales_with_units(self):
        assert RetryPolicy(unit_timeout=2.0).chain_timeout(3) == 6.0
        assert RetryPolicy().chain_timeout(3) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(unit_timeout=0.0)


# ---------------------------------------------------------------------------
# cache integrity and quarantine
# ---------------------------------------------------------------------------
class TestCacheIntegrity:
    @pytest.fixture
    def cache(self, tmp_path):
        return ArtifactCache(tmp_path, {"seed": 7}, injector=FaultInjector())

    def test_objects_carry_a_payload_checksum(self, cache):
        cache.store("calib", {"conv1": 3}, network="alex")
        document = json.loads(cache.path("calib", network="alex").read_text())
        assert document["sha256"] == stable_hash({"conv1": 3})

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.write_text("{not json"),
            lambda path: path.write_text(path.read_text()[: len(path.read_text()) // 2]),
            lambda path: path.write_text(json.dumps({"payload": 1})),  # no checksum
            lambda path: path.write_text(
                json.dumps({"kind": "calib", "payload": {"conv1": 99},
                            "sha256": stable_hash({"conv1": 3})})
            ),  # checksum mismatch
            lambda path: path.write_text(json.dumps([1, 2, 3])),  # wrong shape
            lambda path: path.write_bytes(b"\xff\xfe\x00garbage"),
        ],
    )
    def test_damaged_object_is_quarantined_miss(self, cache, damage):
        cache.store("calib", {"conv1": 3}, network="alex")
        path = cache.path("calib", network="alex")
        damage(path)
        assert cache.load("calib", network="alex") is None
        assert not path.exists()
        assert (cache.quarantine_dir / path.name).exists()
        assert cache.quarantined == 1
        assert cache.misses == 1
        # The slot is recomputable: a fresh store round-trips again.
        cache.store("calib", {"conv1": 3}, network="alex")
        assert cache.load("calib", network="alex") == {"conv1": 3}

    def test_wrong_kind_in_document_is_rejected(self, cache):
        cache.store("calib", {"x": 1}, network="alex")
        path = cache.path("calib", network="alex")
        document = json.loads(path.read_text())
        document["kind"] = "sparsity"
        path.write_text(json.dumps(document))
        assert cache.load("calib", network="alex") is None
        assert cache.quarantined == 1

    def test_plain_miss_is_not_quarantined(self, cache):
        assert cache.load("calib", network="nin") is None
        assert cache.quarantined == 0
        assert not cache.quarantine_dir.exists()

    def test_injected_read_corruption_recovers(self, tmp_path):
        injector = FaultInjector(rules=parse_faults("cache:read=corrupt@0"))
        cache = ArtifactCache(tmp_path, {"seed": 7}, injector=injector)
        cache.store("calib", {"conv1": 3}, network="alex")
        assert cache.load("calib", network="alex") is None  # trial 0: corrupted
        assert cache.quarantined == 1
        cache.store("calib", {"conv1": 3}, network="alex")
        assert cache.load("calib", network="alex") == {"conv1": 3}


def _hammer_store(root, barrier, iterations):
    cache = ArtifactCache(root, {"seed": 7}, injector=FaultInjector())
    payload = {"values": [float(i) for i in range(20000)]}
    barrier.wait()
    for _ in range(iterations):
        cache.store("sparsity", payload, network="alex")
    if cache.load("sparsity", network="alex") != payload:
        raise SystemExit(3)


class TestConcurrentColdWriters:
    def test_two_processes_storing_the_same_artifact(self, tmp_path):
        """Two cold-cache writers race on one object: both must succeed
        via the temp-file + os.replace path, and no reader may ever
        observe a partial object."""
        mp = multiprocessing.get_context("fork")
        barrier = mp.Barrier(3)
        writers = [
            mp.Process(target=_hammer_store, args=(tmp_path, barrier, 60))
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        reader = ArtifactCache(tmp_path, {"seed": 7}, injector=FaultInjector())
        path = reader.path("sparsity", network="alex")
        barrier.wait()
        observations = 0
        while any(writer.is_alive() for writer in writers):
            if path.exists():
                document = json.loads(path.read_text())
                assert document["sha256"] == stable_hash(document["payload"])
                observations += 1
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0
        assert observations > 0  # the race was actually exercised
        assert reader.load("sparsity", network="alex") is not None
        assert reader.quarantined == 0
        # No orphaned temp file is left behind as a visible object.
        leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


# ---------------------------------------------------------------------------
# engine cache budget validation
# ---------------------------------------------------------------------------
class TestEngineCacheBudgetEnv:
    @staticmethod
    def budget_bytes() -> int:
        return int(repro.settings.current().engine_cache_mb * 1024 * 1024)

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("CNVLUTIN_ENGINE_CACHE_MB", raising=False)
        assert self.budget_bytes() == 512 * 1024 * 1024

    def test_valid_value_used(self, monkeypatch):
        monkeypatch.setenv("CNVLUTIN_ENGINE_CACHE_MB", "1.5")
        assert self.budget_bytes() == int(1.5 * 1024 * 1024)

    @pytest.mark.parametrize("bad", ["banana", "-5", "nan", "inf", ""])
    def test_invalid_value_warns_and_falls_back(self, monkeypatch, bad):
        monkeypatch.setenv("CNVLUTIN_ENGINE_CACHE_MB", bad)
        with pytest.warns(RuntimeWarning, match="CNVLUTIN_ENGINE_CACHE_MB"):
            assert self.budget_bytes() == 512 * 1024 * 1024

    def test_engine_builds_under_bad_env(self, monkeypatch):
        import numpy as np

        from repro.nn.engine import IncrementalForwardEngine
        from repro.nn.inference import init_weights
        from repro.nn.models import build_network

        monkeypatch.setenv("CNVLUTIN_ENGINE_CACHE_MB", "not-a-number")
        network = build_network("cnnS", input_size=64)
        store = init_weights(network, np.random.default_rng(0))
        images = np.zeros((1,) + network.input_shape, dtype=np.float32)
        with pytest.warns(RuntimeWarning):
            engine = IncrementalForwardEngine(network, store, images)
        assert engine.cache_bytes > 0


# ---------------------------------------------------------------------------
# retries, crashes, timeouts
# ---------------------------------------------------------------------------
class TestUnitRetries:
    def test_transient_unit_fault_retries_to_success(self, tmp_path, monkeypatch):
        set_faults(monkeypatch, tmp_path, "unit:table1/alex=raise@0")
        config = tiny_config(tmp_path / "cache")
        units = plan_units(config, ["table1"])
        records = execute_units(config, units, jobs=2, policy=fast_policy())
        by_label = {record.unit: record for record in records}
        assert by_label["table1:alex"].status == "ok"
        assert by_label["table1:alex"].attempts == 2
        assert by_label["table1:cnnS"].attempts == 1

    def test_exhausted_attempts_record_error_with_traceback(
        self, tmp_path, monkeypatch
    ):
        set_faults(monkeypatch, tmp_path, "unit:table1/alex=raise@*")
        config = tiny_config(tmp_path / "cache")
        units = plan_units(config, ["table1"])
        records = execute_units(
            config, units, jobs=2, policy=fast_policy(max_attempts=2)
        )
        by_label = {record.unit: record for record in records}
        failed = by_label["table1:alex"]
        assert failed.status == "error"
        assert failed.attempts == 2
        assert "InjectedFault" in failed.error
        assert "InjectedFault" in failed.traceback  # full traceback captured
        assert by_label["table1:cnnS"].status == "ok"

    def test_traceback_surfaces_in_profile_and_manifest(self, tmp_path):
        config = tiny_config(tmp_path, networks=["alex"])
        ctx = ExperimentContext(config)
        record = run_unit(ctx, WorkUnit("fig9", "nosuchnet", kind="sweep"))
        assert record.status == "error"
        assert record.traceback  # satellite: not just the one-line repr
        assert "Traceback" in record.traceback
        manifest = RunManifest(
            scale="tiny", seed=7, networks=["alex"], jobs=1, config_hash="x"
        )
        manifest.add_unit(record)
        profile = manifest.profile_table()
        assert "Traceback" in profile
        assert record.error.split(":")[0] in profile
        payload = manifest.to_dict()
        assert payload["units"][0]["traceback"] == record.traceback

    def test_serial_path_retries_too(self, tmp_path, monkeypatch):
        set_faults(monkeypatch, tmp_path, "unit:table1/alex=raise@0")
        config = tiny_config(tmp_path / "cache", networks=["alex"])
        units = plan_units(config, ["table1"])
        records = execute_units(config, units, jobs=1, policy=fast_policy())
        assert records[0].status == "ok"
        assert records[0].attempts == 2


class TestWorkerCrash:
    def test_broken_pool_respawns_and_completes(self, tmp_path, monkeypatch):
        set_faults(monkeypatch, tmp_path, "pool:worker=crash@0")
        config = tiny_config(tmp_path / "cache")
        units = plan_units(config, ["table1", "fig1"])
        records = execute_units(config, units, jobs=2, policy=fast_policy())
        assert len(records) == len(units)
        assert all(record.status == "ok" for record in records)
        assert any(record.attempts > 1 for record in records)


class TestUnitTimeout:
    def test_hung_unit_is_killed_and_retried(self, tmp_path, monkeypatch):
        set_faults(monkeypatch, tmp_path, "unit:table1/alex=delay:60@0")
        config = tiny_config(tmp_path / "cache")
        units = plan_units(config, ["table1"])
        records = execute_units(
            config, units, jobs=2, policy=fast_policy(unit_timeout=3.0)
        )
        by_label = {record.unit: record for record in records}
        assert by_label["table1:alex"].status == "ok"
        assert by_label["table1:alex"].attempts == 2
        assert by_label["table1:cnnS"].status == "ok"

    def test_permanent_hang_finalizes_as_timeout(self, tmp_path, monkeypatch):
        set_faults(monkeypatch, tmp_path, "unit:table1/alex=delay:60@*")
        config = tiny_config(tmp_path / "cache", networks=["alex", "cnnS"])
        units = plan_units(config, ["table1"])
        records = execute_units(
            config, units, jobs=2,
            policy=fast_policy(max_attempts=2, unit_timeout=2.0),
        )
        by_label = {record.unit: record for record in records}
        assert by_label["table1:alex"].status == "timeout"
        assert by_label["table1:alex"].attempts == 2
        assert "wall-clock" in by_label["table1:alex"].error
        assert by_label["table1:cnnS"].status == "ok"


# ---------------------------------------------------------------------------
# end-to-end chaos: byte-identical convergence, checkpoints, resume
# ---------------------------------------------------------------------------
CHAOS_EXPERIMENTS = ["fig1", "table1", "fig9"]


class TestChaosConvergence:
    def test_faulted_parallel_run_matches_clean_serial_run(
        self, tmp_path, monkeypatch
    ):
        """The headline acceptance test: worker crashes + a transient unit
        exception + on-disk cache corruption, and ``--jobs 2`` still
        produces byte-identical tables from an independent cold cache."""
        clean_cfg = tiny_config(tmp_path / "clean")
        clean_results, _ = run_all_with_manifest(
            clean_cfg, only=CHAOS_EXPERIMENTS, verbose=False
        )

        set_faults(
            monkeypatch,
            tmp_path,
            "pool:worker=crash@0; unit:fig9/alex=raise@0; cache:read=corrupt@1",
        )
        chaos_cfg = tiny_config(tmp_path / "chaos")
        chaos_results, chaos_manifest = run_all_with_manifest(
            chaos_cfg, only=CHAOS_EXPERIMENTS, verbose=False, jobs=2,
            policy=fast_policy(max_attempts=4),
        )

        assert results_to_json_doc(chaos_results) == results_to_json_doc(
            clean_results
        )
        for clean, chaos in zip(clean_results, chaos_results):
            assert chaos.to_table() == clean.to_table()
        parallel_units = [
            unit for unit in chaos_manifest.units if unit.phase == "parallel"
        ]
        assert all(unit.status == "ok" for unit in parallel_units)
        assert any(unit.attempts > 1 for unit in parallel_units)

    def test_checkpoint_written_incrementally(self, tmp_path):
        config = tiny_config(tmp_path / "cache")
        seen = []
        units = plan_units(config, ["table1"])
        execute_units(
            config, units, jobs=2, policy=fast_policy(),
            checkpoint=lambda records: seen.append(len(records)),
        )
        assert seen == [1, 2]  # one call per finalized unit, growing

    def test_checkpoint_path_persists_manifest_during_run(self, tmp_path):
        config = tiny_config(tmp_path / "cache")
        checkpoint_path = tmp_path / "manifests" / "latest.json"
        run_all_with_manifest(
            config, only=["table1"], verbose=False, jobs=2,
            policy=fast_policy(), checkpoint_path=checkpoint_path,
        )
        manifest = RunManifest.load(checkpoint_path)
        assert {unit.unit for unit in manifest.units} == {
            "table1:alex", "table1:cnnS",
        }


class TestResume:
    def test_resume_reexecutes_only_incomplete_units(self, tmp_path, monkeypatch):
        """A run with one permanently-failing unit, resumed after the
        fault clears, re-executes exactly that unit (asserted from the
        manifest's unit records) and matches the clean tables."""
        clean_cfg = tiny_config(tmp_path / "clean")
        clean_results, _ = run_all_with_manifest(
            clean_cfg, only=CHAOS_EXPERIMENTS, verbose=False
        )

        set_faults(monkeypatch, tmp_path, "unit:fig9/cnnS=raise@*")
        config = tiny_config(tmp_path / "cache")
        _, first_manifest = run_all_with_manifest(
            config, only=CHAOS_EXPERIMENTS, verbose=False, jobs=2,
            policy=fast_policy(max_attempts=2),
        )
        failed = [u for u in first_manifest.units if u.status != "ok"]
        assert [u.unit for u in failed] == ["fig9:cnnS"]
        manifest_path = tmp_path / "first.json"
        first_manifest.save(manifest_path)

        monkeypatch.delenv("CNVLUTIN_FAULTS")
        repro.settings.reload()
        resumed_results, resumed_manifest = run_all_with_manifest(
            config, only=CHAOS_EXPERIMENTS, verbose=False, jobs=2,
            policy=fast_policy(), resume=manifest_path,
        )
        executed = [
            unit for unit in resumed_manifest.units if unit.phase == "parallel"
        ]
        carried = [
            unit for unit in resumed_manifest.units if unit.phase == "carried"
        ]
        assert [unit.unit for unit in executed] == ["fig9:cnnS"]
        assert executed[0].status == "ok"
        assert {unit.unit for unit in carried} == {
            "fig1:alex", "fig1:cnnS", "table1:alex", "table1:cnnS", "fig9:alex",
        }
        assert results_to_json_doc(resumed_results) == results_to_json_doc(
            clean_results
        )

    def test_resume_rejects_mismatched_config(self, tmp_path):
        config = tiny_config(tmp_path / "cache")
        _, manifest = run_all_with_manifest(
            config, only=["table1"], verbose=False, jobs=2, policy=fast_policy()
        )
        manifest_path = tmp_path / "m.json"
        manifest.save(manifest_path)
        other = tiny_config(tmp_path / "cache", seed=8)
        with pytest.raises(ValueError, match="different configuration"):
            run_all_with_manifest(
                other, only=["table1"], verbose=False, resume=manifest_path
            )

    def test_resume_defaults_to_the_manifests_experiments(self, tmp_path):
        config = tiny_config(tmp_path / "cache")
        _, manifest = run_all_with_manifest(
            config, only=["table1", "fig1"], verbose=False, jobs=2,
            policy=fast_policy(),
        )
        manifest_path = tmp_path / "m.json"
        manifest.save(manifest_path)
        results, resumed = run_all_with_manifest(
            config, verbose=False, resume=manifest_path
        )
        assert [result.experiment for result in results] == ["table1", "fig1"]
        assert resumed.experiments == ["table1", "fig1"]


class TestGracefulAssembly:
    def test_strict_false_emits_failed_table_and_continues(
        self, tmp_path, monkeypatch
    ):
        def explode(ctx):
            raise RuntimeError("synthetic assembly failure")

        monkeypatch.setitem(EXPERIMENTS, "table1", explode)
        config = tiny_config(tmp_path, networks=["alex"])
        results, manifest = run_all_with_manifest(
            config, only=["table1", "fig11"], verbose=False, strict=False
        )
        assert [result.experiment for result in results] == ["table1", "fig11"]
        assert "FAILED" in results[0].title
        assert "RuntimeError" in results[0].rows[0]["error"]
        assert results[1].rows  # later experiments still assembled
        statuses = {unit.experiment: unit.status for unit in manifest.units}
        assert statuses["table1"] == "error"
        assert statuses["fig11"] == "ok"

    def test_strict_true_restores_fail_fast(self, tmp_path, monkeypatch):
        def explode(ctx):
            raise RuntimeError("synthetic assembly failure")

        monkeypatch.setitem(EXPERIMENTS, "table1", explode)
        config = tiny_config(tmp_path, networks=["alex"])
        with pytest.raises(RuntimeError, match="synthetic"):
            run_all_with_manifest(
                config, only=["table1"], verbose=False, strict=True
            )


class TestManifestCompat:
    def test_version1_manifest_without_new_fields_loads(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "version": 1,
            "scale": "tiny", "seed": 7, "networks": ["alex"], "jobs": 2,
            "config_hash": "abc", "experiments": ["table1"],
            "wall_seconds": 1.0,
            "cache": {"hits": 1, "misses": 0, "stores": 1, "hit_rate": 1.0},
            "units": [{
                "unit": "table1:alex", "experiment": "table1",
                "network": "alex", "phase": "parallel", "worker": 1,
                "seconds": 0.5, "cache_hits": 1, "cache_misses": 0,
                "status": "ok", "error": "",
            }],
        }))
        manifest = RunManifest.load(path)
        assert manifest.units[0].attempts == 1
        assert manifest.units[0].traceback == ""
        assert manifest.completed_units() == {"table1:alex"}
