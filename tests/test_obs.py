"""Tracing + metrics (``repro.obs``) correctness tests.

Covers the observability contract: spans nest and export as valid Chrome
trace-event JSON, disabled tracing is a true no-op, worker-recorded
spans merge into the parent trace with their own pids, metrics snapshots
merge with the documented semantics (counters/histograms sum, gauges
last-wins), and — the part that guards the paper numbers — instrumented
runs produce byte-identical results to uninstrumented ones, with and
without injected faults.
"""

import json
import sys
import threading
import warnings

import pytest

import repro.settings
from repro import obs
from repro.experiments.config import PaperConfig
from repro.experiments.manifest import RunManifest, UnitRecord
from repro.experiments.report import results_to_json_doc
from repro.experiments.runner import run_all_with_manifest
from repro.obs import trace
from repro.obs.metrics import Histogram, MetricsRegistry, sketch_index
from repro.obs.report import main as obs_main
from repro.obs.report import metrics_report
from repro.reliability import RetryPolicy


def tiny_config(tmp_path, **overrides):
    kwargs = {
        "scale": "tiny",
        "networks": ["alex", "cnnS"],
        "num_images": 1,
        "smallcnn": False,
    }
    kwargs.update(overrides)
    return PaperConfig(cache_dir=tmp_path, **kwargs)


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Tracing and metrics are process-global; every test starts clean."""
    obs.disable_tracing()
    obs.reset_tracing()
    obs.reset_metrics()
    yield
    obs.disable_tracing()
    obs.reset_tracing()
    obs.reset_metrics()


class TestSpans:
    def test_spans_nest_and_record_depth(self):
        obs.enable_tracing()
        with obs.span("parent", cat="test", who="outer"):
            with obs.span("child", cat="test"):
                pass
        events = obs.drain_events()
        # Children exit (and append) before their parents.
        assert [e["name"] for e in events] == ["child", "parent"]
        child, parent = events
        assert parent["args"]["depth"] == 0
        assert child["args"]["depth"] == 1
        assert parent["args"]["who"] == "outer"
        # The child's interval lies inside the parent's.
        assert child["ts"] >= parent["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1.0
        assert child["tid"] == parent["tid"] == threading.get_ident()

    def test_disabled_tracing_adds_no_events(self):
        assert not obs.tracing_enabled()
        first = obs.span("anything", cat="test", key="value")
        with first as handle:
            handle.set(more="attrs")
        # One shared no-op object, zero buffered events.
        assert obs.span("other") is first
        assert obs.event_count() == 0

    def test_set_attaches_mid_span_attributes(self):
        obs.enable_tracing()
        with obs.span("work", cat="test") as span:
            span.set(verdict="hit")
        (event,) = obs.drain_events()
        assert event["args"]["verdict"] == "hit"

    def test_exception_is_recorded_and_span_still_closes(self):
        obs.enable_tracing()
        with pytest.raises(ValueError):
            with obs.span("doomed", cat="test"):
                raise ValueError("boom")
        (event,) = obs.drain_events()
        assert event["args"]["error"] == "ValueError"
        # The thread-local stack popped: a fresh span is root-depth again.
        with obs.span("after", cat="test"):
            pass
        (event,) = obs.drain_events()
        assert event["args"]["depth"] == 0


class TestTraceEnv:
    """Until enable/disable_tracing() is called, the tracer follows the
    process settings' ``trace`` (``CNVLUTIN_TRACE``)."""

    def test_documented_values(self, monkeypatch):
        monkeypatch.setattr(trace._STATE, "enabled", None)
        for raw, enabled in [
            ("1", True), ("true", True), (" ON ", True), ("yes", True),
            ("", False), ("0", False), ("false", False), ("Off", False),
            ("no", False),
        ]:
            monkeypatch.setenv("CNVLUTIN_TRACE", raw)
            repro.settings.reload()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert obs.tracing_enabled() is enabled, raw
        with obs.span("recorded", cat="test"):
            pass
        assert obs.event_count() == 0  # the last value, "no", is off

    def test_junk_warns_and_leaves_tracing_off(self, monkeypatch):
        monkeypatch.setattr(trace._STATE, "enabled", None)
        monkeypatch.setenv("CNVLUTIN_TRACE", "maybe")
        with pytest.warns(RuntimeWarning, match="CNVLUTIN_TRACE"):
            assert obs.tracing_enabled() is False


class TestChromeExport:
    def test_write_and_validate_roundtrip(self, tmp_path):
        obs.enable_tracing()
        with obs.span("outer", cat="test"):
            with obs.span("inner", cat="test"):
                pass
        path = tmp_path / "trace.json"
        written = obs.write_chrome_trace(path)
        assert written == 2
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert obs.validate_chrome_trace(document) == []

    def test_validation_catches_malformed_events(self):
        assert obs.validate_chrome_trace({}) == ["document has no traceEvents list"]
        problems = obs.validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "X", "ts": 1.0, "pid": 1, "tid": 1, "dur": 2.0},
                    {"name": "bad", "ph": "X", "ts": 1.0, "pid": 1, "tid": 1,
                     "dur": -5.0},
                    {"name": "old", "ph": "X", "ts": -1.0, "pid": 1, "tid": 1,
                     "dur": 0.0},
                ]
            }
        )
        assert len(problems) == 3
        assert "missing keys" in problems[0]
        assert "negative dur" in problems[1]
        assert "negative ts" in problems[2]


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter_add("hits")
        registry.counter_add("hits", 2)
        registry.gauge_set("temperature", 7.0)
        registry.observe("latency", 0.5)
        registry.observe("latency", 1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == 3
        assert snapshot["gauges"]["temperature"] == 7.0
        hist = snapshot["histograms"]["latency"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(2.0)
        assert hist["min"] == 0.5 and hist["max"] == 1.5
        assert registry.histograms["latency"].mean == pytest.approx(1.0)

    def test_merge_semantics(self):
        """Counters and histograms accumulate; gauges are last-wins."""
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter_add("hits", 1)
        parent.gauge_set("profile", 10.0)
        parent.observe("latency", 1.0)
        worker.counter_add("hits", 4)
        worker.gauge_set("profile", 10.0)  # idempotent restatement
        worker.observe("latency", 3.0)
        parent.merge_snapshot(worker.snapshot())
        merged = parent.snapshot()
        assert merged["counters"]["hits"] == 5
        assert merged["gauges"]["profile"] == 10.0
        assert merged["histograms"]["latency"] == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0,
            "buckets": {
                str(sketch_index(1.0)): 1, str(sketch_index(3.0)): 1,
            },
        }

    def test_empty_histogram_merge_is_a_noop(self):
        histogram = Histogram()
        histogram.merge_dict({"count": 0, "total": 0.0, "min": 0.0, "max": 0.0})
        assert histogram.count == 0
        assert histogram.to_dict()["min"] == 0.0  # not inf in JSON

    def test_take_snapshot_resets(self):
        obs.counter_add("work.done", 2)
        first = obs.take_snapshot()
        assert first["counters"]["work.done"] == 2
        second = obs.take_snapshot()
        assert "work.done" not in second["counters"]

    def test_take_snapshot_keeps_concurrent_increments(self):
        # A shard's worker threads count while its event loop hands
        # deltas over: every increment lands in exactly one snapshot.
        per_thread = 20_000

        def count():
            for _ in range(per_thread):
                obs.counter_add("work.done")

        workers = [threading.Thread(target=count) for _ in range(3)]
        seen = 0.0
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            while any(worker.is_alive() for worker in workers):
                seen += obs.take_snapshot()["counters"].get("work.done", 0.0)
            for worker in workers:
                worker.join(timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        seen += obs.take_snapshot()["counters"].get("work.done", 0.0)
        assert seen == per_thread * len(workers)


class TestManifestSchema:
    def test_v3_roundtrips_metrics(self, tmp_path):
        manifest = RunManifest(
            scale="tiny", seed=7, networks=["alex"], jobs=1,
            config_hash="abc", experiments=["fig1"],
        )
        manifest.metrics = {
            "counters": {"engine.cache.hits": 3.0},
            "gauges": {},
            "histograms": {},
        }
        path = tmp_path / "manifest.json"
        manifest.save(path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 4
        loaded = RunManifest.load(path)
        assert loaded.metrics["counters"]["engine.cache.hits"] == 3.0

    def test_v2_manifest_loads_with_empty_metrics(self, tmp_path):
        payload = {
            "version": 2,
            "scale": "tiny",
            "seed": 7,
            "networks": ["alex"],
            "jobs": 1,
            "config_hash": "abc",
            "experiments": ["fig1"],
            "wall_seconds": 1.0,
            "cache": {"hits": 1, "misses": 0, "stores": 1, "quarantined": 0},
            "units": [],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        loaded = RunManifest.load(path)
        assert loaded.metrics == {}
        assert loaded.cache_stores == 1


class TestEngineCacheSurfacing:
    def test_profile_output_reports_engine_stats(self, tmp_path):
        """The --profile view surfaces EngineStats hit/miss/eviction counts
        captured into the manifest's metrics snapshot."""
        config = tiny_config(tmp_path, networks=["alex"])
        _, manifest = run_all_with_manifest(config, only=["fig10"], verbose=False)
        counters = manifest.metrics["counters"]
        assert counters["engine.runs"] >= 1
        assert counters["engine.cache.misses"] > 0
        profile = manifest.profile_table()
        assert "engine cache:" in profile
        assert "evictions" in profile
        # Per-layer forward-compute histograms rode along.
        layer_histograms = [
            name for name in manifest.metrics["histograms"]
            if name.startswith("nn.layer.")
        ]
        assert layer_histograms


class TestTracedRunDeterminism:
    def test_traced_jobs2_matches_untraced_serial_with_merged_pids(self, tmp_path):
        """The acceptance criterion: tracing must not perturb results, and
        the merged trace carries spans from parent and worker pids."""
        import os

        serial_results, _ = run_all_with_manifest(
            tiny_config(tmp_path / "serial"), only=["fig1", "table1"],
            verbose=False,
        )
        obs.reset_metrics()

        obs.enable_tracing()
        traced_results, manifest = run_all_with_manifest(
            tiny_config(tmp_path / "traced"), only=["fig1", "table1"],
            verbose=False, jobs=2,
        )
        events = obs.drain_events()
        obs.disable_tracing()

        assert results_to_json_doc(traced_results) == results_to_json_doc(
            serial_results
        )

        pids = {event["pid"] for event in events}
        assert len(pids) >= 2, "expected spans from parent and worker processes"
        assert os.getpid() in pids
        unit_pids = {e["pid"] for e in events if e["cat"] == "unit"}
        assert unit_pids and os.getpid() not in unit_pids
        experiment_spans = [e for e in events if e["cat"] == "experiment"]
        assert {e["args"]["experiment"] for e in experiment_spans} == {
            "fig1", "table1",
        }

        # The merged buffer exports as a valid Chrome trace document.
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, events)
        assert obs.validate_chrome_trace(json.loads(path.read_text())) == []

        # Worker metrics merged into the manifest snapshot.
        counters = manifest.metrics["counters"]
        assert counters.get("unit.attempts.ok", 0) >= 4


class TestFaultedRunDeterminism:
    def test_injected_retry_leaves_tables_identical_and_spans_distinct(
        self, tmp_path, monkeypatch
    ):
        """A CNVLUTIN_FAULTS-injected failure shows up as distinct attempt
        spans and fault/retry metrics while the final tables stay
        byte-identical to a clean run."""
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0)

        monkeypatch.delenv("CNVLUTIN_FAULTS", raising=False)
        clean_results, _ = run_all_with_manifest(
            tiny_config(tmp_path / "clean"), only=["fig1"], verbose=False,
            jobs=2, policy=policy,
        )
        obs.reset_metrics()
        obs.reset_tracing()

        monkeypatch.setenv("CNVLUTIN_FAULTS", "unit:fig1/alex=raise@0")
        repro.settings.reload()
        obs.enable_tracing()
        faulted_results, manifest = run_all_with_manifest(
            tiny_config(tmp_path / "faulted"), only=["fig1"], verbose=False,
            jobs=2, policy=policy,
        )
        events = obs.drain_events()
        obs.disable_tracing()

        assert results_to_json_doc(faulted_results) == results_to_json_doc(
            clean_results
        )

        record = next(u for u in manifest.units if u.unit == "fig1:alex")
        assert record.status == "ok"
        assert record.attempts == 2

        attempt_spans = [e for e in events if e["name"] == "unit:fig1:alex"]
        assert {e["args"]["attempt"] for e in attempt_spans} == {0, 1}
        by_attempt = {e["args"]["attempt"]: e["args"]["status"]
                      for e in attempt_spans}
        assert by_attempt == {0: "error", 1: "ok"}

        counters = manifest.metrics["counters"]
        assert counters["faults.injected"] >= 1
        assert counters["faults.injected.unit:fig1/alex"] >= 1
        assert counters["unit.attempts.error"] >= 1
        assert counters["retry.scheduled"] >= 1


class TestObsReportCli:
    def make_manifest_dict(self):
        manifest = RunManifest(
            scale="tiny", seed=7, networks=["alex"], jobs=2,
            config_hash="abc", experiments=["fig1"],
        )
        manifest.add_unit(
            UnitRecord(
                unit="fig1:alex", experiment="fig1", network="alex",
                phase="parallel", worker=41, seconds=1.5,
                cache_hits=2, cache_misses=3, attempts=2,
            )
        )
        manifest.wall_seconds = 2.0
        manifest.metrics = {
            "counters": {
                "engine.cache.hits": 10.0,
                "engine.cache.misses": 5.0,
                "artifact.stores": 4.0,
                "faults.injected": 1.0,
                "faults.injected.unit:fig1/alex": 1.0,
                "retry.scheduled": 1.0,
                "retry.backoff_seconds": 0.25,
            },
            "gauges": {},
            "histograms": {
                "nn.layer.alex.conv1": {
                    "count": 4, "total": 0.8, "min": 0.1, "max": 0.3,
                },
            },
        }
        return manifest.to_dict()

    def test_report_renders_all_sections(self):
        report = metrics_report(self.make_manifest_dict())
        assert "obs report" in report
        assert "manifest v4" in report
        assert "fig1:alex" in report
        assert "conv1" in report
        assert "engine cache: 10 hits / 5 misses" in report
        assert "4 stores" in report
        assert "1 extra attempt(s)" in report
        assert "unit:fig1/alex: 1" in report

    def test_v2_manifest_report_falls_back_to_cache_section(self):
        payload = self.make_manifest_dict()
        payload["version"] = 2
        payload["metrics"] = {}
        payload["cache"] = {
            "hits": 7, "misses": 3, "stores": 2, "quarantined": 1,
            "hit_rate": 0.7,
        }
        report = metrics_report(payload)
        assert "artifact cache: 7 hits / 3 misses / 2 stores / 1 quarantined" in report

    def test_cli_reads_manifest_file(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(self.make_manifest_dict()))
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "obs report" in out

    def test_cli_errors_return_2(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert obs_main(["report", str(bad)]) == 2
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        assert obs_main(["report", str(array)]) == 2
        err = capsys.readouterr().err
        assert "no such manifest" in err
