"""Tracing + metrics (``repro.obs``) correctness tests.

Covers the observability contract: spans nest and export as valid Chrome
trace-event JSON, disabled tracing is a true no-op, worker-recorded
spans merge into the parent trace with their own pids, metrics snapshots
merge with the documented semantics (counters/histograms sum, gauges
last-wins, ``.max`` gauges by maximum), the fixed-boundary log-bucket
quantile sketch answers p50/p95/p99 within one ~9% bucket step and
merges exactly (associative and commutative, Hypothesis-checked), and —
the part that guards the paper numbers — instrumented runs produce
byte-identical results to uninstrumented ones, with and without injected
faults.
"""

import asyncio
import json
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.settings
from repro import obs
from repro.experiments.config import PaperConfig
from repro.experiments.manifest import RunManifest, UnitRecord
from repro.experiments.report import results_to_json_doc
from repro.experiments.runner import run_all_with_manifest
from repro.obs import trace
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    sketch_boundary,
    sketch_index,
)
from repro.obs.report import main as obs_main
from repro.obs.report import metrics_report
from repro.reliability import RetryPolicy
from repro.serve import (
    InferenceService,
    ServeConfig,
    build_requests,
    percentile,
    run_load,
    summarize,
)


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


class TestQuantileSketch:
    def test_boundaries_bracket_every_observation(self):
        for value in (1e-6, 0.003, 1.0, 7.5, 1234.5, 1e15):
            index = sketch_index(value)
            assert sketch_boundary(index) >= value or index == 384
            if -96 < index <= 384:
                assert sketch_boundary(index - 1) < value

    def test_quantiles_within_one_bucket_step(self):
        histogram = Histogram()
        values = [0.5 + 0.01 * i for i in range(1000)]
        for value in values:
            histogram.observe(value)
        for q in (50, 95, 99):
            exact = percentile(sorted(values), q)
            approx = histogram.quantile(q)
            assert exact <= approx <= exact * 2 ** (1 / 8) + 1e-9

    def test_quantiles_clamped_into_observed_range(self):
        histogram = Histogram()
        histogram.observe(7.0)
        assert histogram.quantile(0) == 7.0
        assert histogram.quantile(100) == 7.0
        assert histogram.percentiles() == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram().quantile(99) == 0.0
        assert Histogram().percentiles()["p99"] == 0.0

    def test_zero_and_negative_values_share_the_zero_bucket(self):
        histogram = Histogram()
        histogram.observe(0.0)
        histogram.observe(-5.0)
        histogram.observe(100.0)
        assert histogram.quantile(50) == 0.0
        assert histogram.min == -5.0  # extremes still exact
        assert histogram.quantile(100) == 100.0

    def test_to_dict_roundtrip_preserves_sketch(self):
        histogram = Histogram()
        for value in (0.1, 3.0, 3.1, 900.0):
            histogram.observe(value)
        clone = Histogram.from_dict(histogram.to_dict())
        assert clone.count == histogram.count
        assert clone.buckets == histogram.buckets
        assert clone.quantile(99) == histogram.quantile(99)

    def test_pre_sketch_payload_degrades_to_interpolation(self):
        # A v3 manifest's histogram payload: no "buckets" key at all.
        payload = {"count": 10, "total": 55.0, "min": 1.0, "max": 10.0}
        histogram = Histogram.from_dict(payload)
        assert histogram.count == 10
        assert histogram.quantile(0) == 1.0
        assert histogram.quantile(100) == 10.0
        assert histogram.quantile(50) == pytest.approx(5.5)

    def test_merge_dict_tolerates_junk_buckets(self):
        histogram = Histogram()
        histogram.merge_dict({
            "count": 2, "total": 3.0, "min": 1.0, "max": 2.0,
            "buckets": {"0": 1, "bogus": 1, "8": "2", "9": None},
        })
        assert histogram.buckets == {0: 1, 8: 2}

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=1e-3, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=40,
        ),
        st.lists(
            st.floats(
                min_value=1e-3, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=40,
        ),
        st.lists(
            st.floats(
                min_value=1e-3, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=40,
        ),
    )
    def test_merge_is_associative_and_commutative(self, a, b, c):
        def hist(values):
            histogram = Histogram()
            for value in values:
                histogram.observe(value)
            return histogram

        def merged(order):
            out = Histogram()
            for values in order:
                out.merge_dict(hist(values).to_dict())
            return out

        left = merged([a, b, c])
        right = merged([c, a, b])
        nested = Histogram()
        inner = hist(b)
        inner.merge_dict(hist(c).to_dict())
        nested.merge_dict(hist(a).to_dict())
        nested.merge_dict(inner.to_dict())
        for other in (right, nested):
            assert left.buckets == other.buckets
            assert left.count == other.count
            for q in (50, 95, 99):
                assert left.quantile(q) == other.quantile(q)


class TestSnapshotMergeEdgeCases:
    def test_empty_histogram_payload_merges_as_noop(self):
        registry = MetricsRegistry()
        registry.observe("h", 2.0)
        registry.merge_snapshot({
            "histograms": {"h": Histogram().to_dict()},
        })
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["min"] == 2.0

    def test_gauge_last_wins_across_three_processes(self):
        parent = MetricsRegistry()
        for value in (3.0, 9.0, 5.0):  # three workers report in order
            worker = MetricsRegistry()
            worker.gauge_set("serve.queue_depth", value)
            worker.gauge_max("serve.queue_depth.max", value)
            parent.merge_snapshot(worker.snapshot())
        gauges = parent.snapshot()["gauges"]
        assert gauges["serve.queue_depth"] == 5.0  # last statement wins
        assert gauges["serve.queue_depth.max"] == 9.0  # watermark survives

    def test_gauge_max_never_shrinks_locally(self):
        registry = MetricsRegistry()
        registry.gauge_max("d.max", 4.0)
        registry.gauge_max("d.max", 2.0)
        assert registry.snapshot()["gauges"]["d.max"] == 4.0

    def test_pre_sketch_manifest_renders_report(self):
        # A v3 manifest (histograms without buckets) must keep loading
        # and rendering — without quantile lines, without crashing.
        manifest = {
            "version": 3,
            "scale": "tiny",
            "jobs": 1,
            "wall_seconds": 1.0,
            "units": [],
            "cache": {},
            "metrics": {
                "counters": {
                    "serve.requests": 4.0, "serve.completed": 4.0,
                },
                "gauges": {"serve.queue_depth": 1.0},
                "histograms": {
                    "serve.latency_ms": {
                        "count": 4, "total": 40.0, "min": 5.0, "max": 15.0,
                    },
                    "serve.batch_size": {
                        "count": 2, "total": 4.0, "min": 2.0, "max": 2.0,
                    },
                },
            },
        }
        text = metrics_report(manifest)
        assert "-- serving --" in text
        assert "p99" not in text  # no sketch, no quantile claims
        assert "queue depth last 1" in text

    def test_sketchful_manifest_renders_percentiles_and_watermark(self):
        registry = MetricsRegistry()
        for index in range(20):
            registry.counter_add("serve.requests")
            registry.counter_add("serve.completed")
            registry.observe("serve.latency_ms", 10.0 + index)
            registry.observe("serve.batch_size", 4)
        registry.gauge_set("serve.queue_depth", 2)
        registry.gauge_max("serve.queue_depth.max", 17)
        manifest = {
            "version": 4, "scale": "tiny", "jobs": 1, "wall_seconds": 1.0,
            "units": [], "cache": {}, "metrics": registry.snapshot(),
        }
        text = metrics_report(manifest)
        assert "p50" in text and "p95" in text and "p99" in text
        assert "queue depth last 2 (max 17)" in text


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


SERVE_NETWORKS = ("alex", "cnnS")


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path


def det_config() -> ServeConfig:
    return ServeConfig(
        scale="tiny", networks=SERVE_NETWORKS, deterministic=True,
        queue_limit=256,
    )


class TestLoadgenPercentiles:
    def test_summary_percentiles_crosscheck_server_sketch(self, cache_dir):
        async def _go():
            service = InferenceService(det_config(), cache_dir=cache_dir)
            await service.start()
            try:
                requests = build_requests(
                    24, networks=list(SERVE_NETWORKS), seed=5
                )
                result = await run_load(service, requests)
            finally:
                await service.stop()
            return result

        result = asyncio.run(_go())
        summary = summarize(result)
        assert summary["ok"] == 24
        assert set(summary["latency_ms"]) >= {"p50", "p95", "p99", "max"}
        payload = obs.get_metrics().snapshot()["histograms"][
            "serve.latency_ms"
        ]
        sketch = Histogram.from_dict(payload)
        assert sketch.count == 24
        # Same observations, same nearest-rank definition: the sketch
        # may only round a quantile *up*, by at most one ~9% bucket
        # (1e-3 slack: the summary rounds to three decimals).
        for q in (50, 95, 99):
            exact = summary["latency_ms"][f"p{q}"]
            approx = sketch.quantile(q)
            assert exact <= approx + 1e-3
            assert approx <= exact * 2 ** (1 / 8) + 1e-3
