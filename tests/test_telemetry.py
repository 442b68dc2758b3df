"""Live telemetry plane tests: sketch, plane, SLO, expo, admin, e2e.

The load-bearing guarantees of the telemetry layer:

* **Sketch**: the fixed-boundary log-bucket quantile sketch answers
  p50/p95/p99 within one ~9% bucket step, merges exactly (associative
  and commutative — Hypothesis-checked), and loads pre-sketch (v3)
  payloads tolerantly.
* **Plane**: per-shard deltas window into a rolling view, track gauge
  high watermarks, and fold into the global registry exactly once (no
  double counting against the stop-time ``op: obs`` pull, and no loss
  when a periodic pull falls inside ``stop()``).
* **SLO**: declared latency/error/shed objectives produce burn rates
  from the same sketch buckets, pessimistic by at most one bucket.
* **End to end**: with periodic shard pulls on and the admin endpoint
  scraped mid-load, a deterministic sharded run stays byte-identical
  to direct inference, the scrape carries per-shard p50/p99 and SLO
  status, and the Prometheus exposition lints clean.
"""

from __future__ import annotations

import asyncio
import json
import math
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.expo import (
    render_prometheus,
    sanitize_metric_name,
    validate_exposition,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    sketch_boundary,
    sketch_index,
)
from repro.obs.report import metrics_report
from repro.obs.slo import (
    LatencyObjective,
    RateObjective,
    SloTracker,
    default_serving_objectives,
    parse_slo_spec,
    violating_fraction,
)
from repro.obs.timeseries import TelemetryPlane, snapshot_delta
from repro.serve import (
    InferenceService,
    ServeConfig,
    ShardTierConfig,
    ShardedService,
    build_requests,
    canonical_response_bytes,
    direct_response,
    percentile,
    run_load,
    summarize,
)
from repro.serve.admin import AdminServer
from repro.serve.telemetry import TelemetryController, latency_digest

SERVE_NETWORKS = ("alex", "cnnS")


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One artifact cache for the module: calibration runs once."""
    return tmp_path_factory.mktemp("telemetry-artifacts")


def det_config(**overrides) -> ServeConfig:
    kwargs = dict(
        scale="tiny", networks=SERVE_NETWORKS, deterministic=True,
        queue_limit=256,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


# ---------------------------------------------------------------------------
# quantile sketch
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# snapshot merge edge cases (satellite)
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# snapshot deltas + the telemetry plane
# ---------------------------------------------------------------------------
class TestSnapshotDelta:
    def test_counters_and_buckets_subtract_exactly(self):
        registry = MetricsRegistry()
        registry.counter_add("c", 3)
        registry.observe("h", 1.0)
        before = registry.snapshot()
        registry.counter_add("c", 2)
        registry.observe("h", 1.0)
        registry.observe("h", 64.0)
        registry.gauge_set("g", 7.0)
        after = registry.snapshot()
        delta = snapshot_delta(before, after)
        assert delta["counters"] == {"c": 2.0}
        assert delta["gauges"] == {"g": 7.0}
        histogram = delta["histograms"]["h"]
        assert histogram["count"] == 2
        assert histogram["buckets"] == {str(sketch_index(1.0)): 1,
                                        str(sketch_index(64.0)): 1}

    def test_unchanged_series_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter_add("c", 3)
        registry.observe("h", 1.0)
        snapshot = registry.snapshot()
        delta = snapshot_delta(snapshot, snapshot)
        assert delta["counters"] == {}
        assert delta["histograms"] == {}


class TestTelemetryPlane:
    def _delta(self, **counters):
        return {"counters": counters, "gauges": {}, "histograms": {}}

    def test_window_covers_only_recent_deltas(self):
        clock = {"now": 0.0}
        plane = TelemetryPlane(window_s=10.0, clock=lambda: clock["now"])
        plane.ingest("s", self._delta(x=1))
        clock["now"] = 20.0
        plane.ingest("s", self._delta(x=5))
        span, window = plane.window()
        assert window["counters"]["x"] == 5.0  # old delta aged out
        assert plane.totals()["counters"]["x"] == 6.0  # cumulative keeps both

    def test_gauge_watermarks_survive_restatement(self):
        plane = TelemetryPlane()
        plane.ingest("s", {"counters": {}, "gauges": {"q": 9.0},
                           "histograms": {}})
        plane.ingest("s", {"counters": {}, "gauges": {"q": 0.0},
                           "histograms": {}})
        assert plane.watermarks()["q"] == 9.0
        assert plane.totals()["gauges"]["q"] == 0.0  # last statement

    def test_fold_into_skips_local_sources(self):
        plane = TelemetryPlane()
        plane.ingest("shard0", self._delta(x=2))
        plane.ingest("shard1", self._delta(x=3))
        plane.ingest("router", self._delta(x=50), local=True)
        registry = MetricsRegistry()
        registry.counter_add("x", 50)  # the local source sampled this
        assert plane.fold_into(registry) == 2
        assert registry.snapshot()["counters"]["x"] == 55.0


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestExposition:
    def test_sanitize(self):
        assert sanitize_metric_name("serve.latency_ms") == "serve_latency_ms"
        assert sanitize_metric_name("9bad-name") == "_9bad_name"

    def test_render_lints_clean_and_has_histogram_family(self):
        registry = MetricsRegistry()
        registry.counter_add("serve.requests", 3)
        registry.gauge_set("router.live_shards", 2)
        for value in (1.0, 5.0, 5.0, 400.0):
            registry.observe("serve.latency_ms", value)
        text = render_prometheus(
            [({"source": "shard0"}, registry.snapshot())]
        )
        assert validate_exposition(text) == []
        assert "cnvlutin_serve_requests_total" in text
        assert 'le="+Inf",source="shard0"} 4' in text
        assert "cnvlutin_serve_latency_ms_count" in text

    def test_lint_catches_missing_type_and_inf(self):
        assert validate_exposition("orphan_metric 1\n")
        broken = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'  # non-monotonic, and no +Inf
        )
        problems = validate_exposition(broken)
        assert any("+Inf" in problem for problem in problems)
        assert any("monotonic" in problem for problem in problems)

    def test_lint_accepts_own_multiseries_output(self):
        registries = []
        for shard in range(3):
            registry = MetricsRegistry()
            registry.observe("serve.latency_ms", 1.0 + shard)
            registries.append(registry)
        text = render_prometheus(
            [({"source": f"shard{i}"}, r.snapshot())
             for i, r in enumerate(registries)]
        )
        assert validate_exposition(text) == []


# ---------------------------------------------------------------------------
# SLO layer
# ---------------------------------------------------------------------------
class TestSlo:
    def _snapshot(self, latencies, requests=0, errors=0, shed=0):
        registry = MetricsRegistry()
        for value in latencies:
            registry.observe("serve.latency_ms", value)
        if requests:
            registry.counter_add("serve.requests", requests)
        if errors:
            registry.counter_add("serve.errors", errors)
        if shed:
            registry.counter_add("serve.shed", shed)
        return registry.snapshot()

    def test_violating_fraction_is_pessimistic_by_one_bucket(self):
        snapshot = self._snapshot([10.0] * 98 + [1000.0] * 2)
        payload = snapshot["histograms"]["serve.latency_ms"]
        assert violating_fraction(payload, 500.0) == pytest.approx(0.02)
        assert violating_fraction(payload, 2000.0) == 0.0
        assert violating_fraction(payload, 5.0) == 1.0

    def test_latency_burn_rate(self):
        tracker = SloTracker([LatencyObjective(
            name="p99", histogram="serve.latency_ms",
            quantile=99.0, threshold=100.0,
        )])
        healthy = tracker.evaluate(self._snapshot([50.0] * 200))[0]
        assert healthy.healthy and healthy.burn_rate == 0.0
        # 5% of observations above threshold vs a 1% budget: burn 5x.
        burning = tracker.evaluate(
            self._snapshot([50.0] * 190 + [900.0] * 10)
        )[0]
        assert not burning.healthy
        assert burning.burn_rate == pytest.approx(5.0)

    def test_rate_burn_and_breach_counter(self):
        tracker = SloTracker([RateObjective(
            name="errors", numerator="serve.errors",
            denominator="serve.requests", target=0.01,
        )])
        registry = MetricsRegistry()
        statuses = tracker.record(
            self._snapshot([], requests=100, errors=5), registry
        )
        assert statuses[0].burn_rate == pytest.approx(5.0)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["slo.errors.value"] == pytest.approx(0.05)
        assert snapshot["counters"]["slo.errors.breaches"] == 1.0

    def test_parse_slo_spec(self):
        objectives = parse_slo_spec("latency_p99_ms=250,shed_rate=0.2")
        by_name = {objective.name: objective for objective in objectives}
        assert by_name["latency_p99_ms"].threshold == 250.0
        assert by_name["shed_rate"].target == 0.2
        assert by_name["error_rate"].target == 0.01  # default kept
        with pytest.raises(ValueError):
            parse_slo_spec("nonsense=1")
        with pytest.raises(ValueError):
            parse_slo_spec("latency_p99_ms=abc")

    def test_default_objectives_unique_names(self):
        names = [o.name for o in default_serving_objectives()]
        assert len(set(names)) == len(names)


# ---------------------------------------------------------------------------
# controller + admin endpoint
# ---------------------------------------------------------------------------
def _http_get(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, response.read().decode("utf-8")


class TestTelemetryController:
    def test_local_sampling_matches_registry_totals(self):
        controller = TelemetryController(interval_s=0.5, source="service")
        obs.counter_add("serve.requests", 4)
        obs.observe("serve.latency_ms", 12.0)
        controller.sample_local()
        obs.counter_add("serve.requests", 2)
        controller.sample_local()
        totals = controller.plane.totals()
        assert totals["counters"]["serve.requests"] == 6.0
        assert totals["histograms"]["serve.latency_ms"]["count"] == 1
        # Local source: folding must not double count.
        before = obs.get_metrics().snapshot()["counters"]["serve.requests"]
        assert controller.plane.fold_into(obs.get_metrics()) == 0
        after = obs.get_metrics().snapshot()["counters"]["serve.requests"]
        assert before == after

    def test_stats_payload_shape(self):
        controller = TelemetryController(interval_s=0.5, source="service")
        for value in (5.0, 9.0, 30.0):
            obs.observe("serve.latency_ms", value)
        obs.counter_add("serve.requests", 3)
        obs.counter_add("serve.completed", 3)
        obs.gauge_max("serve.queue_depth.max", 11)
        stats = controller.stats()
        assert stats["latency_ms"]["p99"] >= 9.0
        assert math.isfinite(stats["latency_ms"]["p99"])
        assert stats["sources"]["service"]["local"] is True
        assert stats["watermarks"]["serve.queue_depth.max"] == 11.0
        assert {s["name"] for s in stats["slo"]} == {
            "latency_p99_ms", "error_rate", "shed_rate",
        }
        # slo.* gauges landed in the global registry for the manifest.
        gauges = obs.get_metrics().snapshot()["gauges"]
        assert "slo.latency_p99_ms.value" in gauges

    def test_latency_digest_prefers_serve_series(self):
        registry = MetricsRegistry()
        registry.observe("router.forward_ms", 3.0)
        digest = latency_digest(registry.snapshot())
        assert digest["series"] == "router.forward_ms"
        registry.observe("serve.latency_ms", 8.0)
        digest = latency_digest(registry.snapshot())
        assert digest["series"] == "serve.latency_ms"
        assert latency_digest({"histograms": {}}) is None


class TestAdminEndpoint:
    def test_stats_metrics_slo_healthz_and_404(self):
        async def _go():
            controller = TelemetryController(interval_s=5.0, source="service")
            for value in (4.0, 8.0, 15.0):
                obs.observe("serve.latency_ms", value)
            obs.counter_add("serve.requests", 3)
            obs.counter_add("serve.completed", 3)
            server = AdminServer(controller, port=0)
            await server.start()
            base = f"http://127.0.0.1:{server.port}"
            try:
                status, body = await asyncio.to_thread(
                    _http_get, f"{base}/stats"
                )
                stats = json.loads(body)
                assert status == 200
                assert math.isfinite(stats["latency_ms"]["p99"])
                status, body = await asyncio.to_thread(
                    _http_get, f"{base}/metrics"
                )
                assert status == 200
                assert validate_exposition(body) == []
                assert "cnvlutin_serve_latency_ms_bucket" in body
                status, body = await asyncio.to_thread(
                    _http_get, f"{base}/slo"
                )
                assert status == 200
                assert json.loads(body)["health"]["live_shards"] == 0
                status, body = await asyncio.to_thread(
                    _http_get, f"{base}/healthz"
                )
                assert status == 200 and json.loads(body)["ok"] is True
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    await asyncio.to_thread(_http_get, f"{base}/nope")
                assert excinfo.value.code == 404
            finally:
                await server.stop()

        asyncio.run(_go())

    def test_healthz_503_when_burning(self):
        async def _go():
            controller = TelemetryController(
                interval_s=5.0, source="service",
                objectives=parse_slo_spec("error_rate=0.01"),
            )
            obs.counter_add("serve.requests", 10)
            obs.counter_add("serve.errors", 5)
            server = AdminServer(controller, port=0)
            await server.start()
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    await asyncio.to_thread(
                        _http_get,
                        f"http://127.0.0.1:{server.port}/healthz",
                    )
                assert excinfo.value.code == 503
                payload = json.loads(excinfo.value.read().decode())
                assert "error_rate" in payload["burning"]
            finally:
                await server.stop()

        asyncio.run(_go())


# ---------------------------------------------------------------------------
# loadgen percentiles vs the server-side sketch (satellite)
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# sharded end-to-end: periodic shard pulls + mid-load scrape + bytes
# ---------------------------------------------------------------------------
class TestShardedTelemetryEndToEnd:
    def test_mid_load_scrape_and_byte_identity(self, cache_dir):
        config = det_config()
        tier = ShardTierConfig(
            shards=2, backlog=256, telemetry_interval_s=0.2,
        )
        requests = build_requests(30, networks=list(SERVE_NETWORKS), seed=9)

        async def _go():
            service = ShardedService(config, tier=tier, cache_dir=cache_dir)
            await service.start()
            controller = TelemetryController(
                plane=service.telemetry, interval_s=0.2, source="router"
            )
            controller.start()
            admin = AdminServer(controller, port=0)
            await admin.start()
            base = f"http://127.0.0.1:{admin.port}"
            mid_stats = None
            try:
                load = asyncio.create_task(run_load(service, requests))
                # Poll the admin endpoint until a shard pull has landed
                # (the run is still going: load not done).
                for _ in range(200):
                    await asyncio.sleep(0.05)
                    _, body = await asyncio.to_thread(
                        _http_get, f"{base}/stats"
                    )
                    stats = json.loads(body)
                    shard_sources = [
                        name for name in stats["sources"]
                        if name.startswith("shard")
                    ]
                    if shard_sources and any(
                        (stats["sources"][name]["latency_ms"] or {}).get(
                            "count", 0
                        )
                        for name in shard_sources
                    ):
                        mid_stats = stats
                        break
                    if load.done():
                        break
                _, exposition = await asyncio.to_thread(
                    _http_get, f"{base}/metrics"
                )
                result = await load
            finally:
                await admin.stop()
                await controller.stop()
                await service.stop()
            return result, service, mid_stats, exposition

        result, service, mid_stats, exposition = asyncio.run(_go())

        # The mid-run scrape carried per-shard latency quantiles and the
        # live-shard / SLO picture, without stopping the tier.
        assert mid_stats is not None, "no shard telemetry arrived mid-load"
        shard_digests = [
            info["latency_ms"] for name, info in mid_stats["sources"].items()
            if name.startswith("shard") and info["latency_ms"]
        ]
        assert shard_digests
        for digest in shard_digests:
            assert math.isfinite(digest["p50"])
            assert math.isfinite(digest["p99"])
        assert mid_stats["health"]["live_shards"] == 2
        assert {s["name"] for s in mid_stats["slo"]} == {
            "latency_p99_ms", "error_rate", "shed_rate",
        }
        assert validate_exposition(exposition) == []

        # Telemetry on + scraped: responses stay byte-identical to
        # direct inference in deterministic mode.
        assert all(
            response.status == "ok"
            for response in result.responses.values()
        )
        for request in requests:
            response = result.responses[request.id]
            direct = direct_response(service.repo, request)
            assert canonical_response_bytes(response) == (
                canonical_response_bytes(direct)
            )

        # No double counting: pulled deltas + the stop-time fold add up
        # to exactly one count per request in the global registry.
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["router.requests"] == len(requests)
        assert counters["router.forwarded"] == len(requests)
        assert counters["serve.requests"] == len(requests)
        assert counters["serve.completed"] == len(requests)
        histogram = obs.get_metrics().snapshot()["histograms"][
            "serve.latency_ms"
        ]
        assert histogram["count"] == len(requests)
        assert sum(histogram["buckets"].values()) == len(requests)


class TestShardHandOffAtStop:
    def test_hand_off_during_stop_lands_exactly_once(self, cache_dir):
        # stop()'s final pull starts 0.3 s late, so several 0.05 s
        # hand-off intervals pass inside stop(): the shard's last counts
        # must still reach the global registry, exactly once.
        tier = ShardTierConfig(
            shards=1, backlog=256, telemetry_interval_s=0.05,
        )
        requests = build_requests(6, networks=list(SERVE_NETWORKS), seed=3)

        async def _go():
            service = ShardedService(
                det_config(), tier=tier, cache_dir=cache_dir
            )
            collect = service.collect_obs

            async def late_collect():
                await asyncio.sleep(0.3)
                return await collect()

            service.collect_obs = late_collect
            await service.start()
            try:
                return await run_load(service, requests)
            finally:
                await service.stop()

        result = asyncio.run(_go())
        assert all(r.status == "ok" for r in result.responses.values())
        counters = obs.get_metrics().snapshot()["counters"]
        for name in ("serve.completed", "serve.batches", "shard.requests"):
            assert counters.get(name) == len(requests), name
