"""Sharded serving tests: shared-memory arena, byte-identity, failover.

The load-bearing guarantees of the sharded tier (repro.serve.router /
repro.serve.shard / repro.nn.shm):

* **Arena**: weights published to shared memory attach as zero-copy,
  read-only, bit-identical views; the manifest is JSON-safe; only the
  owner unlinks.
* **Differential**: at ANY shard count, a deterministic sharded run —
  consistent-hash routing, per-shard micro-batching, wire transport —
  produces responses byte-identical (canonical bytes) to one-at-a-time
  direct inference.
* **Failover / chaos**: an injected ``shard:forward`` fault fails over
  to a replica with zero failed responses; a ``shard:serve=crash`` that
  hard-kills a shard mid-run still yields zero failed responses, the
  death is observed, and the shard is respawned.
* **Hand-off**: every shard's counts reach the router's registry by
  one ``op: obs`` pull at stop, exactly once — traced spans past 64 KiB
  included.
* **Hop**: the router and its shards exchange length-prefixed pickle
  frames over sockets in a private (0700) directory; a frame that does
  not unpickle is dropped and the stream stays in step.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import stat
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.settings
from repro import obs
from repro.nn import blas
from repro.nn.inference import WeightStore
from repro.nn.shm import SharedWeightArena, process_pss_kb, process_rss_kb
from repro.obs.report import metrics_report
from repro.reliability import FaultInjector, RespawnPolicy, RetryPolicy
from repro.reliability.faults import parse_faults
from repro.serve import (
    ServeConfig,
    ServeRequest,
    ShardTierConfig,
    ShardedService,
    build_requests,
    build_sweep_requests,
    canonical_response_bytes,
    direct_response,
    run_load,
    summarize,
)
from repro.serve.hashring import HashRing
from repro.serve.models import ModelRepository
from repro.serve.shard import BadFrame, encode_frame, read_frame
from repro.settings import Settings

SERVE_NETWORKS = ("alex", "cnnS")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One artifact-cache directory for the whole module: calibration is
    computed by the first service start and reused by every later one."""
    return tmp_path_factory.mktemp("sharded-artifacts")


def fresh_repo(service) -> ModelRepository:
    """The direct-inference reference for ``service``: a repository of
    its own, weights drawn from the seed and calibration read from the
    artifact cache.  The router computes on the arena's views, so its
    repository would read the very pages it checks."""
    return ModelRepository(service.config.paper_config(service.cache_dir))


def det_config(**overrides) -> ServeConfig:
    kwargs = dict(
        scale="tiny", networks=SERVE_NETWORKS, deterministic=True,
        queue_limit=256,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def drive_sharded(
    config, tier, requests, cache_dir, rate=None,
    injector=None, respawn=None, policy=None,
):
    """Start a sharded service, run one workload, stop it.

    Returns (LoadResult, ShardedService) — the stopped service still
    carries its router-side repo (the direct-inference reference) and
    the obs data collected from the shards at stop.
    """

    async def _go():
        service = ShardedService(
            config, tier=tier, injector=injector, respawn=respawn,
            policy=policy, cache_dir=cache_dir,
        )
        await service.start()
        try:
            result = await run_load(service, requests, rate=rate)
        finally:
            await service.stop()
        return result, service

    return asyncio.run(_go())


def tiny_stores() -> dict[str, WeightStore]:
    rng = np.random.default_rng(3)
    def store(layers):
        return WeightStore(
            weights={
                name: rng.standard_normal(shape).astype(np.float32)
                for name, shape in layers.items()
            },
            biases={
                name: rng.standard_normal(shape[0]).astype(np.float32)
                for name, shape in layers.items()
            },
            shifts={"conv1": 0.25, "conv2": np.array([0.1, 0.2, 0.3])},
        )
    return {
        "netA": store({"conv1": (4, 3, 3, 3), "fc1": (10, 36)}),
        "netB": store({"conv1": (2, 1, 5, 5)}),
    }


class TestSharedWeightArena:
    def test_publish_attach_roundtrip_bit_identical(self):
        stores = tiny_stores()
        arena = SharedWeightArena.publish(stores)
        try:
            attached = SharedWeightArena.attach(arena.manifest)
            for name, original in stores.items():
                view = attached.stores[name]
                for layer, arr in original.weights.items():
                    assert view.weights[layer].dtype == arr.dtype
                    assert np.array_equal(view.weights[layer], arr)
                for layer, arr in original.biases.items():
                    assert np.array_equal(view.biases[layer], arr)
                for layer, shift in original.shifts.items():
                    if isinstance(shift, np.ndarray):
                        assert np.array_equal(view.shifts[layer], shift)
                    else:
                        assert view.shifts[layer] == shift
            attached.close()
        finally:
            arena.unlink()
            arena.close()

    def test_views_are_zero_copy_and_read_only(self):
        stores = tiny_stores()
        arena = SharedWeightArena.publish(stores)
        try:
            attached = SharedWeightArena.attach(arena.manifest)
            view = attached.stores["netA"].weights["conv1"]
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0, 0, 0, 0] = 1.0
            # Zero copy: the view's memory IS the shared block's buffer.
            expected = attached.manifest["networks"]["netA"]["weights"][
                "conv1"
            ]["offset"]
            base = np.frombuffer(attached.shm.buf, dtype=np.uint8)
            bounds = np.lib.array_utils.byte_bounds
            start = bounds(view)[0] - bounds(base)[0]
            assert start == expected
            del base, view
            attached.close()
        finally:
            arena.unlink()
            arena.close()

    def test_manifest_is_json_safe_and_aligned(self):
        arena = SharedWeightArena.publish(tiny_stores())
        try:
            manifest = json.loads(json.dumps(arena.manifest))
            assert manifest["shm"] == arena.shm.name
            for entry in manifest["networks"].values():
                for section in ("weights", "biases"):
                    for meta in entry[section].values():
                        assert meta["offset"] % 64 == 0
        finally:
            arena.unlink()
            arena.close()

    def test_only_owner_unlinks(self):
        arena = SharedWeightArena.publish(tiny_stores())
        try:
            attached = SharedWeightArena.attach(arena.manifest)
            with pytest.raises(RuntimeError):
                attached.unlink()
            attached.close()
        finally:
            arena.unlink()
            arena.close()

    def test_process_pss_kb(self):
        import os

        pss = process_pss_kb(os.getpid())
        assert pss is None or pss > 0
        assert process_pss_kb(2**30) is None

    def test_views_outlive_close_and_the_arena(self):
        """A view stays readable after close() and after its arena is
        dropped, and the handle's release prints nothing.  Run in a
        subprocess: a view over an unmapped block segfaults."""
        script = textwrap.dedent("""
            import gc
            import numpy as np
            from repro.nn.inference import WeightStore
            from repro.nn.shm import SharedWeightArena

            weights = np.arange(4096, dtype=np.float32).reshape(64, 64)
            arena = SharedWeightArena.publish({"net": WeightStore(
                weights={"fc1": weights}, biases={"fc1": weights[0]},
            )})
            attached = SharedWeightArena.attach(arena.manifest)
            owned = arena.stores["net"].weights["fc1"]
            view = attached.stores["net"].weights["fc1"]
            total = float(weights.sum())
            attached.close()
            arena.unlink()
            arena.close()
            assert float(view.sum()) == total
            assert float(owned.sum()) == total
            del arena, attached
            gc.collect()
            assert float(view.sum()) == total
            assert float(owned.sum()) == total
            print("ok")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
        assert "BufferError" not in proc.stderr, proc.stderr

    def test_process_rss_kb(self):
        rss = process_rss_kb(os.getpid())
        assert rss is None or rss["rss_anon_kb"] > 0
        assert process_rss_kb(2**30) is None


def mixed_workload() -> list[ServeRequest]:
    """Seeded + probe requests, all three kinds, plus threshold groups."""
    seeded = build_requests(6, list(SERVE_NETWORKS))
    pruned = build_requests(
        4, list(SERVE_NETWORKS), kinds=["classify", "zero_fraction"],
        seed=9, thresholds={"conv2": 0.05},
    )
    pruned = [
        ServeRequest(**{**req.__dict__, "id": f"p{index:04d}"})
        for index, req in enumerate(pruned)
    ]
    probes = build_sweep_requests(
        8, list(SERVE_NETWORKS), variants_per_network=2,
    )
    return seeded + pruned + probes


class TestShardedDifferential:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_byte_identical_to_direct(self, cache_dir, shards):
        requests = mixed_workload()
        result, service = drive_sharded(
            det_config(), ShardTierConfig(shards=shards, forward_timeout_s=120),
            requests, cache_dir,
        )
        assert len(result.responses) == len(requests)
        repo = fresh_repo(service)
        for request in requests:
            response = result.responses[request.id]
            assert response.status == "ok", response.payload
            reference = direct_response(repo, request)
            assert canonical_response_bytes(response) == (
                canonical_response_bytes(reference)
            )

    def test_summary_carries_per_shard_breakdown(self, cache_dir):
        requests = build_sweep_requests(
            8, list(SERVE_NETWORKS), variants_per_network=4,
            kinds=["classify"],
        )
        result, _ = drive_sharded(
            det_config(), ShardTierConfig(shards=2, forward_timeout_s=120),
            requests, cache_dir,
        )
        summary = summarize(result)
        assert "per_shard" in summary
        assert sum(
            entry["requests"] for entry in summary["per_shard"].values()
        ) == len(requests)
        # Latencies come from the shared perf_counter epoch: positive,
        # and bounded by the workload wall clock.
        for response in result.responses.values():
            assert response.latency_ms is not None
            assert 0 < response.latency_ms <= result.wall_s * 1e3

    def test_responses_identical_across_shard_counts(self, cache_dir):
        requests = build_sweep_requests(
            6, list(SERVE_NETWORKS), variants_per_network=3,
            kinds=["classify", "zero_fraction"],
        )
        byte_sets = []
        for shards in (1, 2):
            result, _ = drive_sharded(
                det_config(),
                ShardTierConfig(shards=shards, forward_timeout_s=120),
                requests, cache_dir,
            )
            byte_sets.append(
                {
                    rid: canonical_response_bytes(response)
                    for rid, response in result.responses.items()
                }
            )
        assert byte_sets[0] == byte_sets[1]


class TestFailover:
    def test_forward_fault_fails_over_with_zero_errors(self, cache_dir):
        obs.reset_metrics()
        injector = FaultInjector(rules=parse_faults("shard:forward=raise@0"))
        requests = build_sweep_requests(
            8, list(SERVE_NETWORKS), variants_per_network=2,
            kinds=["classify"],
        )
        result, _ = drive_sharded(
            det_config(), ShardTierConfig(shards=2, forward_timeout_s=120),
            requests, cache_dir, injector=injector,
        )
        summary = summarize(result)
        assert summary["error"] == 0 and summary["ok"] == len(requests)
        counters = obs.get_metrics().counters
        assert counters.get("router.retries", 0) >= len(requests)
        assert counters.get("router.failovers", 0) >= 1
        assert counters.get("faults.injected.shard:forward", 0) >= 1

    def test_shard_crash_mid_run_recovers(self, cache_dir, tmp_path):
        obs.reset_metrics()
        requests = build_sweep_requests(
            10, list(SERVE_NETWORKS), variants_per_network=2,
            kinds=["classify"],
        )
        result, _ = drive_sharded(
            det_config(),
            ShardTierConfig(
                shards=2, forward_timeout_s=120,
                settings=Settings(
                    faults="shard:serve=crash@3",
                    fault_state=tmp_path / "fault-state",
                ),
            ),
            requests, cache_dir,
            respawn=RespawnPolicy(backoff_base=0.01, seed=1),
        )
        summary = summarize(result)
        assert summary["error"] == 0, summary
        assert summary["ok"] == len(requests)
        counters = obs.get_metrics().counters
        assert counters.get("router.deaths", 0) >= 1

    def test_exhausted_attempts_yield_error_not_hang(self, cache_dir):
        obs.reset_metrics()
        injector = FaultInjector(rules=parse_faults("shard:forward=raise@*"))
        requests = build_requests(2, ["alex"], kinds=["classify"])
        result, _ = drive_sharded(
            det_config(),
            ShardTierConfig(shards=1, forward_timeout_s=120),
            requests, cache_dir, injector=injector,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        )
        for response in result.responses.values():
            assert response.status == "error"
            assert "shard attempts failed" in response.payload["error"]


class TestShardHandOffAtStop:
    def test_hand_off_during_stop_lands_exactly_once(self, cache_dir):
        # stop()'s one pull starts 0.3 s late, after the last request
        # resolved: the shard's counts must still reach the global
        # registry, exactly once.
        obs.reset_metrics()
        tier = ShardTierConfig(shards=1, backlog=256)
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

    def test_traced_hand_off_past_64_kib_reaches_the_router(self, cache_dir):
        # Traced shards drain well over 64 KiB of spans each after 160
        # requests; a mid-run pull must bring every span and count home
        # without the router taking the long reply for a dead shard.
        obs.reset_metrics()
        obs.reset_tracing()
        tier = ShardTierConfig(
            shards=2, backlog=256, forward_timeout_s=120,
            settings=dataclasses.replace(repro.settings.current(), trace=True),
        )
        requests = build_requests(160, networks=list(SERVE_NETWORKS), seed=5)

        async def _go():
            service = ShardedService(
                det_config(), tier=tier, cache_dir=cache_dir
            )
            await service.start()
            try:
                result = await run_load(service, requests)
                pids = set(service.shard_pids().values())
                answered = await service.collect_obs()
                counters = obs.get_metrics().snapshot()["counters"]
                events = obs.drain_events()
            finally:
                await service.stop()
            return result, pids, answered, counters, events

        result, pids, answered, counters, events = asyncio.run(_go())
        obs.reset_tracing()
        assert all(r.status == "ok" for r in result.responses.values())
        assert answered == 2
        assert len(pids) == 2
        for pid in pids:
            spans = [event for event in events if event["pid"] == pid]
            assert len(json.dumps(spans)) > 64 * 1024, pid
        assert counters.get("serve.completed") == len(requests)
        assert counters.get("router.deaths", 0) == 0

    def test_arena_size_counts_once_across_shards(self, cache_dir):
        obs.reset_metrics()
        requests = build_requests(4, networks=list(SERVE_NETWORKS), seed=7)

        async def _go():
            service = ShardedService(
                det_config(), tier=ShardTierConfig(shards=2),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                arena_bytes = service.arena.manifest["bytes"]
                await run_load(service, requests)
            finally:
                await service.stop()
            return arena_bytes

        arena_bytes = asyncio.run(_go())
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["counters"]["engine.shared.attached"] == 2
        assert snapshot["gauges"]["engine.shared.bytes.max"] == arena_bytes
        report = metrics_report({"metrics": snapshot})
        assert (
            f"2 attach(es), {arena_bytes / 1e6:.1f} MB arena" in report
        ), report


def assert_views_inside(arena) -> None:
    """Every array of the router's stores is a read-only view into
    ``arena``'s block."""
    bounds = np.lib.array_utils.byte_bounds
    low, high = bounds(np.frombuffer(arena.shm.buf, dtype=np.uint8))
    for store in arena.stores.values():
        for arr in (*store.weights.values(), *store.biases.values()):
            start, end = bounds(arr)
            assert low <= start and end <= high
            assert not arr.flags.writeable


class TestOneWeightCopy:
    """The arena is the tier's only copy of the weights: the router
    computes on its views, and forked shards inherit no private copy."""

    def test_router_binds_views_and_forks_no_private_copy(
        self, cache_dir, monkeypatch
    ):
        import repro.experiments.context as context_module
        from repro.serve.router import ShardedService as Service

        drawn: list[weakref.ref] = []
        original_draw = context_module.draw_weights

        def recording_draw(networks, rng):
            stores = original_draw(networks, rng)
            drawn.extend(
                weakref.ref(arr)
                for store in stores
                for arr in (*store.weights.values(), *store.biases.values())
            )
            return stores

        alive_at_spawn: list[int] = []
        original_spawn = Service._spawn

        def checking_spawn(self, index):
            if not alive_at_spawn:
                alive_at_spawn.append(sum(ref() is not None for ref in drawn))
            return original_spawn(self, index)

        monkeypatch.setattr(context_module, "draw_weights", recording_draw)
        monkeypatch.setattr(Service, "_spawn", checking_spawn)
        requests = build_requests(4, networks=list(SERVE_NETWORKS), seed=5)

        async def _go():
            service = ShardedService(
                det_config(), tier=ShardTierConfig(shards=2),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                await run_load(service, requests)
                stores = [
                    service.repo.entry(name).store
                    for name in service.repo.networks
                ]
                assert stores == [
                    service.arena.stores[name] for name in service.repo.networks
                ]
                assert_views_inside(service.arena)
            finally:
                await service.stop()

        asyncio.run(_go())
        assert drawn, "draw_weights never ran"
        assert alive_at_spawn == [0]

    def test_forked_shards_hold_less_anonymous_memory_than_the_arena(
        self, cache_dir, tmp_path
    ):
        """A shard forked from a router that kept a private copy of the
        weights shows it as anonymous memory larger than the arena.  Run
        through loadgen in a fresh process: a shard forked from this
        test process would inherit everything earlier tests allocated."""
        if process_rss_kb(os.getpid()) is None:
            pytest.skip("no /proc/<pid>/status")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env["CNVLUTIN_CACHE_DIR"] = str(cache_dir)
        report_path = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.serve.cli", "loadgen",
                "--requests", "16", "--scale", "tiny",
                "--networks", ",".join(SERVE_NETWORKS), "--deterministic",
                "--queue-limit", "256", "--shards", "2",
                "--sweep-groups", "4", "--json", str(report_path),
            ],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(report_path.read_text())
        arena = report["metrics"]["gauges"]["engine.shared.bytes.max"]
        shards = {
            name: rss for name, rss in report["memory"].items()
            if name.startswith("shard")
        }
        assert len(shards) == 2, report["memory"]
        for name, rss in shards.items():
            assert rss["rss_anon_kb"] * 1024 < arena, (name, rss, arena)

    def test_concurrent_quarantines_republish_once_from_the_seed(
        self, cache_dir
    ):
        from repro.serve.shard import _corrupt_arena

        obs.reset_metrics()

        async def _go():
            service = ShardedService(
                det_config(), tier=ShardTierConfig(shards=2),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                first = service.arena
                crcs = [segment[3] for segment in first._segments()]
                _corrupt_arena(first)
                clients = list(service._clients.values())
                await asyncio.gather(
                    *(service._quarantine(client, "crc") for client in clients)
                )
                counters = obs.get_metrics().counters
                assert counters.get("integrity.republishes") == 1
                assert service.arena is not first
                assert [s[3] for s in service.arena._segments()] == crcs
                assert service.arena.verify() == []
                assert_views_inside(service.arena)
                assert all(
                    service.repo.entry(name).store is service.arena.stores[name]
                    for name in service.repo.networks
                )
                request = ServeRequest(
                    id="healed", kind="classify", network=SERVE_NETWORKS[0],
                    image_index=0,
                )
                response = await service.submit(request)
            finally:
                await service.stop()
            return service, request, response

        service, request, response = asyncio.run(_go())
        assert response.status == "ok", response.payload
        assert canonical_response_bytes(response) == canonical_response_bytes(
            direct_response(fresh_repo(service), request)
        )

    def test_arena_corrupted_before_the_first_canary_is_never_golden(
        self, cache_dir
    ):
        from repro.serve.shard import _corrupt_arena

        obs.reset_metrics()
        network = SERVE_NETWORKS[0]

        async def _go():
            service = ShardedService(
                det_config(), tier=ShardTierConfig(shards=1),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                _corrupt_arena(service.arena)
                await service.run_canary()
            finally:
                await service.stop()
            return service

        service = asyncio.run(_go())
        expected = canonical_response_bytes(
            direct_response(
                fresh_repo(service), service._canary_request(network)
            )
        )
        assert service._golden[network] == expected
        counters = obs.get_metrics().counters
        assert counters.get("integrity.republishes") == 1
        assert counters.get("integrity.detected.canary", 0) >= 1


class TestRouterValidation:
    def test_unknown_network_and_bad_probe_index(self, cache_dir):
        async def _go():
            service = ShardedService(
                det_config(), tier=ShardTierConfig(shards=1),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                bad_net = await service.submit(
                    ServeRequest(id="a", kind="classify", network="nope")
                )
                bad_idx = await service.submit(
                    ServeRequest(
                        id="b", kind="classify", network="alex",
                        image_index=10_000,
                    )
                )
            finally:
                await service.stop()
            return bad_net, bad_idx

        bad_net, bad_idx = asyncio.run(_go())
        assert bad_net.status == "error"
        assert "unknown network" in bad_net.payload["error"]
        assert bad_idx.status == "error"
        assert "out of range" in bad_idx.payload["error"]

    def test_backlog_sheds_at_router(self, cache_dir):
        async def _go():
            service = ShardedService(
                det_config(),
                tier=ShardTierConfig(shards=1, backlog=2),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                # Saturate the accounting the router sheds on.
                client = service._clients[0]
                client.waiting = 2
                outcome = service.try_submit(
                    ServeRequest(id="s", kind="classify", network="alex")
                )
                client.waiting = 0
            finally:
                await service.stop()
            return outcome

        response = asyncio.run(_go())
        assert response.status == "shed"
        assert response.code == 429
        assert response.payload["backlog"] == 2

    def test_a_request_walks_the_ring_once(self, cache_dir, monkeypatch):
        """Admission and the first forward share one ring walk: the
        backlog check reads its head and the forward routes on it."""
        walks = []
        walk = HashRing.preference

        def counted(ring, key, limit=None):
            walks.append(key)
            return walk(ring, key, limit)

        async def _go():
            service = ShardedService(
                det_config(), tier=ShardTierConfig(shards=2),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                monkeypatch.setattr(HashRing, "preference", counted)
                return await service.submit(
                    ServeRequest(id="w", kind="classify", network="alex")
                )
            finally:
                monkeypatch.undo()
                await service.stop()

        response = asyncio.run(_go())
        assert response.status == "ok"
        assert len(walks) == 1


class TestSweepAffinity:
    def test_repeat_probe_traffic_hits_engine_caches(self, cache_dir):
        obs.reset_metrics()
        # Two full cycles over the groups: the second cycle must replay
        # the shards' threshold-signature caches.
        requests = build_sweep_requests(
            16, list(SERVE_NETWORKS), variants_per_network=4,
            kinds=["classify"],
        )
        result, _ = drive_sharded(
            det_config(), ShardTierConfig(shards=2, forward_timeout_s=120),
            requests, cache_dir,
        )
        assert summarize(result)["ok"] == len(requests)
        counters = obs.get_metrics().counters  # includes merged shard obs
        assert counters.get("engine.cache.hits", 0) > 0
        assert counters.get("engine.shared.attached", 0) >= 2
        assert counters.get("shard.requests", 0) >= len(requests)
        assert counters.get("router.forwarded", 0) == len(requests)


class TestSpawnStartMethod:
    def test_spawn_smoke(self, cache_dir):
        # A spawned shard inherits nothing: a knob only its spec carries
        # (integrity) must still reach it, and leave the router alone.
        obs.reset_metrics()
        router_settings = repro.settings.install(
            dataclasses.replace(repro.settings.current(), integrity="off")
        )
        requests = build_requests(2, ["alex"], kinds=["classify"])
        result, service = drive_sharded(
            det_config(networks=("alex",)),
            ShardTierConfig(
                shards=1, start_method="spawn",
                connect_timeout_s=60, forward_timeout_s=120,
                settings=dataclasses.replace(
                    router_settings, integrity="always"
                ),
            ),
            requests, cache_dir,
        )
        counters = obs.get_metrics().counters  # merged from the shard
        assert counters.get("integrity.checks.abft", 0) > 0
        assert repro.settings.current() is router_settings
        repo = fresh_repo(service)
        for request in requests:
            response = result.responses[request.id]
            assert response.status == "ok"
            reference = direct_response(repo, request)
            assert canonical_response_bytes(response) == (
                canonical_response_bytes(reference)
            )


class TestBlasBudget:
    """The router decides the tier's BLAS count before it calibrates, and
    every shard, forked or spawned, computes under that count."""

    @pytest.mark.parametrize(
        "deterministic", [True, False], ids=["deterministic", "concurrent"]
    )
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_every_shard_reports_the_router_count(
        self, cache_dir, fresh_blas, start_method, deterministic
    ):
        async def _go():
            service = ShardedService(
                det_config(networks=("alex",), deterministic=deterministic),
                tier=ShardTierConfig(
                    shards=2, start_method=start_method, connect_timeout_s=60
                ),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                return [
                    (await client.call({"op": "ping"}, timeout_s=30))[
                        "blas_threads"
                    ]
                    for client in service._clients.values()
                ]
            finally:
                await service.stop()

        shard_counts = asyncio.run(_go())
        router = blas.threads()
        if fresh_blas is not None:
            workers = 1 if deterministic else 2
            assert router == max(1, fresh_blas // (2 * workers))
        assert shard_counts == [router, router]


class TestShardHop:
    """The router↔shard hop: length-prefixed pickle frames that only the
    router's own user can reach."""

    def test_frames_round_trip_split_and_past_64_kib(self):
        async def _go():
            reader = asyncio.StreamReader()
            big = {"rid": 1, "events": [f"{i:03d}" * 400 for i in range(200)]}
            wire = (
                encode_frame(big)
                + (4).to_bytes(4, "big") + b"junk"
                + encode_frame({"rid": 2, "op": "ping"})
            )
            for start in range(0, len(wire), 7_000):  # arrives in pieces
                reader.feed_data(wire[start:start + 7_000])
            reader.feed_data(encode_frame({"rid": 3})[:-1])  # cut short
            reader.feed_eof()
            first = await read_frame(reader)
            with pytest.raises(BadFrame):
                await read_frame(reader)
            second = await read_frame(reader)
            return big, first, second, await read_frame(reader)

        big, first, second, last = asyncio.run(_go())
        assert len(encode_frame(big)) > 64 * 1024
        assert first == big
        assert second == {"rid": 2, "op": "ping"}
        assert last is None

    def test_shard_sockets_live_in_a_private_directory(self, cache_dir):
        async def _go():
            service = ShardedService(
                det_config(networks=("alex",)),
                tier=ShardTierConfig(shards=2), cache_dir=cache_dir,
            )
            await service.start()
            try:
                socket_dir = Path(service._socket_dir)
                mode = stat.S_IMODE(os.stat(socket_dir).st_mode)
                sockets = [
                    Path(client.socket_path)
                    for client in service._clients.values()
                ]
                kinds = [stat.S_ISSOCK(os.stat(p).st_mode) for p in sockets]
            finally:
                await service.stop()
            return socket_dir, mode, sockets, kinds

        socket_dir, mode, sockets, kinds = asyncio.run(_go())
        # Only the router's user may connect: the shards unpickle
        # whatever arrives on these sockets.
        assert mode == 0o700
        assert len(sockets) == 2 and all(kinds)
        assert all(path.parent == socket_dir for path in sockets)

    def test_shard_drops_a_bad_frame_and_answers_the_next(self, cache_dir):
        async def _go():
            service = ShardedService(
                det_config(networks=("alex",)),
                tier=ShardTierConfig(shards=1), cache_dir=cache_dir,
            )
            await service.start()
            try:
                client = service._clients[0]
                reader, writer = await asyncio.open_unix_connection(
                    client.socket_path
                )
                body = b"not a pickle"
                writer.write(len(body).to_bytes(4, "big") + body)
                writer.write(encode_frame({"rid": 41, "op": "ping"}))
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), 30)
                writer.close()
                return reply, client.process.pid
            finally:
                await service.stop()

        reply, pid = asyncio.run(_go())
        assert reply["rid"] == 41 and reply["ok"] is True
        assert reply["pid"] == pid


class TestShardClient:
    """A reply future never outlives the call that registered it."""

    def test_cancelled_calls_leave_no_pending_future(self):
        from repro.serve.router import _ShardClient

        class BlockedWriter:
            """A transport whose drain() never completes."""

            def write(self, frame: bytes) -> None:
                pass

            async def drain(self) -> None:
                await asyncio.Event().wait()

        async def _go():

            client = _ShardClient(0, "unused.sock", window=4)
            client.alive = True
            client._writer = BlockedWriter()
            in_drain = asyncio.create_task(client.call({"op": "ping"}, 5.0))
            on_lock = asyncio.create_task(client.call({"op": "ping"}, 5.0))
            await asyncio.sleep(0)
            assert client._write_lock.locked()
            assert len(client._pending) == 2
            on_lock.cancel()
            with pytest.raises(asyncio.CancelledError):
                await on_lock
            assert len(client._pending) == 1
            in_drain.cancel()
            with pytest.raises(asyncio.CancelledError):
                await in_drain
            return client._pending

        assert asyncio.run(_go()) == {}
