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
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import obs
from repro.nn.inference import WeightStore
from repro.nn.shm import SharedWeightArena, process_pss_kb
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

SERVE_NETWORKS = ("alex", "cnnS")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One artifact-cache directory for the whole module: calibration is
    computed by the first service start and reused by every later one."""
    return tmp_path_factory.mktemp("sharded-artifacts")


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
        for request in requests:
            response = result.responses[request.id]
            assert response.status == "ok", response.payload
            reference = direct_response(service.repo, request)
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
                faults="shard:serve=crash@3",
                fault_state=str(tmp_path / "fault-state"),
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
        requests = build_requests(2, ["alex"], kinds=["classify"])
        result, service = drive_sharded(
            det_config(networks=("alex",)),
            ShardTierConfig(
                shards=1, start_method="spawn",
                connect_timeout_s=60, forward_timeout_s=120,
            ),
            requests, cache_dir,
        )
        for request in requests:
            response = result.responses[request.id]
            assert response.status == "ok"
            reference = direct_response(service.repo, request)
            assert canonical_response_bytes(response) == (
                canonical_response_bytes(reference)
            )


class TestShardClient:
    """A reply future never outlives the call that registered it."""

    def test_cancelled_calls_leave_no_pending_future(self):
        from repro.serve.router import _ShardClient

        class BlockedWriter:
            """A transport whose drain() never completes."""

            def write(self, line: bytes) -> None:
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
