"""Sharded integrity chaos: detect → quarantine → republish → respawn.

The silent-data-corruption guarantees of the serving tier, end to end:

* **Weight flips** (``mem:weights=corrupt@N`` flips a shared-arena bit
  mid-run): zero corrupted response bytes are ever accepted (every ok
  response is canonical-byte-identical to direct inference), the flip
  is detected by the shard's pre-reply CRC recheck, the shard is
  quarantined, the arena republished from calibrated stores, and the
  shard respawned — all without manual intervention.
* **Activation flips** (``mem:activations=corrupt@N`` perturbs a kernel
  output): the ABFT checksum catches it before the response forms; the
  service-level retry recomputes cleanly, so the response is *still*
  byte-identical — a transient heals in place, no quarantine.
* **Canary**: a shard serving wrong bytes with no self-detection (CRC
  gate off) is caught by the router's golden-request sweep and healed
  through the same quarantine path.
* **Graceful drain**: SIGTERM on ``repro-serve serve`` stops accepting,
  completes and flushes every accepted request, and exits 0.

Faults travel via ``ShardTierConfig.faults`` (shard env only) — the
router process stays clean, so its direct-inference reference and its
calibration can never be corrupted by the injection itself.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.settings
from repro import obs
from repro.nn.shm import ARENA_PREFIX
from repro.reliability import RetryPolicy
from repro.serve import (
    ServeConfig,
    ServeRequest,
    ShardTierConfig,
    ShardedService,
    build_sweep_requests,
    canonical_response_bytes,
    direct_response,
    run_load,
)
from repro.settings import Settings

SERVE_NETWORKS = ("alex",)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("integrity-artifacts")


@pytest.fixture(scope="module")
def warm_cache(cache_dir):
    """Populate the calibration artifact cache with no faults in any
    environment, so later faulted runs load calibration instead of
    computing it (the injection must never corrupt the reference)."""
    from repro.experiments.context import ExperimentContext
    from repro.serve.models import ModelRepository

    context = ExperimentContext(det_config().paper_config(cache_dir))
    repo = ModelRepository(context=context)
    for name in repo.networks:
        repo.entry(name)
    return cache_dir


def det_config(**overrides) -> ServeConfig:
    kwargs = dict(
        scale="tiny", networks=SERVE_NETWORKS, deterministic=True,
        queue_limit=256,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def heal_policy() -> RetryPolicy:
    """Forward retries generous enough to ride out quarantine+respawn."""
    return RetryPolicy(
        max_attempts=12, backoff_base=0.05, backoff_max=2.0, seed=0
    )


def drive(tier, requests, cache_dir, policy=None):
    async def _go():
        service = ShardedService(
            det_config(), tier=tier, policy=policy, cache_dir=cache_dir,
        )
        await service.start()
        try:
            result = await run_load(service, requests)
        finally:
            await service.stop()
        return result, service

    return asyncio.run(_go())


def assert_all_ok_and_byte_identical(result, service, requests):
    by_id = {}
    for request in requests:
        by_id.setdefault(request.id, request)
    for rid, response in result.responses.items():
        assert response.status == "ok", (rid, response.payload)
        direct = direct_response(service.repo, by_id[rid])
        assert canonical_response_bytes(response) == (
            canonical_response_bytes(direct)
        ), f"corrupted bytes accepted for {rid}"


def integrity_counters():
    counters = obs.get_metrics().snapshot()["counters"]
    return {
        name: value for name, value in counters.items()
        if name.startswith(("integrity.", "router."))
    }


class TestWeightFlipHealing:
    def test_flip_detected_quarantined_republished_respawned(
        self, warm_cache, tmp_path
    ):
        obs.reset_metrics()
        # A stale segment from a "dead" process: start() must sweep it.
        stale = Path("/dev/shm") / f"{ARENA_PREFIX}999999999-feedface"
        stale.write_bytes(b"x")
        state = tmp_path / "fault-state"
        state.mkdir()
        tier = ShardTierConfig(shards=2, settings=Settings(
            faults="mem:weights=corrupt@3", fault_state=state,
            integrity="always", integrity_recheck_s=0.0,
        ))
        requests = build_sweep_requests(
            20, networks=list(SERVE_NETWORKS), variants_per_network=2,
        )
        result, service = drive(
            tier, requests, warm_cache, policy=heal_policy()
        )
        assert not stale.exists(), "start() did not sweep the stale arena"
        assert_all_ok_and_byte_identical(result, service, requests)
        counters = integrity_counters()
        assert counters.get("integrity.detected.crc", 0) >= 1
        assert counters.get("integrity.quarantines", 0) >= 1
        assert counters.get("integrity.quarantines.crc", 0) >= 1
        assert counters.get("integrity.republishes", 0) >= 1
        assert counters.get("router.respawns", 0) >= 1
        assert counters.get("integrity.arena.swept", 0) >= 1


class TestActivationFlipTransient:
    def test_abft_detects_and_retry_heals_in_place(
        self, warm_cache, tmp_path
    ):
        obs.reset_metrics()
        state = tmp_path / "fault-state"
        state.mkdir()
        tier = ShardTierConfig(shards=2, settings=Settings(
            faults="mem:activations=corrupt@6", fault_state=state,
            integrity="always", integrity_recheck_s=0.0,
        ))
        requests = build_sweep_requests(
            16, networks=list(SERVE_NETWORKS), variants_per_network=2,
        )
        result, service = drive(
            tier, requests, warm_cache, policy=heal_policy()
        )
        assert_all_ok_and_byte_identical(result, service, requests)
        counters = integrity_counters()
        assert counters.get("integrity.detected.abft", 0) >= 1
        # A transient heals via the service retry: no quarantine churn.
        assert counters.get("integrity.quarantines", 0) == 0
        assert counters.get("integrity.republishes", 0) == 0


class TestCanarySweep:
    def test_canary_catches_undetected_corruption(self, warm_cache):
        from repro.serve.shard import _corrupt_arena

        obs.reset_metrics()
        # No shard-side integrity: the shards serve corrupt bytes with
        # no self-detection — only the router's canary can catch them.
        tier = ShardTierConfig(shards=2)

        async def _go():
            service = ShardedService(
                det_config(), tier=tier, policy=heal_policy(),
                cache_dir=warm_cache,
            )
            await service.start()
            try:
                _corrupt_arena(service.arena)  # shared pages: all shards
                probes = await service.run_canary()
                assert probes >= 1
                counters = integrity_counters()
                assert counters.get("integrity.detected.canary", 0) >= 1
                assert counters.get("integrity.quarantines.canary", 0) >= 1
                assert counters.get("integrity.republishes", 0) == 1
                # The healed tier answers clean bytes again.
                request = ServeRequest(
                    id="post-heal", kind="classify",
                    network=SERVE_NETWORKS[0], image_index=0,
                )
                response = await service.submit(request)
                assert response.status == "ok"
                direct = direct_response(service.repo, request)
                assert canonical_response_bytes(response) == (
                    canonical_response_bytes(direct)
                )
            finally:
                await service.stop()

        asyncio.run(_go())


class TestSpecPassthrough:
    def test_tier_integrity_fields_reach_the_spec(self, tmp_path):
        shard_settings = Settings(integrity="sample:0.5", integrity_recheck_s=2.5)
        service = ShardedService(
            det_config(use_cache=False),
            tier=ShardTierConfig(shards=1, settings=shard_settings),
            cache_dir=tmp_path,
        )
        service._socket_dir = str(tmp_path)

        class FakeArena:
            manifest = {"networks": {}}

        service.arena = FakeArena()
        assert service._spec(0).settings is shard_settings
        # No tier override: shards get the router's own settings.
        service.tier = ShardTierConfig(shards=1)
        assert service._spec(0).settings is repro.settings.current()


class TestGracefulDrain:
    def test_sigterm_completes_inflight_and_exits_zero(self, tmp_path):
        """SIGTERM mid-request: all accepted responses arrive, exit 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        env["CNVLUTIN_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve.cli", "serve",
                "--port", "0", "--scale", "tiny", "--networks", "alex",
                "--no-cache",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            port = int(re.search(r":(\d+) ", banner).group(1))
            with socket.create_connection(
                ("127.0.0.1", port), timeout=30
            ) as sock, sock.makefile("r") as reader:
                sock.settimeout(60)
                for index in range(4):
                    sock.sendall(
                        (json.dumps({
                            "id": f"d{index}", "kind": "classify",
                            "network": "alex", "image_seed": index,
                        }) + "\n").encode()
                    )
                time.sleep(0.1)  # requests are in flight
                proc.send_signal(signal.SIGTERM)
                docs = [json.loads(reader.readline()) for _ in range(4)]
            assert {doc["id"] for doc in docs} == {"d0", "d1", "d2", "d3"}
            assert all(doc["status"] == "ok" for doc in docs)
            assert proc.wait(timeout=60) == 0, proc.stderr.read()
            tail = proc.stdout.read()
            assert "drained" in tail, tail
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
