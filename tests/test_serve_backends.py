"""Serving-tier backend selection: differential + validation tests.

PR-10 adds a ``backend`` field to timing requests: a registered backend
name routes the request's conv-input activations through that backend's
network simulator instead of the default CNV-vs-baseline pair.  The
guarantees pinned here:

* **Differential**: timing requests naming *every* registered backend,
  driven through the 2-shard consistent-hash tier (micro-batching, wire
  transport, shard-side pruned-weight construction from read-only
  shared-memory views), are byte-identical — canonical bytes — to
  direct single-process simulation of the same request.
* **Validation**: an unregistered backend name answers as a 500-style
  validation error at the router, never reaches a shard, and the tier
  keeps serving valid requests afterwards.
* **Schema**: ``backend`` survives the JSON wire round-trip, is
  rejected on non-timing kinds, and absent fields stay absent (the
  default payload is byte-compatible with the pre-registry wire form).
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.backends import Backend, backend_names
from repro.serve import (
    ModelRepository,
    ServeRequest,
    ShardTierConfig,
    ShardedService,
    canonical_response_bytes,
    direct_response,
    execute_batch,
)
from test_serve_sharded import det_config, drive_sharded

SERVE_NETWORKS = ("alex", "cnnS")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("backend-serve-artifacts")


def backend_workload() -> list[ServeRequest]:
    """One probe and one seeded timing request per registered backend,
    alternating networks, plus a backend-less request per network (the
    legacy payload must keep flowing through the same batches)."""
    requests = []
    for index, name in enumerate(backend_names()):
        network = SERVE_NETWORKS[index % len(SERVE_NETWORKS)]
        requests.append(
            ServeRequest(
                id=f"probe-{name}", kind="timing", network=network,
                image_index=0, backend=name,
            )
        )
        requests.append(
            ServeRequest(
                id=f"seed-{name}", kind="timing", network=network,
                image_seed=7 + index, backend=name,
            )
        )
    for network in SERVE_NETWORKS:
        requests.append(
            ServeRequest(id=f"legacy-{network}", kind="timing",
                         network=network, image_index=0)
        )
    return requests


class TestBackendDifferential:
    def test_sharded_backend_timing_byte_identical_to_direct(self, cache_dir):
        requests = backend_workload()
        result, service = drive_sharded(
            det_config(), ShardTierConfig(shards=2, forward_timeout_s=120),
            requests, cache_dir,
        )
        assert len(result.responses) == len(requests)
        for request in requests:
            response = result.responses[request.id]
            assert response.status == "ok", (request.id, response.payload)
            reference = direct_response(service.repo, request)
            assert canonical_response_bytes(response) == (
                canonical_response_bytes(reference)
            ), request.id

    def test_backend_payload_names_backend_and_beats_nothing_silently(
        self, cache_dir
    ):
        """Responses for backend= requests carry the backend name and
        backend_cycles; backend-less responses keep the legacy keys."""
        requests = backend_workload()
        result, _ = drive_sharded(
            det_config(), ShardTierConfig(shards=2, forward_timeout_s=120),
            requests, cache_dir,
        )
        for request in requests:
            payload = result.responses[request.id].payload
            if request.backend is None:
                assert set(payload) == {
                    "baseline_cycles", "cnv_cycles", "speedup",
                }
            else:
                assert payload["backend"] == request.backend
                assert set(payload) == {
                    "backend", "baseline_cycles", "backend_cycles", "speedup",
                }
                assert payload["speedup"] == pytest.approx(
                    payload["baseline_cycles"] / payload["backend_cycles"]
                )
                if request.backend == "baseline":
                    assert payload["backend_cycles"] == (
                        payload["baseline_cycles"]
                    )


class TestProbeTimingCache:
    def test_probe_request_and_context_timing_share_one_simulation(
        self, tmp_path, monkeypatch
    ):
        """A probe timing request reads the same cache entry as
        ``repo.context.timing`` for its key, in either order."""
        simulated = []
        network_timing = Backend.network_timing

        def counting_timing(backend, *args, **kwargs):
            simulated.append(backend.name)
            return network_timing(backend, *args, **kwargs)

        monkeypatch.setattr(Backend, "network_timing", counting_timing)
        repo = ModelRepository(det_config().paper_config(tmp_path))
        thresholds = {"conv2": 0.05}
        probe = ServeRequest(
            id="p", kind="timing", network="alex", image_index=0,
            thresholds=thresholds, backend="scnn",
        )
        [response] = execute_batch(repo, [probe])
        assert sorted(simulated) == ["baseline", "scnn"]
        timing = repo.context.timing("scnn", "alex", thresholds, 0)
        assert sorted(simulated) == ["baseline", "scnn"]
        assert response.payload["backend_cycles"] == timing.total_cycles

        cnv = repo.context.timing("cnv", "alex", thresholds, 0)
        simulated.clear()
        [legacy] = execute_batch(
            repo, [dataclasses.replace(probe, id="q", backend=None)]
        )
        assert simulated == []
        assert legacy.payload["cnv_cycles"] == cnv.total_cycles


class TestBackendValidation:
    def test_unknown_backend_errors_at_router_and_tier_keeps_serving(
        self, cache_dir
    ):
        async def _go():
            service = ShardedService(
                det_config(), tier=ShardTierConfig(
                    shards=2, forward_timeout_s=120,
                ),
                cache_dir=cache_dir,
            )
            await service.start()
            try:
                bad = await service.submit(
                    ServeRequest(
                        id="bad", kind="timing", network="alex",
                        image_index=0, backend="not-a-backend",
                    )
                )
                # The error must not have crashed or wedged a shard: the
                # very next valid request still answers.
                good = await service.submit(
                    ServeRequest(
                        id="good", kind="timing", network="alex",
                        image_index=0, backend="cnv2",
                    )
                )
            finally:
                await service.stop()
            return bad, good

        bad, good = asyncio.run(_go())
        assert bad.status == "error"
        assert "unknown backend 'not-a-backend'" in bad.payload["error"]
        for name in backend_names():
            assert name in bad.payload["error"]
        assert good.status == "ok"
        assert good.payload["backend"] == "cnv2"


class TestRequestSchema:
    def test_backend_round_trips_through_wire_form(self):
        request = ServeRequest(
            id="r", kind="timing", network="alex", image_index=1,
            backend="scnn",
        )
        payload = request.to_payload()
        assert payload["backend"] == "scnn"
        assert ServeRequest.from_json(request.to_json()) == request

    def test_backend_absent_keeps_legacy_wire_form(self):
        request = ServeRequest(id="r", kind="timing", network="alex")
        assert "backend" not in request.to_payload()
        parsed = ServeRequest.from_payload(request.to_payload())
        assert parsed.backend is None

    @pytest.mark.parametrize("kind", ["classify", "zero_fraction"])
    def test_backend_rejected_on_non_timing_kinds(self, kind):
        with pytest.raises(ValueError, match="timing requests only"):
            ServeRequest(id="r", kind=kind, network="alex", backend="cnv")

    def test_unknown_fields_still_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            ServeRequest.from_payload(
                {"id": "r", "kind": "timing", "network": "alex",
                 "backned": "cnv"}
            )
