"""Async batched inference serving over the reproduction's engine.

The production-facing front end the ROADMAP's north star asks for:
classify / zero-fraction / timing requests against any of the six paper
networks, coalesced by a work-conserving micro-batcher (a free worker
takes the oldest compatible group at once; requests coalesce only while
every worker is busy) onto the batch-axis forward engine, executed on a
bounded worker pool with :mod:`repro.reliability` retries,
:mod:`repro.obs` spans/metrics (``serve.*``), explicit backpressure (a
bounded backlog + 429-style shed responses), per-request deadlines, and
a deterministic mode whose
batched outputs are byte-identical to unbatched direct inference.

The **sharded tier** (:mod:`repro.serve.router` /
:mod:`repro.serve.shard`) scales that service across N processes behind
a consistent-hash router: each shard owns a stable slice of the
``(network, thresholds)`` key space (so its engine prefix cache stays
hot), all shards share one read-only shared-memory copy of the
calibrated weights, dead shards fail over and respawn, and deterministic
mode stays byte-identical to direct inference at any shard count.

Entry points: the :class:`InferenceService` / :class:`ShardedService`
APIs, and the ``repro-serve`` CLI (:mod:`repro.serve.cli`) with
``serve`` and ``loadgen`` subcommands (``--shards N`` selects the
sharded tier).
"""

from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.hashring import HashRing, request_key
from repro.serve.loadgen import (
    LoadResult,
    build_requests,
    build_sweep_requests,
    percentile,
    run_load,
    summarize,
)
from repro.serve.models import (
    ModelRepository,
    direct_response,
    execute_batch,
    request_image,
)
from repro.serve.requests import (
    REQUEST_KINDS,
    STATUS_CODES,
    ServeRequest,
    ServeResponse,
    canonical_response_bytes,
)
from repro.serve.router import ShardDead, ShardedService, ShardTierConfig
from repro.serve.service import InferenceService, PendingRequest, ServeConfig
from repro.serve.shard import ShardSpec, run_shard

__all__ = [
    "REQUEST_KINDS",
    "STATUS_CODES",
    "ServeRequest",
    "ServeResponse",
    "canonical_response_bytes",
    "ModelRepository",
    "request_image",
    "execute_batch",
    "direct_response",
    "Batch",
    "MicroBatcher",
    "ServeConfig",
    "InferenceService",
    "PendingRequest",
    "HashRing",
    "request_key",
    "ShardTierConfig",
    "ShardedService",
    "ShardDead",
    "ShardSpec",
    "run_shard",
    "LoadResult",
    "build_requests",
    "build_sweep_requests",
    "run_load",
    "percentile",
    "summarize",
]
