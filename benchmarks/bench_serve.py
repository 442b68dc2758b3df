"""Serving benchmark: micro-batching vs batch-size-1 under offered load.

Drives the same deterministic mixed workload (classify / zero-fraction /
timing across two networks) through two in-process services at several
open-loop offered loads:

* ``batched``  — the real configuration (dynamic micro-batcher,
  ``max_batch`` 8);
* ``batch1``   — identical except ``max_batch`` 1, i.e. one forward per
  request (the no-batching strawman).

Correctness is cross-checked at every load: the canonical response
bytes of both modes must agree request for request, and both must agree
with direct one-at-a-time inference (:func:`repro.serve.models.
direct_response`) — micro-batching must win on throughput, never on
answers.

Run standalone to (re)generate ``BENCH_serve.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py

or under pytest-benchmark with the rest of the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.serve.loadgen import build_requests, run_load, summarize
from repro.serve.models import ModelRepository, direct_response
from repro.serve.requests import canonical_response_bytes
from repro.serve.service import InferenceService, ServeConfig

BENCH_NETWORKS = ("alex", "cnnS")
BENCH_REQUESTS = 60
#: Open-loop offered loads (requests/second), all at or beyond the
#: single-worker tiny-scale capacity so queueing (where micro-batching
#: pays) is visible at every committed point.
OFFERED_LOADS = (60.0, 180.0, 360.0)
#: Micro-batching must beat batch-size-1 throughput at the top offered
#: load by at least this factor (the PR's acceptance floor).
THROUGHPUT_FLOOR = 1.05
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


#: The overload point: offered load far beyond capacity against a tight
#: queue bound, so the shed rate (the explicit-backpressure answer)
#: becomes visible in the committed table.
OVERLOAD_RPS = 600.0
OVERLOAD_QUEUE_LIMIT = 8


def _config(max_batch: int, queue_limit: int = 256) -> ServeConfig:
    return ServeConfig(
        scale="tiny",
        networks=BENCH_NETWORKS,
        max_batch=max_batch,
        queue_limit=queue_limit,
        workers=1,
        use_cache=False,
    )


async def _drive(
    repo: ModelRepository, max_batch: int, rate: float,
    queue_limit: int = 256,
) -> dict:
    service = InferenceService(_config(max_batch, queue_limit), repo=repo)
    requests = build_requests(
        BENCH_REQUESTS, networks=list(BENCH_NETWORKS), seed=3
    )
    await service.start()
    try:
        result = await run_load(service, requests, rate=rate, seed=3)
    finally:
        await service.stop()
    summary = summarize(result)
    summary["responses"] = {
        rid: canonical_response_bytes(resp).decode("utf-8")
        for rid, resp in result.responses.items()
    }
    return summary


def run_bench() -> dict:
    repo = ModelRepository(_config(8).paper_config())
    # Warm calibration + the first-forward costs once, outside timing.
    warm = build_requests(2, networks=list(BENCH_NETWORKS), seed=3)
    for request in warm:
        direct_response(repo, request)

    reference = {
        request.id: canonical_response_bytes(
            direct_response(repo, request)
        ).decode("utf-8")
        for request in build_requests(
            BENCH_REQUESTS, networks=list(BENCH_NETWORKS), seed=3
        )
    }

    points = []
    for rate in OFFERED_LOADS:
        batched = asyncio.run(_drive(repo, 8, rate))
        batch1 = asyncio.run(_drive(repo, 1, rate))
        for mode, summary in (("batched", batched), ("batch1", batch1)):
            mismatched = [
                rid
                for rid, canon in summary.pop("responses").items()
                if canon != reference[rid]
            ]
            assert not mismatched, (
                f"{mode}@{rate}rps diverged from direct inference: "
                f"{mismatched[:3]}"
            )
        points.append(
            {
                "offered_rps": rate,
                "batched": batched,
                "batch1": batch1,
                "throughput_gain": round(
                    batched["throughput_rps"] / batch1["throughput_rps"], 2
                )
                if batch1["throughput_rps"]
                else float("inf"),
            }
        )

    # Overload: offered load far beyond capacity, tight queue bound.
    # Shed requests answer immediately with 429-style responses; the
    # accepted ones must still match direct inference byte for byte.
    overload = asyncio.run(
        _drive(repo, 4, OVERLOAD_RPS, queue_limit=OVERLOAD_QUEUE_LIMIT)
    )
    mismatched = [
        rid
        for rid, canon in overload.pop("responses").items()
        if json.loads(canon)["status"] == "ok" and canon != reference[rid]
    ]
    assert not mismatched, (
        f"accepted requests diverged under overload: {mismatched[:3]}"
    )
    assert overload["shed"] > 0, "overload point produced no shedding"
    overload["offered_rps"] = OVERLOAD_RPS
    overload["queue_limit"] = OVERLOAD_QUEUE_LIMIT

    top = points[-1]
    return {
        "scale": "tiny",
        "networks": list(BENCH_NETWORKS),
        "requests_per_point": BENCH_REQUESTS,
        "max_batch": 8,
        "correctness": "canonical bytes equal to direct inference at every load",
        "points": points,
        "overload": overload,
        "top_load_throughput_gain": top["throughput_gain"],
        "throughput_floor": THROUGHPUT_FLOOR,
    }


def test_serve_bench(benchmark):
    from conftest import run_once

    report = run_once(benchmark, run_bench)
    print()
    print(json.dumps(report, indent=2))
    assert report["top_load_throughput_gain"] >= THROUGHPUT_FLOOR


def main() -> int:
    report = run_bench()
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if report["top_load_throughput_gain"] < THROUGHPUT_FLOOR:
        print(
            f"FAIL: micro-batching throughput gain "
            f"{report['top_load_throughput_gain']}x below the "
            f"{THROUGHPUT_FLOOR}x floor at the top offered load"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
