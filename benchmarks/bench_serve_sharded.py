"""Sharded-serving benchmark: throughput scaling from cache affinity.

Drives a threshold-sweep workload (K = 24 distinct (network, pruning
threshold) groups cycling round-robin) through the consistent-hash
sharded tier at 1/2/4/8 shards, all at the 600 rps overload point of
the single-service benchmark, with the per-shard engine cache budget
pinned well below the full sweep's working set.

The mechanism under test is *affinity*, not parallelism — the box has
one core.  The router hashes ``(network, thresholds)`` so each shard
only ever sees its slice of the 24 groups: four shards hold their
slices entirely inside the per-engine ``CNVLUTIN_ENGINE_CACHE_MB``
budget and serve repeats from warm :class:`IncrementalForwardEngine`
state, while one shard cycling through all 24 groups evicts every
entry before it recurs and pays a cold forward per request.

Correctness is cross-checked at every shard count: each ok response's
canonical bytes must equal direct one-at-a-time inference.  Memory is
cross-checked with PSS (``/proc/<pid>/smaps_rollup``), which splits
shared pages across attachers: adding a shard must cost a small
fraction of the first one because weights live once in the shared
arena.

Run standalone to (re)generate ``BENCH_serve_sharded.json``::

    PYTHONPATH=src python benchmarks/bench_serve_sharded.py [--quick]

or under pytest with the rest of the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_sharded.py
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import tempfile
from pathlib import Path

from repro import settings
from repro.nn.shm import process_pss_kb
from repro.serve.loadgen import build_sweep_requests, run_load, summarize
from repro.serve.models import ModelRepository, direct_response
from repro.serve.requests import canonical_response_bytes
from repro.serve.router import ShardedService, ShardTierConfig
from repro.serve.service import ServeConfig

BENCH_NETWORKS = ("alex", "cnnS")
#: 12 ``conv1`` threshold variants per network -> K = 24 groups.
#: Thresholding the *first* conv layer puts the variant in every
#: downstream layer's cache signature, so each group's engine state is
#: fully distinct (~0.30 MB alex / ~0.78 MB cnnS at tiny scale):
#: per-engine working sets of 3.6 MB (alex) and 9.3 MB (cnnS).
VARIANTS_PER_NETWORK = 12
SWEEP_LAYERS = ("conv1",)
#: Chosen so the deterministic hash assignment balances: at this base
#: no shard owns more than 3 cnnS variants (2.33 MB) at 4 or 8 shards.
SWEEP_BASE_THRESHOLD = 0.024
BENCH_REQUESTS = 240
#: Per-engine (per network, per shard process) cache budget in MB.
#: Below both single-shard working sets (3.6 / 9.3 MB -> cyclic access
#: + LRU evicts every group before it recurs, ~0% hits) yet above the
#: worst per-shard slice at 4 and 8 shards (2.33 MB -> fully warm).
ENGINE_CACHE_MB = 3.0
OFFERED_RPS = 600.0
SHARD_COUNTS = (1, 2, 4, 8)
#: Acceptance floors (the ISSUE's criteria).
SPEEDUP_FLOOR = 3.0        # 4-shard vs 1-shard throughput
SHED_CEILING = 0.05        # shed rate at 4 shards
PSS_GROWTH_CEILING = 0.25  # per-added-shard PSS vs single-shard PSS
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve_sharded.json"


def _config() -> ServeConfig:
    return ServeConfig(
        scale="tiny",
        networks=BENCH_NETWORKS,
        max_batch=4,
        queue_limit=1024,
        workers=1,
        use_cache=True,
    )


def _tier(shards: int) -> ShardTierConfig:
    return ShardTierConfig(
        shards=shards,
        window=16,
        backlog=512,
        settings=dataclasses.replace(
            settings.current(), engine_cache_mb=ENGINE_CACHE_MB
        ),
    )


def _requests(count: int):
    return build_sweep_requests(
        count,
        networks=list(BENCH_NETWORKS),
        variants_per_network=VARIANTS_PER_NETWORK,
        kinds=["classify"],
        layers=SWEEP_LAYERS,
        base_threshold=SWEEP_BASE_THRESHOLD,
    )


async def _drive(
    shards: int, cache_dir: str, requests_count: int, warmup_cycles: int
) -> dict:
    service = ShardedService(
        config=_config(), tier=_tier(shards), cache_dir=cache_dir
    )
    groups = len(BENCH_NETWORKS) * VARIANTS_PER_NETWORK
    await service.start()
    try:
        # Warm every group's engine on its owning shard (closed loop,
        # outside timing).  The 1-shard case cannot stay warm — its
        # cache evicts each group before it recurs — which is the point.
        await run_load(service, _requests(groups * warmup_cycles))

        pids = dict(service.shard_pids())
        pids["router"] = os.getpid()
        pss_kb = {
            str(name): kb
            for name, pid in pids.items()
            if (kb := process_pss_kb(pid)) is not None
        }

        result = await run_load(
            service, _requests(requests_count), rate=OFFERED_RPS, seed=3
        )
    finally:
        await service.stop()
    summary = summarize(result)
    summary["responses"] = {
        rid: canonical_response_bytes(resp).decode("utf-8")
        for rid, resp in result.responses.items()
        if resp.status == "ok"
    }
    summary["pss_kb"] = pss_kb
    summary["pss_total_kb"] = sum(pss_kb.values())
    return summary


def run_bench(quick: bool = False) -> dict:
    shard_counts = (1, 2) if quick else SHARD_COUNTS
    requests_count = 48 if quick else BENCH_REQUESTS
    warmup_cycles = 1 if quick else 2

    with tempfile.TemporaryDirectory(prefix="cnvlutin-bench-shard-") as cache:
        # Reference: direct one-at-a-time inference for every request in
        # the workload (also pre-warms the shared artifact cache so the
        # shard runs below measure serving, not calibration).
        repo = ModelRepository(_config().paper_config(cache))
        reference = {}
        for request in _requests(requests_count):
            if request.id not in reference:
                reference[request.id] = canonical_response_bytes(
                    direct_response(repo, request)
                ).decode("utf-8")

        points = []
        for shards in shard_counts:
            summary = asyncio.run(
                _drive(shards, cache, requests_count, warmup_cycles)
            )
            mismatched = [
                rid
                for rid, canon in summary.pop("responses").items()
                if canon != reference[rid]
            ]
            assert not mismatched, (
                f"{shards}-shard responses diverged from direct "
                f"inference: {mismatched[:3]}"
            )
            summary["shards"] = shards
            points.append(summary)

    by_count = {point["shards"]: point for point in points}
    base = by_count[shard_counts[0]]
    top = by_count[shard_counts[-1]]
    speedup_at_4 = (
        round(by_count[4]["throughput_rps"] / base["throughput_rps"], 2)
        if 4 in by_count and base["throughput_rps"]
        else None
    )
    added = top["shards"] - base["shards"]
    pss_per_added_shard_kb = (
        round((top["pss_total_kb"] - base["pss_total_kb"]) / added, 1)
        if added and base["pss_total_kb"]
        else 0.0
    )
    return {
        "scale": "tiny",
        "networks": list(BENCH_NETWORKS),
        "sweep_groups": len(BENCH_NETWORKS) * VARIANTS_PER_NETWORK,
        "requests_per_point": requests_count,
        "offered_rps": OFFERED_RPS,
        "engine_cache_mb_per_shard": ENGINE_CACHE_MB,
        "correctness": (
            "ok responses byte-identical to direct inference at every "
            "shard count"
        ),
        "points": points,
        "speedup_at_4_shards": speedup_at_4,
        "speedup_floor": SPEEDUP_FLOOR,
        "shed_rate_at_4_shards": (
            by_count[4]["shed_rate"] if 4 in by_count else None
        ),
        "shed_ceiling": SHED_CEILING,
        "pss_per_added_shard_kb": pss_per_added_shard_kb,
        "pss_growth_vs_single": (
            round(pss_per_added_shard_kb / base["pss_total_kb"], 4)
            if base["pss_total_kb"]
            else None
        ),
        "pss_growth_ceiling": PSS_GROWTH_CEILING,
        "quick": quick,
    }


def check_report(report: dict) -> list[str]:
    """The acceptance gates; empty list means all floors hold."""
    failures = []
    if report["speedup_at_4_shards"] is not None:
        if report["speedup_at_4_shards"] < report["speedup_floor"]:
            failures.append(
                f"4-shard speedup {report['speedup_at_4_shards']}x below "
                f"the {report['speedup_floor']}x floor"
            )
        if report["shed_rate_at_4_shards"] > report["shed_ceiling"]:
            failures.append(
                f"4-shard shed rate {report['shed_rate_at_4_shards']} over "
                f"the {report['shed_ceiling']} ceiling"
            )
    growth = report["pss_growth_vs_single"]
    if growth is not None and growth > report["pss_growth_ceiling"]:
        failures.append(
            f"per-added-shard PSS growth {growth} of single-shard PSS "
            f"over the {report['pss_growth_ceiling']} ceiling"
        )
    return failures


def test_serve_sharded_bench(benchmark):
    from conftest import run_once

    report = run_once(benchmark, lambda: run_bench(quick=True))
    print()
    print(json.dumps(report, indent=2))
    assert not check_report(report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="1/2-shard smoke (CI artifact); floors are reported, not "
             "written to the committed table",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()

    report = run_bench(quick=args.quick)
    output = args.output
    if output is None and not args.quick:
        output = OUTPUT_PATH
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    failures = check_report(report)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures and not args.quick else 0


if __name__ == "__main__":
    raise SystemExit(main())
