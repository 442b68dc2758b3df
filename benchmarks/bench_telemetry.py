"""Telemetry-plane overhead on the sharded serving tier.

Drives the same threshold-sweep workload through a 2-shard tier twice —
telemetry off, and telemetry fully on (1s pulls of shard deltas, the
local router sampler, the SLO tracker, and an admin endpoint scraped for
``/stats`` + ``/metrics`` every 500ms for the whole run) — and reports
closed-loop throughput for each mode.  The mechanism under test is the
whole live-observability path: ``take_snapshot`` deltas on the shard
side, the control-socket ``op: obs`` pull, ring-buffer ingestion, and
exposition rendering under concurrent scrapes.  The run is closed-loop so
throughput differences are telemetry cost, not queueing artifacts.

Floor (the ISSUE's acceptance criterion): telemetry on costs at most 3%
of untelemetered throughput.

Correctness is cross-checked per mode: telemetry only observes, so
every ok response must be canonical-byte-identical to direct inference
— streaming metrics and scraping the admin port can never change
answers in deterministic mode.

Repeats are *interleaved* across modes (off, on, off, on, …) and the
best throughput per mode is kept, so neither a one-off scheduler stall
nor OS caches warming monotonically over the session reads as
telemetry overhead.

Run standalone to (re)generate ``BENCH_telemetry.json``::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--quick]

or under pytest with the rest of the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import tempfile
import urllib.request
from pathlib import Path

from repro import obs
from repro.serve.admin import AdminServer
from repro.serve.loadgen import build_sweep_requests, run_load, summarize
from repro.serve.models import ModelRepository, direct_response
from repro.serve.requests import canonical_response_bytes
from repro.serve.router import ShardedService, ShardTierConfig
from repro.serve.service import ServeConfig
from repro.serve.telemetry import TelemetryController

BENCH_NETWORKS = ("alex", "cnnS")
VARIANTS_PER_NETWORK = 4
SHARDS = 2
BENCH_REQUESTS = 480
REPEATS = 3
#: Shard delta pull cadence in the "on" mode (the ISSUE's default interval).
PUSH_INTERVAL_S = 1.0
#: Admin scrape cadence while the load runs.
SCRAPE_INTERVAL_S = 0.5
#: Acceptance ceiling on (1 - on_throughput/off_throughput).
TELEMETRY_OVERHEAD_CEILING = 0.03
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"


def _config() -> ServeConfig:
    return ServeConfig(
        scale="tiny",
        networks=BENCH_NETWORKS,
        max_batch=4,
        linger_ms=2.0,
        queue_limit=1024,
        workers=1,
        use_cache=True,
    )


def _tier(telemetry: bool) -> ShardTierConfig:
    return ShardTierConfig(
        shards=SHARDS,
        window=16,
        backlog=512,
        telemetry_interval_s=PUSH_INTERVAL_S if telemetry else None,
    )


def _requests(count: int):
    return build_sweep_requests(
        count,
        networks=list(BENCH_NETWORKS),
        variants_per_network=VARIANTS_PER_NETWORK,
        kinds=["classify"],
    )


def _scrape(base: str, path: str) -> str:
    with urllib.request.urlopen(f"{base}{path}", timeout=10.0) as response:
        return response.read().decode("utf-8")


async def _drive(telemetry: bool, cache_dir: str, requests_count: int) -> dict:
    obs.reset_metrics()
    service = ShardedService(
        config=_config(), tier=_tier(telemetry), cache_dir=cache_dir
    )
    groups = len(BENCH_NETWORKS) * VARIANTS_PER_NETWORK
    await service.start()
    controller = admin = scraper = None
    scrapes = 0
    if telemetry:
        controller = TelemetryController(
            plane=service.telemetry,
            interval_s=PUSH_INTERVAL_S,
            source="router",
        )
        controller.start()
        admin = AdminServer(controller, port=0)
        await admin.start()
        base = f"http://127.0.0.1:{admin.port}"

        async def scrape_loop():
            nonlocal scrapes
            while True:
                await asyncio.sleep(SCRAPE_INTERVAL_S)
                await asyncio.to_thread(_scrape, base, "/stats")
                await asyncio.to_thread(_scrape, base, "/metrics")
                scrapes += 1

    try:
        # Warm every group's engine outside timing.
        await run_load(service, _requests(groups))
        if telemetry:
            scraper = asyncio.create_task(scrape_loop())
        result = await run_load(service, _requests(requests_count))
    finally:
        if scraper is not None:
            scraper.cancel()
            try:
                await scraper
            except asyncio.CancelledError:
                pass
        if admin is not None:
            await admin.stop()
        if controller is not None:
            await controller.stop()
        await service.stop()
    summary = summarize(result)
    summary["scrapes"] = scrapes
    summary["responses"] = {
        rid: canonical_response_bytes(resp).decode("utf-8")
        for rid, resp in result.responses.items()
        if resp.status == "ok"
    }
    return summary


def _reference(cache: str, requests_count: int) -> dict[str, str]:
    """Canonical bytes of direct inference for every request.

    Built after the first tier has run: starting it decided this
    process's BLAS thread count (:mod:`repro.nn.blas`), and canonical
    bytes are the bytes computed under that count.
    """
    repo = ModelRepository(_config().paper_config(cache))
    reference = {}
    for request in _requests(requests_count):
        if request.id not in reference:
            reference[request.id] = canonical_response_bytes(
                direct_response(repo, request)
            ).decode("utf-8")
    return reference


def run_bench(quick: bool = False) -> dict:
    requests_count = 36 if quick else BENCH_REQUESTS
    repeats = 1 if quick else REPEATS
    modes = (("off", False), ("on", True))

    with tempfile.TemporaryDirectory(prefix="cnvlutin-bench-telem-") as cache:
        reference: dict[str, str] = {}
        best: dict[str, dict] = {}
        for _ in range(repeats):
            for label, telemetry in modes:
                summary = asyncio.run(
                    _drive(telemetry, cache, requests_count)
                )
                reference = reference or _reference(cache, requests_count)
                mismatched = [
                    rid
                    for rid, canon in summary.pop("responses").items()
                    if canon != reference[rid]
                ]
                assert not mismatched, (
                    f"telemetry={label} changed response bytes: "
                    f"{mismatched[:3]}"
                )
                assert summary["error"] == 0, summary
                summary["mode"] = label
                if label not in best or (
                    summary["throughput_rps"]
                    > best[label]["throughput_rps"]
                ):
                    best[label] = summary
        points = [best[label] for label, _ in modes]

    by_mode = {point["mode"]: point for point in points}
    base = by_mode["off"]["throughput_rps"]
    overhead = None
    if base:
        overhead = round(1.0 - by_mode["on"]["throughput_rps"] / base, 4)

    return {
        "scale": "tiny",
        "networks": list(BENCH_NETWORKS),
        "shards": SHARDS,
        "requests_per_point": requests_count,
        "repeats": repeats,
        "push_interval_s": PUSH_INTERVAL_S,
        "scrape_interval_s": SCRAPE_INTERVAL_S,
        "correctness": (
            "ok responses byte-identical to direct inference with "
            "telemetry streaming and the admin endpoint scraped "
            "(telemetry only observes)"
        ),
        "points": points,
        "telemetry_overhead": overhead,
        "telemetry_overhead_ceiling": TELEMETRY_OVERHEAD_CEILING,
        "quick": quick,
    }


def check_report(report: dict) -> list[str]:
    """The acceptance gate; empty list means the ceiling holds."""
    failures = []
    value = report["telemetry_overhead"]
    ceiling = report["telemetry_overhead_ceiling"]
    if value is not None and value > ceiling:
        failures.append(
            f"telemetry_overhead {value} over the {ceiling} ceiling"
        )
    return failures


def test_telemetry_bench(benchmark):
    from conftest import run_once

    report = run_once(benchmark, lambda: run_bench(quick=True))
    print()
    print(json.dumps(report, indent=2))
    # Quick mode on a noisy box: the byte-identity assertions inside
    # run_bench are the gate; the overhead ceiling gates the full run only.


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="single-repeat smoke (CI artifact); the ceiling is "
             "reported, not gated",
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
