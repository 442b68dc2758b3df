"""Integrity-checking overhead on the sharded serving tier.

Drives the same threshold-sweep workload through a 2-shard tier three
times — ``CNVLUTIN_INTEGRITY`` off, ``sample:0.05``, and ``always`` —
and reports closed-loop throughput for each mode.  The mechanism under
test is the cost of the ABFT epilogues (two extra checksum matvecs per
verified GEMM/matvec, `repro.reliability.integrity`) plus the per-reply
arena CRC recheck cadence, so the run is closed-loop: every request's
compute lands on the same shard state and throughput differences are
checking cost, not queueing artifacts.

Floors (the ISSUE's acceptance criteria):

* ``always`` costs at most 15% of unverified throughput;
* ``sample:0.05`` costs at most 3%.

Correctness is cross-checked per mode: verification is read-only, so
every ok response must be canonical-byte-identical to the ``off`` run —
the "flip a switch in prod" guarantee that enabling checking can never
change answers.

Repeats are *interleaved* across modes (off, sample, always, off, …)
and the best throughput per mode is kept, so neither a one-off
scheduler stall nor OS caches warming monotonically over the session
reads as checking overhead.

Run standalone to (re)generate ``BENCH_integrity.json``::

    PYTHONPATH=src python benchmarks/bench_integrity.py [--quick]

or under pytest with the rest of the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_integrity.py
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import tempfile
from pathlib import Path

from repro import settings
from repro.serve.loadgen import build_sweep_requests, run_load, summarize
from repro.serve.models import ModelRepository, direct_response
from repro.serve.requests import canonical_response_bytes
from repro.serve.router import ShardedService, ShardTierConfig
from repro.serve.service import ServeConfig

BENCH_NETWORKS = ("alex", "cnnS")
VARIANTS_PER_NETWORK = 4
SHARDS = 2
BENCH_REQUESTS = 480
REPEATS = 3
#: (label, CNVLUTIN_INTEGRITY value) in measurement order; "off" first
#: because it is the baseline the other two are normalised against.
MODES = (("off", "off"), ("sample", "sample:0.05"), ("always", "always"))
#: Acceptance ceilings on (1 - throughput/off_throughput).
ALWAYS_OVERHEAD_CEILING = 0.15
SAMPLE_OVERHEAD_CEILING = 0.03
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_integrity.json"


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


def _tier(integrity: str) -> ShardTierConfig:
    return ShardTierConfig(
        shards=SHARDS,
        window=16,
        backlog=512,
        settings=dataclasses.replace(
            settings.current(),
            integrity=integrity,
            # One CRC pass over the arena per deadline, not per reply: the
            # bench measures the steady-state cadence production would run.
            integrity_recheck_s=5.0,
        ),
    )


def _requests(count: int):
    return build_sweep_requests(
        count,
        networks=list(BENCH_NETWORKS),
        variants_per_network=VARIANTS_PER_NETWORK,
        kinds=["classify"],
    )


async def _drive(integrity: str, cache_dir: str, requests_count: int) -> dict:
    service = ShardedService(
        config=_config(), tier=_tier(integrity), cache_dir=cache_dir
    )
    groups = len(BENCH_NETWORKS) * VARIANTS_PER_NETWORK
    await service.start()
    try:
        # Warm every group's engine outside timing.
        await run_load(service, _requests(groups))
        result = await run_load(service, _requests(requests_count))
    finally:
        await service.stop()
    summary = summarize(result)
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

    with tempfile.TemporaryDirectory(prefix="cnvlutin-bench-integ-") as cache:
        reference: dict[str, str] = {}
        best: dict[str, dict] = {}
        for _ in range(repeats):
            for label, integrity in MODES:
                summary = asyncio.run(
                    _drive(integrity, cache, requests_count)
                )
                reference = reference or _reference(cache, requests_count)
                mismatched = [
                    rid
                    for rid, canon in summary.pop("responses").items()
                    if canon != reference[rid]
                ]
                assert not mismatched, (
                    f"integrity={integrity} changed response bytes: "
                    f"{mismatched[:3]}"
                )
                assert summary["error"] == 0, summary
                summary["mode"] = label
                summary["integrity"] = integrity
                if label not in best or (
                    summary["throughput_rps"]
                    > best[label]["throughput_rps"]
                ):
                    best[label] = summary
        points = [best[label] for label, _ in MODES]

    by_mode = {point["mode"]: point for point in points}
    base = by_mode["off"]["throughput_rps"]

    def overhead(mode: str):
        if not base:
            return None
        return round(1.0 - by_mode[mode]["throughput_rps"] / base, 4)

    return {
        "scale": "tiny",
        "networks": list(BENCH_NETWORKS),
        "shards": SHARDS,
        "requests_per_point": requests_count,
        "repeats": repeats,
        "correctness": (
            "ok responses byte-identical to direct inference in every "
            "mode (verification is read-only)"
        ),
        "points": points,
        "sample_overhead": overhead("sample"),
        "sample_overhead_ceiling": SAMPLE_OVERHEAD_CEILING,
        "always_overhead": overhead("always"),
        "always_overhead_ceiling": ALWAYS_OVERHEAD_CEILING,
        "quick": quick,
    }


def check_report(report: dict) -> list[str]:
    """The acceptance gates; empty list means all ceilings hold."""
    failures = []
    for key, ceiling_key in (
        ("sample_overhead", "sample_overhead_ceiling"),
        ("always_overhead", "always_overhead_ceiling"),
    ):
        value = report[key]
        if value is not None and value > report[ceiling_key]:
            failures.append(
                f"{key} {value} over the {report[ceiling_key]} ceiling"
            )
    return failures


def test_integrity_bench(benchmark):
    from conftest import run_once

    report = run_once(benchmark, lambda: run_bench(quick=True))
    print()
    print(json.dumps(report, indent=2))
    # Quick mode on a noisy box: the byte-identity assertions inside
    # run_bench are the gate; overhead ceilings gate the full run only.


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="single-repeat smoke (CI artifact); ceilings are reported, "
             "not gated",
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
