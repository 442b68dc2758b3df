"""The serving workloads: serve-fresh and serve-sweep.

Both drive the program only through ``InferenceService`` /
``ShardedService``: a closed loop of :data:`CLIENTS` clients, each
waiting for its reply before taking the next request of a fixed,
seeded stream.  Outputs are checked after the timed phase against
``direct_response`` on a freshly built ``ModelRepository``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import streams
from common import (
    Metric,
    TooFewSamples,
    cpu_times,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    shm_segments,
    steal_fraction,
)

#: Load comes from this one process with at most nproc (= 2) clients.
CLIENTS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Nominal pace used to size a run's fixed work from ``--seconds`` (the
#: work never depends on a clock): a 36-request serve-fresh cycle takes
#: about 1.25 s and serve-sweep serves about 400 requests/s on 2 vCPUs.
FRESH_CYCLE_S = 1.25
SWEEP_RPS = 400.0


@dataclass
class Timed:
    """One timed phase: (latency ms, response, submit time, reply time)
    per request, in stream order."""

    results: list
    rss_mb: float
    steal: float
    t0: float
    t1: float
    counters: dict = field(default_factory=dict)


@dataclass
class Measured:
    setup_s: list
    setup_window: tuple
    timed: Timed


class Workload:
    """What differs between serve-fresh and serve-sweep."""

    sharded: bool

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds

    def make_service(self, cache):
        raise NotImplementedError

    def pids(self, service) -> list[int]:
        return [os.getpid()]


class Fresh(Workload):
    sharded = False
    #: One block per mix cycle; the p95 pools groups of at least six
    #: cycles (216 requests, the fewest with ten samples beyond it).
    block = streams.fresh_cycle_len()
    tail_cycles = 6

    def stream(self) -> list[dict]:
        cycles = max(self.tail_cycles, round(self.seconds / FRESH_CYCLE_S))
        return streams.fresh_stream(self.seed, cycles)

    def tail_groups(self, requests) -> int:
        return len(requests) // (self.block * self.tail_cycles)

    def warmup(self) -> list[dict]:
        return streams.fresh_warmup(self.seed)

    def make_service(self, cache):
        from repro.serve import InferenceService, ServeConfig

        return InferenceService(ServeConfig(), cache_dir=cache)


class Sweep(Workload):
    sharded = True
    #: Blocks of 16 cycles (384 requests, about a second); each block
    #: holds enough samples for its own p95.
    block = 16 * streams.sweep_cycle_len()

    def stream(self) -> list[dict]:
        blocks = max(3, round(self.seconds * SWEEP_RPS / self.block))
        return streams.sweep_stream(self.seed, blocks * 16)

    def tail_groups(self, requests) -> int:
        return len(requests) // self.block

    def warmup(self) -> list[dict]:
        return streams.sweep_warmup()

    def make_service(self, cache):
        from repro.serve import ServeConfig, ShardedService, ShardTierConfig

        return ShardedService(ServeConfig(), ShardTierConfig(), cache_dir=cache)

    def pids(self, service) -> list[int]:
        return [os.getpid(), *service.shard_pids().values()]


async def closed_loop(service, requests) -> list:
    """Serve ``requests`` in order from :data:`CLIENTS` waiting clients.

    Returns (latency ms, response, submit time, reply time) per request,
    in stream order.
    """
    results: list = [None] * len(requests)
    cursor = iter(range(len(requests)))

    async def client() -> None:
        for index in cursor:
            start = time.perf_counter()
            response = await service.submit(requests[index])
            done = time.perf_counter()
            results[index] = ((done - start) * 1e3, response, start, done)

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return results


def _counters():
    from repro import obs

    return dict(obs.get_metrics().snapshot()["counters"])


async def _set_up(workload, scratch, warmup, tracer):
    """Construct on an empty private cache, start, warm up; returns
    (service, seconds)."""
    phase = tracer.phase if tracer else (lambda name: contextlib.nullcontext())
    cache = scratch.fresh("cache")
    start = time.perf_counter()
    service = workload.make_service(cache)
    try:
        # start() calibrates, publishes the weight arena and spawns the
        # shards on serve-sweep; serve-fresh calibrates lazily, during
        # its warm-up.
        with phase("setup.spawn" if workload.sharded else "setup.start"):
            await service.start()
        with phase("setup.warmup"):
            responses = await closed_loop(service, warmup)
    except BaseException:
        await service.stop()
        raise
    elapsed = time.perf_counter() - start
    bad = [r[1] for r in responses if r[1].status != "ok"]
    if bad:
        await service.stop()
        raise RuntimeError(f"warm-up request {bad[0].id} answered {bad[0].status}")
    return service, elapsed


async def measure(workload, requests, warmup, scratch, setups, tracer=None) -> Measured:
    """``setups`` set-ups (all but the last torn down), then the timed phase."""
    setup_s = []
    service = None
    window = (0.0, 0.0)
    try:
        for _ in range(setups):
            if service is not None:
                await service.stop()
                service = None
                gc.collect()
            began = time.perf_counter()
            service, elapsed = await _set_up(workload, scratch, warmup, tracer)
            window = (began, time.perf_counter())
            setup_s.append(elapsed)
        if tracer is not None and workload.sharded:
            # Pull shard counters accumulated so far, so the deltas taken
            # around the timed phase cover only the timed phase.
            await service.collect_obs()
        counters = _counters() if tracer is not None else {}
        gc.collect()
        pids = workload.pids(service)
        reset_peak_rss(pids)
        cpu0 = cpu_times()
        t0 = time.perf_counter()
        results = await closed_loop(service, requests)
        t1 = time.perf_counter()
        steal = steal_fraction(cpu0, cpu_times())
        rss = peak_rss_mb(pids)
    finally:
        if service is not None:
            await service.stop()
    timed = Timed(results, rss, steal, t0, t1)
    if tracer is not None:
        after = _counters()
        timed.counters = {k: v - counters.get(k, 0.0) for k, v in after.items()}
    return Measured(setup_s, window, timed)


def _p95(latencies):
    try:
        return percentile(latencies, 95)
    except TooFewSamples:
        return None


def end_to_end(measured: Measured, block: int, tail_blocks: int) -> list[Metric]:
    """The end-to-end metrics of a timed phase.

    The stream is cut into consecutive blocks of ``block`` requests (a
    whole number of mix cycles).  Host stalls on a shared 2-vCPU machine
    come in bursts of a few seconds, so each metric is the median over
    blocks: throughput = block size / (last reply - first submit) per
    block, p50 = the block's median latency.  The p95 needs 200 samples
    for ten beyond it, so it is the median over ``tail_blocks`` equal
    groups of blocks of the group's pooled p95.
    """
    results = measured.timed.results
    ok = [r for r in results if r[1].status == "ok"]
    blocks = [results[i:i + block] for i in range(0, len(results), block)]
    rates, medians = [], []
    for chunk in blocks:
        good = [r for r in chunk if r[1].status == "ok"]
        wall = max(r[3] for r in chunk) - min(r[2] for r in chunk)
        rates.append(len(good) / wall)
        if good:
            medians.append(median(r[0] for r in good))
    per_group = len(blocks) // tail_blocks
    tails = [
        _p95([r[0] for chunk in blocks[g * per_group:(g + 1) * per_group]
              for r in chunk if r[1].status == "ok"])
        for g in range(tail_blocks)
    ]
    tails = [t for t in tails if t is not None]
    base = f"median of {len(blocks)} blocks of {block}"
    return [
        Metric("setup_s", median(measured.setup_s), "s", len(measured.setup_s)),
        Metric("latency_p50_ms", median(medians) if medians else None, "ms",
               len(ok), base),
        Metric("latency_p95_ms", median(tails) if tails else None, "ms", len(ok),
               f"median of {len(tails)} groups of {per_group * block}"),
        Metric("throughput_rps", median(rates), "1/s", len(ok), base),
        Metric("peak_rss_mb", measured.timed.rss_mb, "MB", 1),
    ]


def check_outputs(requests, results, scratch):
    """Compare every response with the unbatched reference path.

    Returns (failed, first failure or None, SHA-256 of all responses'
    canonical bytes in stream order).  The reference is
    ``direct_response`` on a ``ModelRepository`` calibrated from its own
    empty cache, in this process: the reference must see the same BLAS
    threading as the service, because the summation order of a
    multi-threaded GEMM shows in the bytes.  Identical request payloads
    are answered once and the answer relabelled with each request's id.
    """
    from repro.serve import (
        ModelRepository,
        ServeConfig,
        canonical_response_bytes,
        direct_response,
    )

    reference = ModelRepository(
        ServeConfig().paper_config(cache_dir=scratch.fresh("reference"))
    )
    expected: dict[str, object] = {}
    digest = hashlib.sha256()
    failed, first = 0, None
    for request, (_, response, *_) in zip(requests, results):
        got = canonical_response_bytes(response)
        digest.update(got + b"\n")
        if response.status != "ok":
            problem = f"{response.status}: {response.payload.get('error')}"
        else:
            key = json.dumps({**request.to_payload(), "id": None}, sort_keys=True)
            if key not in expected:
                expected[key] = direct_response(reference, request)
            want = canonical_response_bytes(
                dataclasses.replace(expected[key], id=request.id)
            )
            problem = None if got == want else "bytes differ from direct_response"
        if problem is not None:
            failed += 1
            first = first or f"request {request.id}: {problem}"
    return failed, first, digest.hexdigest()


def same_bytes(results_a, results_b):
    """Failures where two runs of one stream answered differently."""
    from repro.serve import canonical_response_bytes

    failed, first = 0, None
    for (_, a, *_), (_, b, *_) in zip(results_a, results_b):
        if canonical_response_bytes(a) != canonical_response_bytes(b):
            failed += 1
            first = first or f"request {a.id}: traced run answered differently"
    return failed, first


async def run(workload_name, seed, seconds, trace, scratch, span_dir):
    """One benchmark run; returns a dict the CLI reports."""
    from repro.serve import ServeRequest

    workload = (Fresh if workload_name == "serve-fresh" else Sweep)(seed, seconds)
    requests = [ServeRequest.from_payload(p) for p in workload.stream()]
    warmup = [ServeRequest.from_payload(p) for p in workload.warmup()]
    plain = await measure(workload, requests, warmup, scratch, SETUPS)
    failed, first, digest = check_outputs(requests, plain.timed.results, scratch)
    block, groups = workload.block, workload.tail_groups(requests)
    metrics = end_to_end(plain, block, groups)
    report = {
        "attempted": len(requests),
        "failed": failed,
        "first_failure": first,
        "digest": digest,
        "end_to_end": metrics,
        "steal": plain.timed.steal,
        "work": f"{len(requests)} requests, {CLIENTS} clients, closed loop",
    }
    if trace:
        await _traced(report, workload, requests, warmup, plain, scratch, span_dir)
    leaked = shm_segments(os.getpid())
    if leaked:
        report["failed"] += 1
        report["first_failure"] = report["first_failure"] or (
            f"shared-memory segments left behind: {leaked}"
        )
    return report


async def _traced(report, workload, requests, warmup, plain, scratch, span_dir):
    """Repeat the run with the program's calls wrapped; adds per-layer
    metrics and the spans to ``report``."""
    import perlayer
    from spans import Tracer, load_spans

    block, groups = workload.block, workload.tail_groups(requests)
    tracer = Tracer()
    perlayer.install(tracer, span_dir)
    try:
        traced = await measure(workload, requests, warmup, scratch, 1, tracer)
    finally:
        tracer.restore()
    spans = list(tracer.spans)
    for path in sorted(span_dir.glob("shard*.jsonl")):
        spans += load_spans(path)
    more, why = same_bytes(plain.timed.results, traced.timed.results)
    report["failed"] += more
    report["first_failure"] = report["first_failure"] or why
    t = traced.timed
    timed_spans = [s for s in spans if t.t0 <= s.start and s.end <= t.t1]
    lo, hi = traced.setup_window
    setup_spans = [s for s in spans if lo <= s.start and s.end <= hi]
    rps = report["end_to_end"][3].value
    traced_rps = end_to_end(traced, block, groups)[3].value
    report["per_layer"] = perlayer.derive(
        timed_spans, setup_spans, t.counters,
        [(r[0], r[1]) for r in t.results], None, rps / traced_rps - 1.0,
    )
    report["spans"] = spans
