"""``repro-serve`` — serve inference requests, or generate load against
an in-process service.

``serve``
    A TCP JSON-lines server: one request object per line in, one
    response object per line out (responses carry the request ``id``;
    pipelined lines are served concurrently, so they micro-batch)::

        repro-serve serve --port 8707 --scale tiny --networks alex,cnnS
        printf '%s\\n' '{"id":"a","kind":"classify","network":"alex"}' \\
            | nc 127.0.0.1 8707

``loadgen``
    Self-driving: builds a deterministic mixed workload, drives it
    through an in-process service (open-loop at ``--rate``, or
    closed-loop deterministic without one), prints the throughput /
    latency / shed summary, and optionally writes a JSON report
    (``--json``) and a Chrome trace (``--trace``)::

        repro-serve loadgen --requests 50 --scale tiny \\
            --networks alex,cnnS --deterministic --json serve-report.json

    The report's ``metrics`` snapshot is taken after the service
    stopped (with ``--shards``, after the router's one pull of every
    shard's counts), and ``repro-obs report serve-report.json`` renders
    it: request outcomes, batch sizes and latency p50/p95/p99.

Both ``serve`` and ``loadgen`` accept ``--shards N`` to run the sharded
tier instead of a single in-process service: N shard processes behind a
consistent-hash router with shared-memory weights, failover, and
respawn (see :mod:`repro.serve.router`).  ``loadgen --sweep-groups K``
switches to the sweep workload (probe requests cycling over K
(network, threshold) groups) whose per-shard cache affinity the sharded
benchmark measures.

``serve`` drains gracefully on SIGTERM (and SIGINT): the listener
closes (new connections refused), in-flight requests complete and their
responses are written, the batcher flushes, and the process exits 0 —
a rolling restart loses nothing.

Integrity: ``--integrity MODE`` (``off`` / ``always`` / ``sample:P``)
turns on ABFT kernel verification plus — with ``--shards`` — the arena
CRC recheck (``--integrity-recheck-s``) and canary sweep
(``--canary-interval``).  ``loadgen --verify-bytes`` re-runs every ok
response through direct inference and counts byte mismatches (the chaos
suite's zero-corrupted-responses gate).

The integrity flags override this process's and every shard's settings
(:mod:`repro.settings`); ``--shard-cache-mb`` and ``loadgen --trace``
the shards' only.

Each flag that configures the service, the shard tier, the forward
retry policy or the settings is checked while the arguments are
parsed, by the object that holds its value (:class:`ServeConfig`,
:class:`ShardTierConfig`, :class:`RetryPolicy`,
:class:`~repro.settings.Settings`): junk exits 2, naming the flag,
before anything is built or started.

Exit status: 0 on success, 1 when the workload saw any ``error``
responses, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import signal
import sys

from repro import settings
from repro.argtypes import checked, field
from repro.nn import blas
from repro.nn.models import network_names
from repro.reliability import RetryPolicy
from repro.serve.loadgen import (
    build_requests,
    build_sweep_requests,
    run_load,
    summarize,
)
from repro.serve.requests import (
    REQUEST_KINDS,
    ServeRequest,
    ServeResponse,
    canonical_response_bytes,
)
from repro.serve.router import ShardedService, ShardTierConfig
from repro.serve.service import InferenceService, ServeConfig

__all__ = ["main"]


def _parse_networks(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in network_names()]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown networks {unknown}; choose from {network_names()}"
        )
    if not names:
        raise argparse.ArgumentTypeError("at least one network is required")
    return names


def _parse_kinds(text: str) -> list[str]:
    kinds = [kind.strip() for kind in text.split(",") if kind.strip()]
    unknown = [kind for kind in kinds if kind not in REQUEST_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown kinds {unknown}; choose from {REQUEST_KINDS}"
        )
    return kinds


def _rate(text: str) -> float:
    rate = float(text)
    if not rate > 0:
        raise ValueError(f"must be positive, got {text}")
    return rate


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "reduced", "full"])
    parser.add_argument("--networks", type=_parse_networks,
                        default=["alex", "cnnS"], metavar="A,B,...")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-batch", default=8,
                        type=field(ServeConfig, "max_batch", int))
    parser.add_argument("--queue-limit", default=64,
                        type=field(ServeConfig, "queue_limit", int))
    parser.add_argument("--workers", default=2,
                        type=field(ServeConfig, "workers", int))
    parser.add_argument("--deterministic", action="store_true",
                        help="single worker, fixed batch boundaries "
                        "(reproducible runs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk calibration artifact cache")
    parser.add_argument("--shards", default=0, metavar="N",
                        type=field(ShardTierConfig, "shards", int, off=0),
                        help="run N shard processes behind a consistent-"
                        "hash router (0 = single in-process service)")
    parser.add_argument("--shard-window", default=8,
                        type=field(ShardTierConfig, "window", int),
                        help="bounded in-flight requests per shard connection")
    parser.add_argument("--shard-backlog", default=64,
                        type=field(ShardTierConfig, "backlog", int),
                        help="waiting requests per shard before the router "
                        "sheds")
    parser.add_argument("--shard-cache-mb", default=None,
                        type=field(settings.Settings, "engine_cache_mb"),
                        metavar="MB", help="per-shard "
                        "CNVLUTIN_ENGINE_CACHE_MB override")
    parser.add_argument("--start-method", default="fork",
                        choices=["fork", "spawn"],
                        help="multiprocessing start method for shards")
    parser.add_argument("--integrity", default=None,
                        type=field(settings.Settings, "integrity"),
                        metavar="MODE",
                        help="CNVLUTIN_INTEGRITY mode: off, always, or "
                        "sample:P (ABFT kernel checksums + arena CRC)")
    parser.add_argument("--integrity-recheck-s", default=None,
                        type=field(settings.Settings, "integrity_recheck_s"),
                        metavar="S", help="seconds between shard arena CRC "
                        "rechecks (0 = before every reply)")
    parser.add_argument("--canary-interval", default=None,
                        type=field(ShardTierConfig, "canary_interval_s", float),
                        metavar="S", help="seconds between router canary "
                        "sweeps (golden-request probes; sharded only)")
    parser.add_argument("--forward-attempts", default=None,
                        type=field(RetryPolicy, "max_attempts", int),
                        metavar="N", help="router forward retry budget "
                        "(raise to ride out shard quarantine/respawn)")
    parser.add_argument("--forward-backoff", type=float, default=None,
                        metavar="S", help="router forward retry backoff cap")


def _service_config(args) -> ServeConfig:
    return ServeConfig(
        scale=args.scale,
        networks=tuple(args.networks),
        seed=args.seed,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        workers=args.workers,
        deterministic=args.deterministic,
        use_cache=not args.no_cache,
    )


def _with_flags(base: settings.Settings, **flags) -> settings.Settings:
    """``base`` with the fields the command line set (None = not set)."""
    flags = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(base, **flags)


def _build_service(args, trace: bool = False):
    """The in-process service, or the sharded tier when ``--shards N``.

    Installs this process's settings first; the shards get them plus
    the shard-only flags.
    """
    config = _service_config(args)
    process = settings.install(_with_flags(
        settings.current(), integrity=args.integrity,
        integrity_recheck_s=args.integrity_recheck_s,
    ))
    if not args.shards:
        return InferenceService(config)
    tier = ShardTierConfig(
        shards=args.shards,
        window=args.shard_window,
        backlog=args.shard_backlog,
        start_method=args.start_method,
        settings=_with_flags(
            process, engine_cache_mb=args.shard_cache_mb, trace=trace or None
        ),
        canary_interval_s=args.canary_interval,
    )
    policy = None
    if args.forward_attempts is not None or args.forward_backoff is not None:
        policy = RetryPolicy(
            max_attempts=(
                args.forward_attempts if args.forward_attempts is not None
                else 3
            ),
            backoff_base=0.02,
            backoff_max=(
                args.forward_backoff if args.forward_backoff is not None
                else 0.25
            ),
            seed=config.seed,
        )
    return ShardedService(config, tier=tier, policy=policy)


async def _serve_async(args) -> int:
    service = _build_service(args)
    await service.start()
    server = None
    waiters: list[asyncio.Task] = []
    served = 0
    done = asyncio.Event()
    stopping = asyncio.Event()
    inflight: set[asyncio.Task] = set()
    connections: set[asyncio.StreamWriter] = set()

    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, stopping.set)
        loop.add_signal_handler(signal.SIGINT, stopping.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
        pass

    async def _handle(reader, writer):
        nonlocal served
        write_lock = asyncio.Lock()
        tasks = []
        connections.add(writer)

        async def _answer(line: bytes) -> None:
            nonlocal served
            try:
                request = ServeRequest.from_json(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                response = ServeResponse(
                    id="?", status="error", kind="classify", network="?",
                    payload={"error": f"bad request: {exc}"},
                )
            else:
                response = await service.submit(request)
            async with write_lock:
                writer.write(response.to_json().encode("utf-8") + b"\n")
                await writer.drain()
            served += 1
            if args.max_requests and served >= args.max_requests:
                done.set()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if line.strip():
                    task = asyncio.create_task(_answer(line))
                    tasks.append(task)
                    inflight.add(task)
                    task.add_done_callback(inflight.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            connections.discard(writer)
            writer.close()

    try:
        server = await asyncio.start_server(_handle, args.host, args.port)
        ports = [sock.getsockname()[1] for sock in server.sockets]
        print(f"repro-serve listening on {args.host}:{ports[0]} "
              f"(scale={args.scale}, networks={','.join(args.networks)})",
              flush=True)
        waiters.append(asyncio.create_task(stopping.wait()))
        if args.max_requests:
            waiters.append(asyncio.create_task(done.wait()))
        await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
    except asyncio.CancelledError:  # pragma: no cover - hard loop teardown
        pass
    finally:
        for waiter in waiters:
            waiter.cancel()
        # Graceful drain: refuse new connections, let every accepted
        # request finish and flush its response, then stop the service
        # (which flushes the micro-batcher) — a SIGTERM'd rolling
        # restart loses no accepted work and exits 0.
        if server is not None:
            server.close()
            await server.wait_closed()
        while inflight:
            await asyncio.gather(*list(inflight), return_exceptions=True)
        for writer in list(connections):
            try:
                writer.close()
            except Exception:  # pragma: no cover - already-dead transport
                pass
        await service.stop()
        if stopping.is_set():
            print(f"repro-serve drained after {served} requests", flush=True)
    return 0


async def _loadgen_async(args) -> int:
    from repro import obs

    if args.trace:
        obs.enable_tracing()
    config = _service_config(args)
    service = _build_service(args, trace=bool(args.trace))
    if args.sweep_groups:
        requests = build_sweep_requests(
            args.requests,
            networks=args.networks,
            variants_per_network=max(
                1, args.sweep_groups // max(1, len(args.networks))
            ),
            kinds=args.kinds,
            deadline_ms=args.deadline_ms,
        )
    else:
        requests = build_requests(
            args.requests,
            networks=args.networks,
            kinds=args.kinds,
            seed=args.seed,
            deadline_ms=args.deadline_ms,
        )
    await service.start()
    try:
        result = await run_load(
            service, requests, rate=args.rate, seed=args.seed
        )
        summary = summarize(result)
        if args.verify_bytes:
            summary["byte_mismatches"] = await _verify_bytes(
                config, requests, result
            )
        memory = _tier_memory(service)
    finally:
        await service.stop()
    print(json.dumps(summary, indent=2))
    if args.json:
        report = {
            "config": {
                "scale": config.scale,
                "networks": list(config.networks),
                "max_batch": config.max_batch,
                "queue_limit": config.queue_limit,
                # The workers that ran: one under --deterministic.
                "workers": config.streams,
                "blas_threads": blas.threads(),
                "deterministic": config.deterministic,
                "rate": args.rate,
                "kinds": args.kinds or list(REQUEST_KINDS),
                "shards": args.shards,
                "sweep_groups": args.sweep_groups,
                "integrity": args.integrity,
                "integrity_recheck_s": args.integrity_recheck_s,
                "canary_interval": args.canary_interval,
            },
            "summary": summary,
            "metrics": obs.get_metrics().snapshot(),
        }
        if memory:
            report["memory"] = memory
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote report {args.json}")
    if args.trace:
        written = obs.write_chrome_trace(args.trace)
        print(f"wrote trace {args.trace} ({written} events)")
    failed = summary["error"] or summary.get("byte_mismatches", 0)
    return 1 if failed else 0


def _tier_memory(service) -> dict[str, dict[str, int]]:
    """Anonymous and shared RSS of this process and every live shard
    (:func:`repro.nn.shm.process_rss_kb`); empty where ``/proc`` is
    missing."""
    from repro.nn.shm import process_rss_kb

    sharded = isinstance(service, ShardedService)
    pids = {"router" if sharded else "service": os.getpid()}
    if sharded:
        pids.update(
            (f"shard{index}", pid)
            for index, pid in sorted(service.shard_pids().items())
        )
    memory = {}
    for name, pid in pids.items():
        rss = process_rss_kb(pid)
        if rss is not None:
            memory[name] = {"pid": pid, **rss}
    return memory


async def _verify_bytes(config: ServeConfig, requests, result) -> int:
    """Count ok responses whose canonical bytes diverge from direct
    inference — the zero-corrupted-responses gate of the chaos suite.

    The reference is a fresh repository (weights drawn from the seed,
    calibration from the artifact cache), never the service's own: the
    sharded router computes on the arena it would be checking.
    """
    from repro.serve.models import ModelRepository, direct_response

    repo = ModelRepository(config.paper_config())
    by_id: dict[str, ServeRequest] = {}
    for request in requests:
        by_id.setdefault(request.id, request)
    mismatches = 0
    for rid, response in result.responses.items():
        if response.status != "ok":
            continue
        request = by_id.get(rid)
        if request is None:
            continue
        direct = await asyncio.to_thread(direct_response, repo, request)
        if canonical_response_bytes(response) != canonical_response_bytes(
            direct
        ):
            mismatches += 1
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-serve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="TCP JSON-lines inference server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8707,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-requests", type=int, default=0, metavar="N",
                       help="exit after N served requests (0 = forever)")
    _add_service_args(serve)
    serve.set_defaults(runner=_serve_async)

    loadgen = sub.add_parser("loadgen", help="drive an in-process service")
    loadgen.add_argument("--requests", type=int, default=50)
    loadgen.add_argument("--rate", type=checked(_rate), default=None,
                         metavar="RPS",
                         help="open-loop offered load; omit for closed-loop "
                         "submission (deterministic with --deterministic)")
    loadgen.add_argument("--kinds", type=_parse_kinds, default=None,
                         metavar="K1,K2,...",
                         help=f"request mix (default {','.join(REQUEST_KINDS)})")
    loadgen.add_argument("--deadline-ms", type=float, default=None)
    loadgen.add_argument("--sweep-groups", type=int, default=0, metavar="K",
                         help="use the sweep workload: probe requests "
                         "cycling over K (network, threshold) groups — the "
                         "traffic shape the sharded tier's cache "
                         "partitioning accelerates")
    loadgen.add_argument("--verify-bytes", action="store_true",
                         help="re-run every ok response through direct "
                         "inference and count canonical-byte mismatches "
                         "(fails the run when any exist)")
    loadgen.add_argument("--json", default=None, metavar="REPORT_JSON",
                         help="write summary + metrics snapshot")
    loadgen.add_argument("--trace", default=None, metavar="TRACE_JSON",
                         help="record spans and write a Chrome trace")
    _add_service_args(loadgen)
    loadgen.set_defaults(runner=_loadgen_async)

    args = parser.parse_args(argv)
    return asyncio.run(args.runner(args))


if __name__ == "__main__":
    sys.exit(main())
