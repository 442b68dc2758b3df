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

``top``
    Terminal dashboard polling a running admin endpoint
    (``repro-serve top --port <admin-port>``): rolling-window
    throughput, p50/p95/p99 per source, SLO burn rates, shard health.

Live telemetry: ``--telemetry-interval S`` (default 1s) samples local
metrics — and, with ``--shards``, pulls each shard's metric delta over
its control socket — into a rolling window; ``--admin-port PORT``
exposes it over HTTP as ``/stats`` (JSON), ``/metrics`` (Prometheus
text exposition), ``/slo``, and ``/healthz``; ``--slo SPEC`` overrides
the declared objectives.

Both ``serve`` and ``loadgen`` accept ``--shards N`` to run the sharded
tier instead
of a single in-process service: N shard processes behind a
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
retry policy, telemetry or the settings is checked while the arguments
are parsed, by the object that holds its value (:class:`ServeConfig`,
:class:`ShardTierConfig`, :class:`RetryPolicy`, the SLO parser,
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
import signal
import sys

from repro import settings
from repro.argtypes import checked, field
from repro.nn import blas
from repro.nn.models import network_names
from repro.obs.slo import parse_slo_spec
from repro.reliability import RetryPolicy
from repro.serve.admin import AdminServer
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
from repro.serve.telemetry import TelemetryController

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
    parser.add_argument("--admin-port", type=int, default=None, metavar="PORT",
                        help="serve live telemetry over HTTP: /stats (JSON), "
                        "/metrics (Prometheus text), /slo, /healthz "
                        "(0 picks a free port)")
    parser.add_argument("--admin-host", default="127.0.0.1",
                        help="admin endpoint bind address (default loopback)")
    parser.add_argument("--telemetry-interval", default=1.0,
                        type=field(ShardTierConfig, "telemetry_interval_s",
                                    float, off=0.0),
                        metavar="S", help="seconds between local telemetry "
                        "samples and the router's pulls of each shard's "
                        "metric delta (0 disables live telemetry)")
    parser.add_argument("--slo", type=checked(parse_slo_spec), default=None,
                        metavar="SPEC", help="SLO overrides, comma-separated: "
                        "latency_p99_ms=<ms>,error_rate=<frac>,"
                        "shed_rate=<frac>")


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
        telemetry_interval_s=args.telemetry_interval or None,
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


def _telemetry_controller(service, args) -> TelemetryController | None:
    """The service's telemetry controller per the CLI flags, not started.

    The controller samples the local registry on ``--telemetry-interval``
    and — for the sharded tier — shares the router's
    :class:`~repro.obs.timeseries.TelemetryPlane`, so pulled shard
    deltas and local samples land in one windowed view.
    """
    if not args.telemetry_interval and args.admin_port is None:
        return None
    plane = getattr(service, "telemetry", None)
    return TelemetryController(
        plane=plane,
        interval_s=args.telemetry_interval or 1.0,
        source="router" if plane is not None else "service",
        objectives=args.slo,
    )


async def _start_telemetry(controller, args):
    """Start ``controller`` (if any) for a started service; returns the
    admin server, which only exists under ``--admin-port``."""
    if controller is None:
        return None
    controller.start()
    if args.admin_port is None:
        return None
    admin = AdminServer(controller, host=args.admin_host, port=args.admin_port)
    await admin.start()
    print(
        f"repro-serve admin on http://{args.admin_host}:{admin.port} "
        f"(/stats /metrics /slo /healthz)",
        flush=True,
    )
    return admin


async def _stop_telemetry(controller, admin) -> None:
    """Tear telemetry down — call *before* ``service.stop()`` so the
    final local sample precedes the shard-metrics fold (see
    :mod:`repro.serve.telemetry` on stop ordering)."""
    if admin is not None:
        await admin.stop()
    if controller is not None:
        await controller.stop()


async def _serve_async(args) -> int:
    service = _build_service(args)
    controller = _telemetry_controller(service, args)
    await service.start()
    admin = server = None
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
        admin = await _start_telemetry(controller, args)
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
        await _stop_telemetry(controller, admin)
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
    controller = _telemetry_controller(service, args)
    await service.start()
    admin = None
    try:
        admin = await _start_telemetry(controller, args)
        result = await run_load(
            service, requests, rate=args.rate, seed=args.seed
        )
        summary = summarize(result)
        if args.verify_bytes:
            summary["byte_mismatches"] = await _verify_bytes(
                service, requests, result
            )
    finally:
        await _stop_telemetry(controller, admin)
        await service.stop()
    if controller is not None:
        # Post-stop: the final sample and the shard fold both landed, so
        # this is the whole run's SLO verdict (and it re-records the
        # slo.* gauges over the complete totals for the --json report).
        statuses = controller.tracker.record(
            obs.get_metrics().snapshot(), obs.get_metrics()
        )
        summary["slo"] = [status.to_dict() for status in statuses]
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
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote report {args.json}")
    if args.trace:
        written = obs.write_chrome_trace(args.trace)
        print(f"wrote trace {args.trace} ({written} events)")
    failed = summary["error"] or summary.get("byte_mismatches", 0)
    return 1 if failed else 0


def _fetch_stats(url: str) -> dict:
    from urllib.request import urlopen

    with urlopen(url, timeout=5.0) as response:
        return json.loads(response.read().decode("utf-8"))


def _render_top(stats: dict) -> str:
    """One terminal frame of the live stats payload."""
    def digest_line(label: str, digest: dict | None) -> str:
        digest = digest or {}
        return (
            f"{label:<12} p50 {digest.get('p50', 0.0):>9.2f}  "
            f"p95 {digest.get('p95', 0.0):>9.2f}  "
            f"p99 {digest.get('p99', 0.0):>9.2f}  "
            f"max {digest.get('max', 0.0):>9.2f}  "
            f"n {digest.get('count', 0):.0f}"
        )

    window = stats.get("window", {})
    health = stats.get("health", {})
    lines = [
        f"cnvlutin serving — up {stats.get('uptime_s', 0.0):.0f}s, "
        f"window {window.get('span_s', 0.0):.1f}s @ "
        f"{window.get('throughput_rps', 0.0):.1f} rps, "
        f"shards {health.get('live_shards', 0)} live / "
        f"{health.get('reporting_shards', 0)} reporting, "
        f"deaths {health.get('deaths', 0)}, "
        f"respawns {health.get('respawns', 0)}, "
        f"quarantines {health.get('quarantines', 0)}",
        "",
        "latency (ms)",
        digest_line("  total", stats.get("latency_ms")),
        digest_line("  window", window.get("latency_ms")),
        "",
        "sources",
    ]
    for name, info in sorted(stats.get("sources", {}).items()):
        digest = info.get("latency_ms") or {}
        mode = "local" if info.get("local") else "pull"
        lines.append(
            f"  {name:<10} {mode:<6} age {info.get('age_s', 0.0):>6.1f}s  "
            f"req {info.get('requests', 0.0):>9.0f}  "
            f"p50 {digest.get('p50', 0.0):>9.2f}  "
            f"p99 {digest.get('p99', 0.0):>9.2f}"
        )
    slo = stats.get("slo", [])
    if slo:
        lines.append("")
        lines.append("slo")
        for status in slo:
            verdict = "ok" if status.get("healthy") else "BURNING"
            lines.append(
                f"  {status.get('name', '?'):<16} {verdict:<8} "
                f"value {status.get('value', 0.0):<12.4g} "
                f"target {status.get('target', 0.0):<12.4g} "
                f"burn {status.get('burn_rate', 0.0):.2f}"
            )
    watermarks = stats.get("watermarks", {})
    depth = watermarks.get("serve.queue_depth.max")
    if depth is not None:
        lines.append("")
        lines.append(f"queue depth high watermark: {depth:.0f}")
    return "\n".join(lines)


async def _top_async(args) -> int:
    url = f"http://{args.host}:{args.port}/stats"
    while True:
        try:
            stats = await asyncio.to_thread(_fetch_stats, url)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {url}: {exc}", file=sys.stderr)
            return 2
        frame = _render_top(stats)
        if args.once:
            print(frame)
            return 0
        # ANSI clear + home: a cheap full-screen refresh, like top(1).
        print(f"\x1b[2J\x1b[H{frame}", flush=True)
        await asyncio.sleep(args.interval)


async def _verify_bytes(service, requests, result) -> int:
    """Count ok responses whose canonical bytes diverge from direct
    inference — the zero-corrupted-responses gate of the chaos suite."""
    from repro.serve.models import direct_response

    repo = service.repo  # InferenceService and ShardedService both carry one
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

    top = sub.add_parser(
        "top", help="terminal view polling a running admin endpoint"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True,
                     help="admin endpoint port (--admin-port of the server)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (no screen clearing)")
    top.set_defaults(runner=_top_async)

    args = parser.parse_args(argv)
    return asyncio.run(args.runner(args))


if __name__ == "__main__":
    sys.exit(main())
