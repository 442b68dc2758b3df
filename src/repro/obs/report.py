"""``repro-obs`` — render observability reports from run manifests.

Answers "where did the time go and how did the caches behave" from any
saved run manifest (schema v4; older manifests load tolerantly — v2
with empty metrics, v3 without quantile sketches) without rerunning a
single experiment::

    repro-obs report manifest.json
    repro-obs report manifest.json --top 10
    python -m repro.obs.report report manifest.json

The report is assembled from the manifest's unit records plus the merged
metrics snapshot the run serialized (see :mod:`repro.obs.metrics`):

* self-time by experiment and the slowest work units (per-unit seconds,
  attempts, cache traffic);
* per-layer and per-network forward-compute breakdowns from the
  ``nn.layer.<network>.<layer>`` histograms (the answer to "which
  layer's forward dominates");
* engine-cache hit rate (``engine.cache.*``), artifact-cache
  store/hit/quarantine counts, and retry/backoff/fault-injection
  summaries;
* a serving summary (``serve.*``, when present): request outcomes with
  the shed rate, batch count/size, retries, and latency — the
  ``repro-serve`` namespaces;
* a sharded-serving summary (``router.*`` / ``shard.*``, when present):
  forwarded/shed/failover/death/respawn counts, per-shard forward
  distribution, and the shared-weight arena size;
* an integrity summary (``integrity.*``, when present): ABFT / CRC
  check and detection counts, quarantines by reason, arena republishes,
  canary probes, injected weight flips, and stale arenas swept;
* a backend-activity table (``activity.*`` gauges, when present): the
  per-(backend, network) activity-counter profile every timing
  simulator publishes, labelled with registry backend names.

Serving latency lines include p50/p95/p99 wherever the manifest's
histograms carry the quantile sketch (v4+); pre-sketch manifests keep
their mean/max lines.  A ``repro-serve loadgen --json`` report renders
the same way, under a header read from its ``config`` and ``summary``
(scale, shards, wall time, requests): its ``metrics`` snapshot is taken
after the service stopped, so with ``--shards`` it holds every shard's
counts, pulled once at stop.

The experiment runner's ``--metrics`` flag prints the same report for
the run it just finished.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.metrics import Histogram

__all__ = ["metrics_report", "main"]


def _format_table(rows: list[dict]) -> str:
    from repro.experiments.report import format_table

    return format_table(rows)


def _layer_rows(histograms: dict, top: int) -> tuple[list[dict], list[dict]]:
    """(per-layer rows, per-network rows) from ``nn.layer.*`` histograms."""
    layers: list[dict] = []
    networks: dict[str, dict] = {}
    for name, payload in histograms.items():
        if not name.startswith("nn.layer."):
            continue
        _, _, rest = name.partition("nn.layer.")
        network, _, layer = rest.partition(".")
        count = int(payload.get("count", 0))
        total = float(payload.get("total", 0.0))
        layers.append(
            {
                "network": network,
                "layer": layer or "?",
                "computes": count,
                "seconds": round(total, 4),
                "mean_ms": round(1e3 * total / count, 3) if count else 0.0,
            }
        )
        agg = networks.setdefault(
            network, {"network": network, "layers": 0, "computes": 0, "seconds": 0.0}
        )
        agg["layers"] += 1
        agg["computes"] += count
        agg["seconds"] += total
    layers.sort(key=lambda row: -row["seconds"])
    network_rows = sorted(networks.values(), key=lambda row: -row["seconds"])
    for row in network_rows:
        row["seconds"] = round(row["seconds"], 4)
    return layers[:top], network_rows


def _experiment_rows(units: list[dict]) -> list[dict]:
    perexp: dict[str, dict] = {}
    total = sum(unit.get("seconds", 0.0) for unit in units) or 1.0
    for unit in units:
        name = unit.get("experiment") or unit.get("unit", "?")
        agg = perexp.setdefault(
            name, {"experiment": name, "units": 0, "seconds": 0.0, "attempts": 0}
        )
        agg["units"] += 1
        agg["seconds"] += unit.get("seconds", 0.0)
        agg["attempts"] += unit.get("attempts", 1)
    rows = sorted(perexp.values(), key=lambda row: -row["seconds"])
    for row in rows:
        row["share"] = f"{row['seconds'] / total:.0%}"
        row["seconds"] = round(row["seconds"], 3)
    return rows


def _unit_rows(units: list[dict], top: int) -> list[dict]:
    rows = [
        {
            "unit": unit.get("unit", "?"),
            "phase": unit.get("phase", "?"),
            "worker": unit.get("worker", 0),
            "seconds": round(unit.get("seconds", 0.0), 3),
            "hits": unit.get("cache_hits", 0),
            "misses": unit.get("cache_misses", 0),
            "attempts": unit.get("attempts", 1),
            "status": unit.get("status", "?"),
        }
        for unit in sorted(units, key=lambda u: -u.get("seconds", 0.0))
    ]
    return rows[:top]


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    return f"{hits / total:.0%}" if total else "n/a"


def metrics_report(manifest: dict, top: int = 15) -> str:
    """Human-readable observability report for one run-manifest dict."""
    units = manifest.get("units", [])
    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    cache = manifest.get("cache", {})

    if "config" in manifest and "summary" in manifest:
        # A repro-serve loadgen --json report: no units, no version.
        config, summary = manifest["config"], manifest["summary"]
        header = (
            f"scale={config.get('scale', '?')} "
            f"shards={config.get('shards') or 0} "
            f"wall={summary.get('wall_s', 0.0):.1f}s "
            f"requests={summary.get('requests', 0)} (loadgen report)"
        )
    else:
        header = (
            f"scale={manifest.get('scale', '?')} "
            f"jobs={manifest.get('jobs', '?')} "
            f"wall={manifest.get('wall_seconds', 0.0):.1f}s "
            f"units={len(units)} "
            f"(manifest v{manifest.get('version', 1)})"
        )
    parts: list[str] = [f"== obs report: {header} =="]

    if units:
        parts.append("\n-- self time by experiment (worst first) --")
        parts.append(_format_table(_experiment_rows(units)))
        parts.append(f"\n-- slowest work units (top {top}) --")
        parts.append(_format_table(_unit_rows(units, top)))

    layer_rows, network_rows = _layer_rows(histograms, top)
    if layer_rows:
        parts.append(f"\n-- forward compute by layer (top {top}) --")
        parts.append(_format_table(layer_rows))
        parts.append("\n-- forward compute by network --")
        parts.append(_format_table(network_rows))

    engine_hits = counters.get("engine.cache.hits", 0)
    engine_misses = counters.get("engine.cache.misses", 0)
    # Prefer the merged metrics counters (they include worker-process
    # stores); a v2 manifest only has its own cache section.
    art_hits = counters.get("artifact.hits", cache.get("hits", 0))
    art_misses = counters.get("artifact.misses", cache.get("misses", 0))
    art_stores = counters.get("artifact.stores", cache.get("stores", 0))
    art_quarantined = counters.get(
        "artifact.quarantined", cache.get("quarantined", 0)
    )
    parts.append(
        "\n-- caches --\n"
        f"engine cache: {engine_hits:.0f} hits / {engine_misses:.0f} misses / "
        f"{counters.get('engine.cache.evictions', 0):.0f} evictions "
        f"({_rate(engine_hits, engine_misses)} hit rate)\n"
        f"artifact cache: {art_hits:.0f} hits / {art_misses:.0f} misses / "
        f"{art_stores:.0f} stores / {art_quarantined:.0f} quarantined "
        f"({_rate(art_hits, art_misses)} hit rate)"
    )

    serve_requests = counters.get("serve.requests", 0)
    if serve_requests:
        batch_hist = histograms.get("serve.batch_size", {})
        latency_hist = histograms.get("serve.latency_ms", {})
        batches = counters.get("serve.batches", 0)
        batch_count = int(batch_hist.get("count", 0))
        shed = counters.get("serve.shed", 0)
        mean_batch = (
            float(batch_hist.get("total", 0.0)) / batch_count
            if batch_count else 0.0
        )
        latency_count = int(latency_hist.get("count", 0))
        mean_latency = (
            float(latency_hist.get("total", 0.0)) / latency_count
            if latency_count else 0.0
        )
        # Quantiles only when the payload carries the sketch (v4+
        # manifests); pre-sketch manifests keep the mean/max line.
        quantiles = ""
        if latency_hist.get("buckets"):
            digest = Histogram.from_dict(latency_hist).percentiles()
            quantiles = (
                f"p50 {digest['p50']:.1f} / p95 {digest['p95']:.1f} / "
                f"p99 {digest['p99']:.1f} ms, "
            )
        queue_line = (
            f"queue depth last {gauges.get('serve.queue_depth', 0):.0f}"
        )
        if "serve.queue_depth.max" in gauges:
            queue_line += f" (max {gauges['serve.queue_depth.max']:.0f})"
        parts.append(
            "\n-- serving --\n"
            f"requests: {serve_requests:.0f} "
            f"({counters.get('serve.completed', 0):.0f} ok / {shed:.0f} shed / "
            f"{counters.get('serve.timeouts', 0):.0f} timeout / "
            f"{counters.get('serve.errors', 0):.0f} error; "
            f"shed rate {shed / serve_requests:.0%})\n"
            f"batches: {batches:.0f} "
            f"(mean size {mean_batch:.1f}, max {batch_hist.get('max', 0):.0f}; "
            f"retries {counters.get('serve.retries', 0):.0f})\n"
            f"latency: mean {mean_latency:.1f} ms, {quantiles}"
            f"max {latency_hist.get('max', 0.0):.1f} ms; "
            f"{queue_line}"
        )

    router_requests = counters.get("router.requests", 0)
    if router_requests:
        forward_hist = histograms.get("router.forward_ms", {})
        forward_count = int(forward_hist.get("count", 0))
        mean_forward = (
            float(forward_hist.get("total", 0.0)) / forward_count
            if forward_count else 0.0
        )
        shed = counters.get("router.shed", 0)
        per_shard = [
            f"  shard{name[len('router.forwarded.shard'):]}: {value:.0f} "
            f"forwarded"
            for name, value in sorted(counters.items())
            if name.startswith("router.forwarded.shard")
        ]
        parts.append(
            "\n-- sharded serving --\n"
            f"router: {router_requests:.0f} requests "
            f"({counters.get('router.forwarded', 0):.0f} forwarded / "
            f"{shed:.0f} shed / "
            f"{counters.get('router.errors', 0):.0f} error; "
            f"shed rate {shed / router_requests:.0%})\n"
            f"failover: {counters.get('router.retries', 0):.0f} retries, "
            f"{counters.get('router.failovers', 0):.0f} failovers, "
            f"{counters.get('router.deaths', 0):.0f} deaths, "
            f"{counters.get('router.respawns', 0):.0f} respawns; "
            f"live shards {gauges.get('router.live_shards', 0):.0f}\n"
            + (
                "forward: mean {mean:.1f} ms, p50 {p50:.1f} / "
                "p95 {p95:.1f} / p99 {p99:.1f} ms, ".format(
                    mean=mean_forward,
                    **Histogram.from_dict(forward_hist).percentiles(),
                )
                if forward_hist.get("buckets")
                else f"forward: mean {mean_forward:.1f} ms, "
            )
            + f"max {forward_hist.get('max', 0.0):.1f} ms "
            f"(shared weights: "
            f"{counters.get('engine.shared.attached', 0):.0f} attach(es), "
            f"{gauges.get('engine.shared.bytes.max', 0) / 1e6:.1f} MB arena)"
        )
        if per_shard:
            parts.append("\n".join(per_shard))

    if any(name.startswith("integrity.") for name in counters):
        detected = [
            f"{name[len('integrity.detected.'):]}: {value:.0f}"
            for name, value in sorted(counters.items())
            if name.startswith("integrity.detected.")
        ]
        quarantines = [
            f"{name[len('integrity.quarantines.'):]}: {value:.0f}"
            for name, value in sorted(counters.items())
            if name.startswith("integrity.quarantines.")
        ]
        parts.append(
            "\n-- integrity --\n"
            f"checks: {counters.get('integrity.checks.abft', 0):.0f} ABFT / "
            f"{counters.get('integrity.checks.crc', 0):.0f} CRC; "
            f"detected: {', '.join(detected) if detected else 'none'}\n"
            f"healing: {counters.get('integrity.quarantines', 0):.0f} "
            f"quarantine(s)"
            f"{' (' + ', '.join(quarantines) + ')' if quarantines else ''}, "
            f"{counters.get('integrity.republishes', 0):.0f} republish(es); "
            f"canary probes: "
            f"{counters.get('integrity.canary.probes', 0):.0f}\n"
            f"injected weight flips: "
            f"{counters.get('integrity.faults.weight_flips', 0):.0f}; "
            f"stale arenas swept: "
            f"{counters.get('integrity.arena.swept', 0):.0f}"
        )

    activity: dict[tuple[str, str], dict[str, float]] = {}
    for name, value in gauges.items():
        if not name.startswith("activity."):
            continue
        fields = name[len("activity."):].split(".")
        if len(fields) != 3:
            continue
        arch, network, counter = fields
        activity.setdefault((arch, network), {})[counter] = value
    if activity:
        # Registry lookup resolves each gauge's architecture string to its
        # backend name; architectures from other builds render as-is.
        from repro.backends import architectures

        arch_names = architectures()
        order = {arch: idx for idx, arch in enumerate(arch_names)}
        activity_rows = [
            {
                "backend": arch_names.get(arch, arch),
                "architecture": arch,
                "network": network,
                "mults": f"{counts.get('mults', 0.0):.3e}",
                "counters": len(counts),
                "total_events": f"{sum(counts.values()):.3e}",
            }
            for (arch, network), counts in sorted(
                activity.items(),
                key=lambda kv: (order.get(kv[0][0], len(order)), kv[0]),
            )
        ]
        parts.append("\n-- backend activity --")
        parts.append(_format_table(activity_rows))

    extra_attempts = sum(max(0, unit.get("attempts", 1) - 1) for unit in units)
    fault_lines = [
        f"  {name[len('faults.injected.'):]}: {value:.0f}"
        for name, value in sorted(counters.items())
        if name.startswith("faults.injected.")
    ]
    parts.append(
        "\n-- retries / faults --\n"
        f"unit retries: {extra_attempts} extra attempt(s) across "
        f"{len(units)} unit(s); "
        f"backoffs scheduled: {counters.get('retry.scheduled', 0):.0f} "
        f"({counters.get('retry.backoff_seconds', 0):.2f}s planned); "
        f"faults injected: {counters.get('faults.injected', 0):.0f}"
    )
    if fault_lines:
        parts.append("\n".join(fault_lines))
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="summarize a run manifest")
    report.add_argument("manifest", help="run manifest JSON (schema v4)")
    report.add_argument(
        "--top", type=int, default=15,
        help="rows per breakdown table (default 15)",
    )
    args = parser.parse_args(argv)

    path = Path(args.manifest)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        print(f"error: no such manifest {path}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(manifest, dict):
        print(f"error: {path} is not a manifest object", file=sys.stderr)
        return 2
    try:
        print(metrics_report(manifest, top=args.top))
    except BrokenPipeError:  # |head is a normal way to read a report
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
