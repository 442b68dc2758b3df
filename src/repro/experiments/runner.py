"""Run every paper experiment and print (or save) the regenerated tables.

Command line::

    cnvlutin-experiments --scale reduced
    cnvlutin-experiments --scale full --only fig9,fig13 --output results.md
    cnvlutin-experiments --scale reduced --jobs 4 --profile

Each experiment prints the same rows/series the paper's table or figure
reports, alongside the paper's published values where the text quotes them.

With ``--jobs N`` the run decomposes into (experiment × network) work
units executed on a process pool (see :mod:`repro.experiments.parallel`);
the final tables come from a deterministic serial assembly pass over the
shared artifact cache, so the output is identical to ``--jobs 1``.  Every
run records a :class:`~repro.experiments.manifest.RunManifest` (per-unit
wall time, worker id, cache hit/miss counters); ``--profile`` prints it
and ``--manifest PATH`` writes it as JSON.

Observability (see :mod:`repro.obs`): ``--trace trace.json`` records
per-layer, per-unit, per-attempt, and per-experiment spans — worker
processes included — and writes them as one Chrome trace-event file;
``--metrics`` prints the self-time/cache/retry report after the run
(also available later from the saved manifest via ``repro-obs report``).
The merged metrics snapshot is embedded in the manifest (schema v3).

Fault tolerance (see :mod:`repro.reliability`): failed units retry with
exponential backoff (``--retries``), hung workers are killed after a
per-unit wall-clock budget (``--unit-timeout``), the manifest is
checkpointed incrementally as units finish, and ``--resume MANIFEST``
re-executes only the units a previous (killed or failed) run did not
complete.  Assembly degrades gracefully by default — an experiment that
still cannot compute emits an explicitly-marked FAILED table instead of
aborting the run — while ``--strict`` restores fail-fast.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from pathlib import Path

from repro import obs
from repro.argtypes import field
from repro.experiments import (
    fig1_zero_fraction,
    fig9_backends,
    fig9_speedup,
    fig10_breakdown,
    fig11_area,
    fig12_power,
    fig13_edp,
    fig14_pruning,
    table1_networks,
    table2_thresholds,
)
from repro.experiments.config import SCALES, PaperConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.manifest import RunManifest, UnitRecord
from repro.experiments.report import ExperimentResult, results_to_json_doc
from repro.reliability import RetryPolicy

__all__ = ["EXPERIMENTS", "run_all", "run_all_with_manifest", "main"]

#: Experiment registry, in paper order.
EXPERIMENTS = {
    "fig1": fig1_zero_fraction.run,
    "table1": table1_networks.run,
    "fig9": fig9_speedup.run,
    "fig9_backends": fig9_backends.run,
    "fig10": fig10_breakdown.run,
    "fig11": fig11_area.run,
    "fig12": fig12_power.run,
    "fig13": fig13_edp.run,
    "table2": table2_thresholds.run,
    "fig14": fig14_pruning.run,
}


def _validate_names(names: list[str]) -> None:
    """Reject unknown experiment names before anything runs (so a typo in
    ``--only a,b,typo`` cannot waste the experiments preceding it)."""
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {unknown!r}; choose from {list(EXPERIMENTS)}"
        )


def _validate_networks(networks: list[str]) -> None:
    """Reject unknown network names before anything runs — an unknown
    network is an input error (exit 2), not a degradable unit failure."""
    from repro.nn.models import NETWORK_BUILDERS

    unknown = [name for name in networks if name not in NETWORK_BUILDERS]
    if unknown:
        raise KeyError(
            f"unknown network(s) {unknown!r}; choose from {sorted(NETWORK_BUILDERS)}"
        )


def _failed_result(name: str, exc: Exception) -> ExperimentResult:
    """The explicitly-marked placeholder a failed experiment assembles to."""
    return ExperimentResult(
        experiment=name,
        title=f"{name} FAILED",
        rows=[{"status": "FAILED", "error": f"{type(exc).__name__}: {exc}"}],
        notes="experiment failed after retries; rerun with --strict to "
        "fail fast, or --resume the manifest to re-execute it",
    )


def run_all_with_manifest(
    config: PaperConfig | None = None,
    only: list[str] | None = None,
    verbose: bool = True,
    charts: bool = False,
    jobs: int = 1,
    policy: RetryPolicy | None = None,
    strict: bool = True,
    resume: Path | str | None = None,
    checkpoint_path: Path | str | None = None,
) -> tuple[list[ExperimentResult], RunManifest]:
    """Run the selected experiments; returns (results, run manifest).

    ``jobs > 1`` schedules (experiment × network) work units on a process
    pool first (warming the content-addressed artifact cache), then
    assembles the results with the same serial loop ``jobs == 1`` uses —
    the printed tables and JSON are identical either way.

    ``policy`` governs per-unit retries/timeouts (default
    :class:`~repro.reliability.RetryPolicy`).  ``resume`` names a prior
    run's manifest: its successfully-completed units are carried over
    (phase ``carried``) and only failed/missing units re-execute.
    ``checkpoint_path`` (set automatically by the CLI) persists the
    manifest incrementally after every unit, so a killed run is
    resumable.  With ``strict`` false, an experiment that still fails in
    assembly yields an explicitly-marked FAILED table instead of raising.
    """
    from repro.experiments import charts as chart_mod
    from repro.experiments.parallel import execute_units, plan_units

    config = config if config is not None else PaperConfig()
    prior = None
    if resume is not None:
        prior = RunManifest.load(resume)
        if only is None and prior.experiments:
            only = list(prior.experiments)
    names = list(only) if only is not None else list(EXPERIMENTS)
    _validate_names(names)
    _validate_networks(list(config.networks))

    ctx = ExperimentContext(config)
    manifest = RunManifest(
        scale=config.scale,
        seed=config.seed,
        networks=list(config.networks),
        jobs=jobs,
        config_hash=ctx.artifacts.config_hash,
        experiments=names,
    )
    run_start = time.perf_counter()

    completed: set[str] = set()
    carried: list[UnitRecord] = []
    if prior is not None:
        if prior.config_hash != ctx.artifacts.config_hash:
            raise ValueError(
                "--resume manifest was produced by a different configuration "
                f"(config_hash {prior.config_hash[:12]} != "
                f"{ctx.artifacts.config_hash[:12]}); rerun without --resume"
            )
        completed = prior.completed_units()
        for record in prior.units:
            if record.unit in completed and record.phase in ("parallel", "carried"):
                carried.append(
                    UnitRecord.from_dict({**record.to_dict(), "phase": "carried"})
                )
        for record in carried:
            manifest.add_unit(record)

    def checkpoint(records: list[UnitRecord]) -> None:
        if checkpoint_path is None:
            return
        snapshot = RunManifest(
            scale=manifest.scale,
            seed=manifest.seed,
            networks=list(manifest.networks),
            jobs=manifest.jobs,
            config_hash=manifest.config_hash,
            experiments=list(manifest.experiments),
            wall_seconds=time.perf_counter() - run_start,
        )
        for record in carried:
            snapshot.add_unit(record)
        for record in records:
            snapshot.add_unit(record)
        snapshot.save(checkpoint_path)

    if jobs > 1 or resume is not None:
        units = [
            unit
            for unit in plan_units(config, names)
            if unit.label not in completed
        ]
        for record in execute_units(
            config, units, jobs=jobs, arch=ctx.arch,
            policy=policy, checkpoint=checkpoint,
        ):
            manifest.add_unit(record)

    unit_phase_ran = jobs > 1 or resume is not None
    phase = "assembly" if unit_phase_ran else "serial"
    results = []
    for name in names:
        snapshot = ctx.artifacts.counters()
        start = time.perf_counter()
        status, error, trace = "ok", "", ""
        with obs.span(
            f"experiment:{name}", cat="experiment", experiment=name, phase=phase
        ) as exp_span:
            try:
                result = EXPERIMENTS[name](ctx)
            except Exception as exc:
                if strict:
                    raise
                status, error = "error", f"{type(exc).__name__}: {exc}"
                trace = traceback.format_exc()
                result = _failed_result(name, exc)
            exp_span.set(status=status)
        results.append(result)
        delta = ctx.artifacts.delta_since(snapshot)
        manifest.add_unit(
            UnitRecord(
                unit=f"{name}:{phase}" if unit_phase_ran else name,
                experiment=name,
                network=None,
                phase=phase,
                worker=os.getpid(),
                seconds=time.perf_counter() - start,
                cache_hits=delta["hits"],
                cache_misses=delta["misses"],
                status=status,
                error=error,
                traceback=trace,
            )
        )
        if verbose:
            print(result.to_table())
            if charts:
                rendered = chart_mod.render(result)
                if rendered:
                    print()
                    print(rendered)
            print(f"[{name} took {time.perf_counter() - start:.1f}s]\n")
    manifest.wall_seconds = time.perf_counter() - run_start
    manifest.cache_stores = ctx.artifacts.stores
    manifest.cache_quarantined = ctx.artifacts.quarantined
    # Merged snapshot: the parent registry already folded in every worker
    # snapshot as its chain completed (schema v3).
    manifest.metrics = obs.get_metrics().snapshot()
    if verbose:
        from repro.experiments.summary import headline_summary

        summary = headline_summary(results)
        if summary:
            print(summary)
    return results, manifest


def run_all(
    config: PaperConfig | None = None,
    only: list[str] | None = None,
    verbose: bool = True,
    charts: bool = False,
    jobs: int = 1,
    **kwargs,
) -> list[ExperimentResult]:
    """Run the selected experiments; returns results (manifest discarded).

    Keyword arguments (``policy``, ``strict``, ``resume``, …) pass
    through to :func:`run_all_with_manifest`.
    """
    results, _ = run_all_with_manifest(
        config, only=only, verbose=verbose, charts=charts, jobs=jobs, **kwargs
    )
    return results


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=SCALES, default="reduced")
    parser.add_argument(
        "--only",
        default=None,
        help=f"comma-separated experiment ids ({','.join(EXPERIMENTS)})",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--networks", default=None, help="comma-separated subset")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes for the (experiment x network) work units",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per failed work unit (exponential backoff "
        "with deterministic jitter between attempts)",
    )
    parser.add_argument(
        "--unit-timeout", type=field(RetryPolicy, "unit_timeout", float),
        default=None, metavar="SECONDS",
        help="wall-clock budget per work unit before its worker is "
        "presumed hung and killed (--jobs > 1 only)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="MANIFEST",
        help="re-execute only the units this prior run manifest does not "
        "record as completed",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail fast on the first experiment that cannot assemble "
        "(default: emit an explicitly-marked FAILED table and continue)",
    )
    parser.add_argument(
        "--no-smallcnn", action="store_true",
        help="skip fig14's trained-small-CNN greedy search",
    )
    parser.add_argument("--charts", action="store_true", help="render ASCII figures")
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-unit wall-time/cache profile after the run",
    )
    parser.add_argument(
        "--manifest", default=None,
        help="write the run manifest JSON here "
        "(default with --jobs > 1: <cache_dir>/manifests/latest.json)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="TRACE_JSON",
        help="enable span tracing and write a Chrome trace-event file "
        "(open in Perfetto or chrome://tracing); worker-process spans "
        "are merged into one timeline",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the observability report (self-time per layer/"
        "network/experiment, cache hit rates, retries) after the run",
    )
    parser.add_argument("--output", default=None, help="also write tables to a file")
    parser.add_argument("--json", default=None, help="write results as JSON")
    args = parser.parse_args(argv)

    kwargs = {
        "scale": args.scale,
        "seed": args.seed,
        "use_cache": not args.no_cache,
        "smallcnn": not args.no_smallcnn,
    }
    if args.networks:
        kwargs["networks"] = args.networks.split(",")
    config = PaperConfig(**kwargs)
    only = args.only.split(",") if args.only else None
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    policy = RetryPolicy(
        max_attempts=args.retries + 1,
        unit_timeout=args.unit_timeout,
        seed=args.seed,
    )
    manifest_path = args.manifest
    if manifest_path is None and (args.jobs > 1 or args.resume):
        manifest_path = config.cache_dir / "manifests" / "latest.json"
    if args.trace:
        obs.enable_tracing()
    try:
        results, manifest = run_all_with_manifest(
            config,
            only=only,
            charts=args.charts,
            jobs=args.jobs,
            policy=policy,
            strict=args.strict,
            resume=args.resume,
            checkpoint_path=manifest_path,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        if args.resume:  # unreadable/mismatched resume manifest
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise
    if args.profile:
        print(manifest.profile_table())
        print()
    if args.metrics:
        from repro.obs.report import metrics_report

        print(metrics_report(manifest.to_dict()))
        print()
    if args.trace:
        written = obs.write_chrome_trace(args.trace)
        print(f"wrote trace {args.trace} ({written} events)")
    if manifest_path is not None:
        manifest.save(manifest_path)
        print(f"wrote manifest {manifest_path}")
    if args.output:
        with open(args.output, "w") as handle:
            for result in results:
                handle.write(result.to_table())
                handle.write("\n\n")
        print(f"wrote {args.output}")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(results_to_json_doc(results))
        print(f"wrote {args.json}")
    degraded = [
        unit for unit in manifest.units
        if unit.phase in ("assembly", "serial") and unit.status != "ok"
    ]
    if degraded:
        print(
            f"warning: {len(degraded)} experiment(s) emitted FAILED tables: "
            + ", ".join(unit.experiment for unit in degraded),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
