"""Parallel scheduling of (experiment × network) work units.

``run_all`` decomposes into independent work units — one per (experiment,
network) pair, plus network-independent singletons (fig11's area model,
fig14's trained-small-CNN greedy search).  Units that share a network
form a *chain*: they need the same expensive primitives (calibrated
weights, forward activations), so the chain executes sequentially inside
one worker process sharing one in-memory :class:`ExperimentContext`,
while distinct chains run concurrently on the process pool, up to
``jobs`` workers.  Every derived artifact a unit computes is persisted
to the shared content-addressed
:class:`~repro.experiments.manifest.ArtifactCache`, so reruns — and the
parent — never recompute what any worker already produced.

After the pool drains, the parent performs a deterministic *assembly*
pass: the unchanged serial experiment loop, which finds all expensive
artifacts already cached and therefore reproduces the serial paper-order
output exactly (floats survive the JSON round-trip bit-for-bit).

Failure handling (see :mod:`repro.reliability`): every unit gets
``RetryPolicy.max_attempts`` tries with deterministic exponential
backoff between attempts.  A worker that dies (``BrokenProcessPool``) or
blows its wall-clock budget takes its pool down; the pool is respawned
and only incomplete units are resubmitted — completed units keep their
records, and retried units find their finished artifacts in the cache,
so a retry costs far less than the first attempt.  Units that exhaust
their attempts are *recorded* as failed rather than aborting the run;
the assembly pass decides whether that is fatal (``--strict``) or
degrades to explicitly-marked partial tables.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable

from repro import obs
from repro.experiments.config import PaperConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.manifest import UnitRecord
from repro.hw.config import PAPER_CONFIG, ArchConfig
from repro.reliability import FaultInjector, RetryPolicy

__all__ = ["WorkUnit", "plan_units", "execute_units", "run_unit", "run_chain"]

#: Experiments whose result does not depend on any network context.
GLOBAL_EXPERIMENTS = ("fig11",)


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of ``run_all``.

    ``kind`` selects what the worker executes:

    ``experiment``  the registered experiment on a single-network config
    ``sweep``       the full threshold-sweep ladder for one network
                    (fig14's per-network half, superset of fig9/table2)
    ``smallcnn``    fig14's trained-small-CNN greedy search
    """

    experiment: str
    network: str | None
    kind: str = "experiment"

    @property
    def label(self) -> str:
        if self.kind == "smallcnn":
            return f"{self.experiment}:smallcnn"
        return f"{self.experiment}:{self.network or 'all'}"

    @property
    def affinity(self) -> str:
        """Units with equal affinity share a chain (and a worker context)."""
        if self.network is not None:
            return self.network
        return f"@{self.label}"

    @property
    def fault_site(self) -> str:
        """This unit's fault-injection site name, e.g. ``unit:fig9/nin``."""
        if self.kind == "smallcnn":
            return f"unit:{self.experiment}/smallcnn"
        return f"unit:{self.experiment}/{self.network or 'all'}"


def plan_units(config: PaperConfig, names: list[str]) -> list[WorkUnit]:
    """Decompose the selected experiments into work units, paper order."""
    units: list[WorkUnit] = []
    for name in names:
        if name in GLOBAL_EXPERIMENTS:
            units.append(WorkUnit(name, None))
        elif name == "fig14":
            for network in config.networks:
                units.append(WorkUnit(name, network, kind="sweep"))
            if config.smallcnn:
                units.append(WorkUnit(name, None, kind="smallcnn"))
        else:
            for network in config.networks:
                units.append(WorkUnit(name, network))
    return units


def run_unit(
    ctx: ExperimentContext,
    unit: WorkUnit,
    phase: str = "parallel",
    attempt: int = 0,
    injector: FaultInjector | None = None,
) -> UnitRecord:
    """Execute one work unit against ``ctx``; returns its manifest record.

    The valuable output is the set of derived artifacts persisted to the
    content-addressed cache — per-unit aggregates are discarded.  The
    fault site ``unit:<experiment>/<network>`` fires with the attempt
    number as its trial index, so a ``@0`` rule fails exactly the first
    try and lets the retry succeed.
    """
    from repro.experiments.fig14_pruning import smallcnn_tradeoff
    from repro.experiments.runner import EXPERIMENTS
    from repro.experiments.thresholds import sweep_deltas

    if injector is None:
        injector = FaultInjector.from_settings()
    start = time.perf_counter()
    snapshot = ctx.artifacts.counters()
    status, error, trace = "ok", "", ""
    with obs.span(
        f"unit:{unit.label}", cat="unit", unit=unit.label, attempt=attempt,
        phase=phase, kind=unit.kind,
    ) as unit_span:
        try:
            injector.fire(unit.fault_site, trial=attempt)
            if unit.kind == "sweep":
                sweep_deltas(ctx, unit.network)
            elif unit.kind == "smallcnn":
                smallcnn_tradeoff(ctx)
            else:
                EXPERIMENTS[unit.experiment](ctx)
        except Exception as exc:  # recorded; the caller decides retry vs surface
            status, error = "error", f"{type(exc).__name__}: {exc}"
            trace = traceback.format_exc()
        unit_span.set(status=status)
    obs.counter_add(f"unit.attempts.{status}")
    delta = ctx.artifacts.delta_since(snapshot)
    return UnitRecord(
        unit=unit.label,
        experiment=unit.experiment,
        network=unit.network,
        phase=phase,
        worker=os.getpid(),
        seconds=time.perf_counter() - start,
        cache_hits=delta["hits"],
        cache_misses=delta["misses"],
        status=status,
        error=error,
        attempts=attempt + 1,
        traceback=trace,
    )


def run_chain(
    config: PaperConfig,
    arch: ArchConfig,
    units: list[WorkUnit],
    attempts: list[int] | None = None,
) -> list[UnitRecord]:
    """Execute one affinity chain in this process, sharing one context.

    All units in a chain target the same network (or are a singleton), so
    a single context restricted to that network lets later units reuse
    the forwards and calibration earlier units already built in memory —
    zero duplicate computation inside a run.  ``attempts`` carries each
    unit's 0-based attempt number across pool respawns.
    """
    if attempts is None:
        attempts = [0] * len(units)
    network = units[0].network
    cfg = replace(config, networks=[network]) if network is not None else config
    ctx = ExperimentContext(cfg, arch=arch)
    injector = FaultInjector.from_settings()
    return [
        run_unit(ctx, unit, attempt=attempt, injector=injector)
        for unit, attempt in zip(units, attempts)
    ]


def _worker_chain(
    config: PaperConfig,
    arch: ArchConfig,
    units: list[WorkUnit],
    attempts: list[int],
    trace: bool = False,
) -> dict:
    """Pool entry point: fire the ``pool:worker`` fault site, then run.

    ``pool:worker=crash`` rules hard-kill this process here, which the
    parent observes as a ``BrokenProcessPool`` — the same signal a
    segfault or the OOM killer produces.

    Returns ``{"records", "events", "metrics"}``: alongside the unit
    records, the worker drains its span buffer (when ``trace`` asked for
    tracing) and takes a metrics snapshot, so the parent can merge both
    into one coherent per-run trace/registry.  Draining per task means a
    reused worker never re-ships what it already reported.
    """
    if trace:
        obs.enable_tracing()
    FaultInjector.from_settings().fire("pool:worker")
    records = run_chain(config, arch, units, attempts)
    return {
        "records": records,
        "events": obs.drain_events() if trace else [],
        "metrics": obs.take_snapshot(),
    }


def _lost_unit_record(unit: WorkUnit, attempt: int, status: str, error: str) -> UnitRecord:
    """Record for a unit whose worker died or hung before reporting."""
    return UnitRecord(
        unit=unit.label,
        experiment=unit.experiment,
        network=unit.network,
        phase="parallel",
        worker=0,
        seconds=0.0,
        status=status,
        error=error,
        attempts=attempt + 1,
    )


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Tear a pool down; with ``kill`` terminate workers first (hung or
    crashed pools cannot drain their queues on their own)."""
    processes = list(getattr(pool, "_processes", {}).values()) if kill else []
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=not kill, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:
            pass


def execute_units(
    config: PaperConfig,
    units: list[WorkUnit],
    jobs: int,
    arch: ArchConfig = PAPER_CONFIG,
    policy: RetryPolicy | None = None,
    checkpoint: Callable[[list[UnitRecord]], None] | None = None,
) -> list[UnitRecord]:
    """Run the units under ``policy``; one pool task per affinity chain.

    Returns final records in planning order regardless of completion
    order, so the manifest is deterministic up to timings/worker ids.
    ``checkpoint`` (if given) is invoked with the records-so-far after
    every unit reaches a final state, which is what makes a killed run
    resumable from its manifest.

    Pool-only semantics: per-unit wall-clock timeouts and ``pool:worker``
    faults need a killable worker process, so they apply only on the
    ``jobs > 1`` path; the serial path still retries with backoff.
    """
    policy = policy if policy is not None else RetryPolicy()
    chains: "OrderedDict[str, list[int]]" = OrderedDict()
    for index, unit in enumerate(units):
        chains.setdefault(unit.affinity, []).append(index)

    final: dict[int, UnitRecord] = {}

    def finalize(index: int, record: UnitRecord) -> None:
        final[index] = record
        if checkpoint is not None:
            checkpoint([final[i] for i in sorted(final)])

    if jobs <= 1 or len(chains) <= 1:
        for indices in chains.values():
            chain_units = [units[i] for i in indices]
            network = chain_units[0].network
            cfg = replace(config, networks=[network]) if network is not None else config
            ctx = ExperimentContext(cfg, arch=arch)
            injector = FaultInjector.from_settings()
            for index, unit in zip(indices, chain_units):
                attempt = 0
                while True:
                    record = run_unit(ctx, unit, attempt=attempt, injector=injector)
                    if record.status == "ok" or not policy.retries_left(attempt):
                        finalize(index, record)
                        break
                    time.sleep(policy.delay(unit.label, attempt))
                    attempt += 1
        return [final[index] for index in sorted(final)]

    pending: dict[int, int] = {index: 0 for index in range(len(units))}

    def handle_failure(index: int, record: UnitRecord, delays: list[float]) -> None:
        attempt = pending[index]
        if policy.retries_left(attempt):
            pending[index] = attempt + 1
            delays.append(policy.delay(units[index].label, attempt))
        else:
            finalize(index, record)
            pending.pop(index, None)

    while pending:
        round_chains: "OrderedDict[str, list[int]]" = OrderedDict()
        for index in sorted(pending):
            round_chains.setdefault(units[index].affinity, []).append(index)
        pool = ProcessPoolExecutor(max_workers=jobs)
        futures: dict = {}
        submitted = time.monotonic()
        for indices in round_chains.values():
            chain_units = [units[i] for i in indices]
            chain_attempts = [pending[i] for i in indices]
            future = pool.submit(
                _worker_chain, config, arch, chain_units, chain_attempts,
                trace=obs.tracing_enabled(),
            )
            budget = policy.chain_timeout(len(chain_units))
            deadline = None if budget is None else submitted + budget
            futures[future] = (indices, deadline)
        delays: list[float] = []
        killed = False
        try:
            while futures:
                deadlines = [d for _, d in futures.values() if d is not None]
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                done, _ = wait(set(futures), timeout=timeout, return_when=FIRST_COMPLETED)
                crashed = False
                for future in done:
                    indices, _ = futures.pop(future)
                    try:
                        payload = future.result()
                        chain_records = payload["records"]
                        obs.extend_events(payload["events"])
                        obs.merge_snapshot(payload["metrics"])
                    except BrokenProcessPool as exc:
                        # A worker died mid-round.  Attribution is ambiguous
                        # (every in-flight future raises), so every
                        # uncollected unit burns an attempt — retried units
                        # replay cheaply from the artifact cache.
                        crashed = True
                        for i in indices:
                            handle_failure(
                                i,
                                _lost_unit_record(
                                    units[i], pending[i], "crashed",
                                    f"worker process died: {exc}",
                                ),
                                delays,
                            )
                        continue
                    except Exception as exc:  # pickling/submission failure
                        for i in indices:
                            handle_failure(
                                i,
                                _lost_unit_record(
                                    units[i], pending[i], "error",
                                    f"{type(exc).__name__}: {exc}",
                                ),
                                delays,
                            )
                        continue
                    for i, record in zip(indices, chain_records):
                        if record.status == "ok":
                            finalize(i, record)
                            pending.pop(i, None)
                        else:
                            handle_failure(i, record, delays)
                if crashed:
                    for future, (indices, _) in list(futures.items()):
                        for i in indices:
                            handle_failure(
                                i,
                                _lost_unit_record(
                                    units[i], pending[i], "crashed",
                                    "worker pool broke before this chain reported",
                                ),
                                delays,
                            )
                    futures.clear()
                    killed = True
                    break
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline) in futures.items()
                    if deadline is not None and now >= deadline and not future.done()
                ]
                if expired:
                    for future in expired:
                        indices, _ = futures.pop(future)
                        for i in indices:
                            handle_failure(
                                i,
                                _lost_unit_record(
                                    units[i], pending[i], "timeout",
                                    f"exceeded the {policy.unit_timeout}s/unit "
                                    "wall-clock budget",
                                ),
                                delays,
                            )
                    # The hung worker cannot be cancelled, only killed; the
                    # round's survivors are resubmitted without burning an
                    # attempt and replay from the cache.
                    killed = True
                    break
        finally:
            _shutdown_pool(pool, kill=killed)
        if delays and pending:
            time.sleep(max(delays))
    return [final[index] for index in sorted(final)]
