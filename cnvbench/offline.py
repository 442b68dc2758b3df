"""The offline-regen workload: regenerate every paper table, one caller.

This is ``cnvlutin-experiments --scale reduced --no-smallcnn`` through its
public entry point ``run_all_with_manifest`` (``jobs=1``).  Set-up builds
the calibration into an empty private artifact cache; every timed
regeneration starts from a copy of exactly that cache, so each one
rebuilds weights, forwards, simulates and writes every other artifact.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

from common import Metric, cpu_times, median, peak_rss_mb, reset_peak_rss, steal_fraction

#: google (59 convs, concat branches) stresses per-layer overhead, alex
#: brings grouped conv and LRN, nin is all-conv; vgg19's ~0.5 s forward,
#: repeated through the threshold searches, would dominate everything.
NETWORKS = ("alex", "nin", "cnnS", "google")
SETUPS = 3
#: Regenerations per run: at least three for a median, more when
#: ``--seconds`` allows at the nominal ~10 s of one regeneration.
MIN_REGENERATIONS = 3
REGENERATION_S = 10.0


def paper_config(seed: int, cache):
    from repro.experiments.config import PaperConfig

    return PaperConfig(
        scale="reduced", networks=list(NETWORKS), smallcnn=False,
        seed=seed, cache_dir=cache,
    )


@dataclass
class Measured:
    setup_s: list
    setup_window: tuple
    seconds: list
    tables: list
    misses: list
    wall_s: float
    rss_mb: float
    steal: float
    t0: float
    t1: float
    snapshot: object
    counters: dict = field(default_factory=dict)


def _restore(snapshot, cache) -> None:
    shutil.rmtree(cache, ignore_errors=True)
    shutil.copytree(snapshot, cache)


def _counters():
    from repro import obs

    return dict(obs.get_metrics().snapshot()["counters"])


def measure(seed, regenerations, scratch, setups, tracer=None) -> Measured:
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import run_all_with_manifest

    setup_s = []
    window = (0.0, 0.0)
    for _ in range(setups):
        cache = scratch.fresh("cache")
        gc.collect()
        start = time.perf_counter()
        context = ExperimentContext(paper_config(seed, cache))
        for name in NETWORKS:
            context.network_ctx(name)
        setup_s.append(time.perf_counter() - start)
        window = (start, time.perf_counter())
        del context
    snapshot = scratch.fresh("snapshot")
    shutil.copytree(cache, snapshot, dirs_exist_ok=True)
    config = paper_config(seed, cache)

    counters = _counters()
    seconds, tables, misses = [], [], []
    reset_peak_rss([os.getpid()])
    cpu0 = cpu_times()
    t0 = time.perf_counter()
    for _ in range(regenerations):
        # Untimed: put the cache back to calibration-only and collect
        # garbage, so every regeneration starts from the same state.
        _restore(snapshot, cache)
        gc.collect()
        start = time.perf_counter()
        results, manifest = run_all_with_manifest(config, verbose=False, jobs=1)
        seconds.append(time.perf_counter() - start)
        tables.append(results)
        misses.append(sum(unit.cache_misses for unit in manifest.units))
    t1 = time.perf_counter()
    steal = steal_fraction(cpu0, cpu_times())
    rss = peak_rss_mb([os.getpid()])
    measured = Measured(setup_s, window, seconds, tables, misses, sum(seconds),
                        rss, steal, t0, t1, snapshot)
    if tracer is not None:
        after = _counters()
        measured.counters = {k: v - counters.get(k, 0.0) for k, v in after.items()}
    return measured


def end_to_end(measured: Measured) -> list[Metric]:
    """One regeneration is one operation: ``latency_p50_ms`` is ``regen_s``
    in milliseconds.  With one caller and a few regenerations no sample
    lies beyond any percentile, so ``latency_p95_ms`` is the slowest
    regeneration of the run."""
    ms = [s * 1e3 for s in measured.seconds]
    n = len(ms)
    return [
        Metric("setup_s", median(measured.setup_s), "s", len(measured.setup_s)),
        Metric("latency_p50_ms", median(ms), "ms", n, "regen_s x 1000"),
        Metric("latency_p95_ms", max(ms), "ms", n, "slowest regeneration"),
        Metric("throughput_rps", n / measured.wall_s, "1/s", n,
               "regenerations per second"),
        Metric("peak_rss_mb", measured.rss_mb, "MB", 1),
    ]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def direct_cells(config) -> dict:
    """fig9 and fig9_backends cells recomputed on the direct path.

    Per image: one ``run_forward`` and ``get_backend(name).network_timing``
    per backend, no engine, no context timing caches, no artifact reuse.
    The pruning thresholds themselves come from the program's threshold
    functions on a separate context: they are inputs of the cells.
    Keys are (experiment, network, delta or None, column).
    """
    import numpy as np

    from repro.backends import DEFAULT_WEIGHT_SPARSITY, get_backend, prune_conv_weights
    from repro.backends.scnn import effectual_pair_count
    from repro.baseline.timing import conv_works_from_inputs
    from repro.core.pruning import raw_to_real
    from repro.experiments.context import ExperimentContext
    from repro.experiments.fig9_backends import DELTAS, compared_backends
    from repro.experiments.thresholds import lossless_thresholds, quantile_thresholds
    from repro.nn.inference import run_forward

    ctx = ExperimentContext(config)
    cells: dict[tuple, float] = {}
    plain, pruned = [], []
    sums: dict[tuple, list] = {}
    for name in NETWORKS:
        nctx = ctx.network_ctx(name)
        network, store = nctx.network, nctx.store
        weights = prune_conv_weights(network, store.weights, DEFAULT_WEIGHT_SPARSITY)

        def conv_inputs(image, thresholds=None):
            return run_forward(
                network, store, nctx.images[image], thresholds=thresholds,
                collect_conv_inputs=True, keep_outputs=False,
            ).conv_inputs

        def timing(backend, inputs):
            spec = get_backend(backend)
            return spec.network_timing(
                network, inputs, ctx.arch, weights if spec.needs_weights else None
            )

        def real(raw):
            return {k: raw_to_real(v) for k, v in raw.items() if v} or None

        first = conv_inputs(0)
        base = timing("baseline", first).total_cycles
        per_image = [base / timing("cnv", first).total_cycles] + [
            base / timing("cnv", conv_inputs(i)).total_cycles
            for i in range(1, config.num_images)
        ]
        speedup = float(np.mean(per_image))
        plain.append(speedup)
        cells[("fig9", name, None, "CNV")] = speedup
        cells[("fig9", name, None, "std")] = float(np.std(per_image))
        point = lossless_thresholds(ctx, name)
        lossless = base / timing(
            "cnv", conv_inputs(0, real(point.raw_thresholds))
        ).total_cycles
        pruned.append(lossless)
        cells[("fig9", name, None, "CNV+Pruning")] = lossless

        for delta in DELTAS:
            thresholds = real(quantile_thresholds(ctx, name, delta)) if delta > 0 else None
            inputs = conv_inputs(0, thresholds) if thresholds else first
            timings = {b: timing(b, inputs) for b in compared_backends()}
            for backend, result in timings.items():
                value = base / result.total_cycles
                cells[("fig9_backends", name, delta, backend)] = value
                sums.setdefault((delta, backend), []).append(value)
            scnn = timings["scnn"]
            cells[("fig9_backends", name, delta, "scnn_mults")] = int(sum(
                layer.counters.counts.get("mults", 0.0)
                for layer in scnn.layers if layer.kind == "conv"
            ))
            cells[("fig9_backends", name, delta, "scnn_pairs")] = sum(
                effectual_pair_count(work, weights[work.name])
                for work in conv_works_from_inputs(network, inputs)
            )
    cells[("fig9", "average", None, "CNV")] = float(np.mean(plain))
    cells[("fig9", "average", None, "CNV+Pruning")] = float(np.mean(pruned))
    for (delta, backend), values in sums.items():
        cells[("fig9_backends", "average", delta, backend)] = float(np.mean(values))
    return cells


def program_cells(results) -> dict:
    """The same keys read from one regeneration's fig9/fig9_backends rows."""
    cells = {}
    for result in results:
        if result.experiment not in ("fig9", "fig9_backends"):
            continue
        for row in result.rows:
            delta = row.get("delta")
            for column, value in row.items():
                if column in ("network", "delta") or column.startswith("paper_"):
                    continue  # labels, and constants quoted from the paper
                cells[(result.experiment, row["network"], delta, column)] = value
    return cells


def compare_cells(direct: dict, program: dict):
    """First cell that differs (or exists on one side only), or None."""
    for key in sorted(set(direct) | set(program), key=repr):
        want, got = direct.get(key, "missing"), program.get(key, "missing")
        if json.dumps(want) != json.dumps(got):  # exact, NaN included
            experiment, network, delta, column = key
            where = f"{experiment} network={network}"
            if delta is not None:
                where += f" delta={delta}"
            return f"{where} column={column}: {got!r} != direct {want!r}"
    return None


def _tables_json(results) -> str:
    return json.dumps([json.loads(r.to_json()) for r in results], sort_keys=True)


def check_outputs(measured: Measured, seed: int, scratch):
    """(failed regenerations, first failure, SHA-256 of the tables)."""
    reference = scratch.fresh("reference")
    _restore(measured.snapshot, reference)
    direct = direct_cells(paper_config(seed, reference))
    first_tables = _tables_json(measured.tables[0])
    failed, first = 0, None
    for index, results in enumerate(measured.tables):
        problem = compare_cells(direct, program_cells(results))
        if problem is None and _tables_json(results) != first_tables:
            problem = "tables differ from the first regeneration"
        if problem is not None:
            failed += 1
            first = first or f"regeneration {index}: {problem}"
    return failed, first, hashlib.sha256(first_tables.encode()).hexdigest()


def run(seed, seconds, trace, scratch, span_dir):
    import perlayer
    from spans import Tracer

    regenerations = max(MIN_REGENERATIONS, round(seconds / REGENERATION_S))
    plain = measure(seed, regenerations, scratch, SETUPS)
    failed, first, digest = check_outputs(plain, seed, scratch)
    metrics = end_to_end(plain)
    report = {
        "attempted": regenerations,
        "failed": failed,
        "first_failure": first,
        "digest": digest,
        "end_to_end": metrics,
        "steal": plain.steal,
        "work": f"{regenerations} regenerations of {len(NETWORKS)} networks "
        f"(artifact misses per regeneration: {plain.misses}; regeneration s: "
        f"{[round(s, 3) for s in plain.seconds]})",
    }
    if not trace:
        return report

    tracer = Tracer()
    perlayer.install(tracer, span_dir)
    try:
        traced = measure(seed, regenerations, scratch, 1, tracer)
    finally:
        tracer.restore()
    reference = _tables_json(plain.tables[0])
    for index, results in enumerate(traced.tables):
        if _tables_json(results) != reference:
            report["failed"] += 1
            report["first_failure"] = report["first_failure"] or (
                f"traced regeneration {index}: tables differ"
            )
    spans = tracer.spans
    timed = [s for s in spans if traced.t0 <= s.start and s.end <= traced.t1]
    lo, hi = traced.setup_window
    setup = [s for s in spans if lo <= s.start and s.end <= hi]
    overhead = median(traced.seconds) / median(plain.seconds) - 1.0
    report["per_layer"] = perlayer.derive(
        timed, setup, traced.counters, [], regenerations, overhead
    )
    report["spans"] = spans
    return report
