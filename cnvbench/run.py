"""Benchmark entry point.

    python3 cnvbench/run.py --workload serve-fresh --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures them too, then repeats the same work with the
program's public calls wrapped in timers (see ``perlayer.py``) and reports
the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object (correct, attempted, failed, metrics);
the lines before it are the human-readable record: fingerprint, sample
counts, bases of ratios, output digest.  Exit status is 0 only when every
output matched the program's reference path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-fresh", "serve-sweep", "offline-regen")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker.

    The sharded tier's shared-memory arena starts that helper process;
    without this it would outlive the run by a moment.  ``_stop`` is
    private to the standard library, hence the guard.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import common

    knobs = common.program_env_vars()
    if knobs:
        print(f"refusing to run with program knobs set: {knobs}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    scratch = common.Scratch(ROOT, args.workload)
    try:
        reference_before = common.reference_loop_ms()
        started = time.perf_counter()
        span_dir = scratch.fresh("spans")
        if args.workload == "offline-regen":
            import offline

            report = offline.run(args.seed, args.seconds, args.trace, scratch, span_dir)
        else:
            import serving

            report = asyncio.run(
                serving.run(args.workload, args.seed, args.seconds, args.trace,
                            scratch, span_dir)
            )
        elapsed = time.perf_counter() - started
        reference_after = common.reference_loop_ms()
        fingerprint = common.fingerprint(ROOT)
        fingerprint.update(
            reference_loop_ms=[round(reference_before, 3), round(reference_after, 3)],
            steal_fraction=round(report["steal"], 5),
        )
        spans = report.pop("spans", None)
        if spans is not None:
            path = scratch.spans_path(args.workload, args.seed)
            with open(path, "w") as handle:
                for span in spans:
                    handle.write(span.to_json() + "\n")
            report["span_file"] = str(path.relative_to(ROOT))
    finally:
        scratch.close()
        stop_resource_tracker()

    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(f"workload {args.workload} seed {args.seed}: {report['work']}, "
          f"{elapsed:.1f} s in all")
    print(f"fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    print(f"operations attempted {report['attempted']} "
          f"ok {report['attempted'] - report['failed']} failed {report['failed']}")
    if report["first_failure"]:
        print(f"FIRST MISMATCH {report['first_failure']}")
    print(f"output_digest sha256:{report['digest']}")
    print("end-to-end metrics:")
    for metric in report["end_to_end"]:
        print(metric.line())
    if args.trace:
        print(f"per-layer metrics (spans: {report['span_file']}):")
        for metric in metrics:
            print(metric.line())
    correct = report["failed"] == 0
    print(common.result_line(correct, report["attempted"], report["failed"], metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
