"""``cnvlutin-sim`` — simulate single layers or networks from the shell.

Two subcommands:

``layer``
    Simulate one synthetic conv layer on both architectures::

        cnvlutin-sim layer --depth 256 --size 14 --filters 256 \\
            --kernel 3 --pad 1 --sparsity 0.45

    With ``--structural`` (small layers only) the cycle-by-cycle node
    simulators run and are checked against the analytic models.  With
    ``--backends cnv,cnv2,scnn`` (or ``--backends all``) every named
    registry backend is timed on the same layer, weight-sparse backends
    at ``--weight-sparsity`` magnitude-pruned weights.

``network``
    Calibrate paper networks and print their per-layer baseline/CNV
    cycles::

        cnvlutin-sim network alex --scale reduced
        cnvlutin-sim network alex nin cnnS

    The timings persist in the artifact cache, so
    ``cnvlutin-experiments --only fig9 --jobs N`` computes them on a
    process pool for a later ``network`` run to read.

Architecture knobs (``--units``, ``--lanes``, ``--filters-per-unit``,
``--brick-size``, ``--free-empty-bricks``) apply to both subcommands;
:class:`~repro.hw.config.ArchConfig` checks each value as it is parsed.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.argtypes import field
from repro.backends import DEFAULT_WEIGHT_SPARSITY, backend_names, get_backend, prune_weights
from repro.baseline.workload import ConvWork
from repro.experiments.report import format_table
from repro.hw.config import PAPER_CONFIG, ArchConfig
from repro.nn.activations import sparse_activations
from repro.power.energy import energy_report

__all__ = ["main"]


def _arch_from_args(args) -> ArchConfig:
    return PAPER_CONFIG.with_(
        num_units=args.units,
        neuron_lanes=args.lanes,
        filters_per_unit=args.filters_per_unit,
        brick_size=args.brick_size,
        empty_brick_cycles=0 if args.free_empty_bricks else 1,
    )


def _add_arch_args(parser: argparse.ArgumentParser) -> None:
    for flag, name in (
        ("--units", "num_units"),
        ("--lanes", "neuron_lanes"),
        ("--filters-per-unit", "filters_per_unit"),
        ("--brick-size", "brick_size"),
    ):
        parser.add_argument(
            flag, type=field(ArchConfig, name, int),
            default=getattr(PAPER_CONFIG, name),
        )
    parser.add_argument("--free-empty-bricks", action="store_true")


def _run_layer(args) -> int:
    arch = _arch_from_args(args)
    rng = np.random.default_rng(args.seed)
    out = (args.size - args.kernel + 2 * args.pad) // args.stride + 1
    if out <= 0:
        print("error: non-positive output size", file=sys.stderr)
        return 2
    requested = []
    if args.backends:
        requested = (
            backend_names()
            if args.backends == "all"
            else [b.strip() for b in args.backends.split(",") if b.strip()]
        )
    # Everything that can reject the input is built before the first
    # line of the report prints.
    try:
        specs = [get_backend(name) for name in requested]
        activations = sparse_activations(
            (args.depth, args.size, args.size), args.sparsity, rng
        )
        geometry = {
            "in_depth": args.depth, "in_y": args.size, "in_x": args.size,
            "num_filters": args.filters, "kernel": args.kernel,
            "stride": args.stride, "pad": args.pad, "groups": args.groups,
            "out_y": out, "out_x": out,
        }
        work = ConvWork("layer", geometry, activations, is_first=args.first_layer)
        weights = None
        if specs:
            weights = prune_weights(
                rng.normal(size=(args.filters, args.depth // args.groups,
                                 args.kernel, args.kernel)),
                args.weight_sparsity,
            )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    base = get_backend("baseline").layer_timing(work, arch)
    cnv = get_backend("cnv").layer_timing(work, arch)
    print(f"layer: {args.depth}x{args.size}x{args.size} -> "
          f"{args.filters} filters {args.kernel}x{args.kernel} "
          f"(stride {args.stride}, pad {args.pad}, "
          f"{args.sparsity:.0%} zero neurons)")
    print(f"baseline cycles: {base.cycles}")
    print(f"cnv cycles:      {cnv.cycles}")
    print(f"speedup:         {base.cycles / cnv.cycles:.3f}x")
    events = cnv.lane_events
    total = sum(base.lane_events.values())
    for category, value in events.items():
        print(f"  cnv {category:8s} events: {value / total:.1%} of baseline")

    freq = arch.frequency_ghz
    base_e = energy_report(base.counters, base.cycles / (freq * 1e9), "dadiannao")
    cnv_e = energy_report(cnv.counters, cnv.cycles / (freq * 1e9), "cnvlutin")
    print(f"energy: baseline {base_e.total_j * 1e6:.2f} uJ, "
          f"cnv {cnv_e.total_j * 1e6:.2f} uJ "
          f"({base_e.total_j / cnv_e.total_j:.2f}x gain)")

    if specs:
        rows = []
        for spec in specs:
            timing = spec.layer_timing(
                work, arch, weights if spec.needs_weights else None
            )
            rows.append({
                "backend": spec.name,
                "architecture": spec.architecture,
                "cycles": timing.cycles,
                "speedup": (f"{base.cycles / timing.cycles:.3f}x"
                            if timing.cycles else "inf"),
                "mults": int(timing.counters.counts.get("mults", 0)),
            })
        print(f"\nbackend comparison "
              f"({args.weight_sparsity:.0%} weight sparsity):")
        print(format_table(rows))

    if args.structural:
        from repro.baseline.accelerator import DaDianNaoNode
        from repro.core.accelerator import CnvNode
        from repro.nn.layers import conv2d

        weights = rng.normal(size=(args.filters, args.depth // args.groups,
                                   args.kernel, args.kernel))
        golden = conv2d(activations, weights, stride=args.stride,
                        pad=args.pad, groups=args.groups)
        sbase = DaDianNaoNode(arch).run_conv_layer(work, weights)
        scnv = CnvNode(arch).run_conv_layer(work, weights)
        ok = (np.allclose(sbase.output, golden)
              and np.allclose(scnv.output, golden)
              and sbase.cycles == base.cycles
              and scnv.cycles == cnv.cycles)
        print(f"structural check: {'ok' if ok else 'MISMATCH'} "
              f"(outputs vs golden, cycles vs analytic)")
        if not ok:
            return 1
    return 0


def _run_network(args) -> int:
    from repro import obs
    from repro.experiments.config import PaperConfig
    from repro.experiments.context import ExperimentContext

    if args.trace:
        obs.enable_tracing()
    start = time.perf_counter()
    arch = _arch_from_args(args)
    names = args.name
    config = PaperConfig(scale=args.scale, networks=list(names))
    ctx = ExperimentContext(config, arch=arch)
    for name in names:
        base = ctx.timing("baseline", name)
        cnv = ctx.timing("cnv", name)
        cnv_by = cnv.cycles_by_layer()
        rows = []
        for layer in base.layers:
            cnv_c = cnv_by.get(layer.name, layer.cycles)
            rows.append({
                "layer": layer.name,
                "kind": layer.kind,
                "baseline": layer.cycles,
                "cnv": cnv_c,
                "speedup": layer.cycles / cnv_c if cnv_c else float("inf"),
            })
        print(format_table(rows))
        print(f"\ntotal speedup: {base.total_cycles / cnv.total_cycles:.3f}x "
              f"({name} @ {args.scale} scale)")
        if name != names[-1]:
            print()
    if args.metrics:
        from repro.obs.report import metrics_report

        print()
        print(metrics_report({
            "version": 4,
            "scale": args.scale,
            "jobs": 1,
            "wall_seconds": time.perf_counter() - start,
            "units": [],
            "cache": ctx.artifacts.counters(),
            "metrics": obs.get_metrics().snapshot(),
        }))
    if args.trace:
        written = obs.write_chrome_trace(args.trace)
        print(f"\nwrote trace {args.trace} ({written} events)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cnvlutin-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    layer = sub.add_parser("layer", help="simulate one synthetic conv layer")
    layer.add_argument("--depth", type=int, default=256)
    layer.add_argument("--size", type=int, default=14)
    layer.add_argument("--filters", type=int, default=256)
    layer.add_argument("--kernel", type=int, default=3)
    layer.add_argument("--stride", type=int, default=1)
    layer.add_argument("--pad", type=int, default=1)
    layer.add_argument("--groups", type=int, default=1)
    layer.add_argument("--sparsity", type=float, default=0.44)
    layer.add_argument("--seed", type=int, default=0)
    layer.add_argument("--first-layer", action="store_true")
    layer.add_argument("--structural", action="store_true",
                       help="also run the cycle-by-cycle node simulators")
    layer.add_argument(
        "--backends", default=None, metavar="NAMES",
        help="comma-separated registry backends to compare on this layer "
        "(or 'all'); see repro.backends",
    )
    layer.add_argument(
        "--weight-sparsity", type=float, default=DEFAULT_WEIGHT_SPARSITY,
        help="magnitude-pruned weight fraction for weight-sparse backends "
        f"(default {DEFAULT_WEIGHT_SPARSITY})",
    )
    _add_arch_args(layer)
    layer.set_defaults(func=_run_layer)

    network = sub.add_parser("network", help="per-layer timing of paper networks")
    network.add_argument(
        "name", nargs="+",
        choices=["alex", "google", "nin", "vgg19", "cnnM", "cnnS"],
    )
    network.add_argument("--scale", default="reduced", choices=["tiny", "reduced", "full"])
    network.add_argument(
        "--trace", default=None, metavar="TRACE_JSON",
        help="record spans and write a Chrome trace-event file "
        "(open in Perfetto or chrome://tracing)",
    )
    network.add_argument(
        "--metrics", action="store_true",
        help="print the observability report (per-layer compute, cache "
        "hit rates) after the timings",
    )
    _add_arch_args(network)
    network.set_defaults(func=_run_network)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
