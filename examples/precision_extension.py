#!/usr/bin/env python
"""Future work, implemented: CNV + variable per-layer precision.

The paper's conclusion proposes "combining CNV with approaches that exploit
other value properties of DNNs, such as the variable precision requirements
of DNNs [Stripes]".  This example finds each layer's minimal activation
bit-width (the Judd-et-al. methodology the paper's threshold search
imitates, driven by the same prediction-stability criterion) and models a
bit-serial CNV front-end at those precisions: the two value properties —
many zeros, few needed bits — compound.

Run:  python examples/precision_extension.py [--network alex]
"""

import argparse

from repro.experiments import ExperimentContext, PaperConfig, format_table
from repro.extensions import (
    combined_cnv_precision_timing,
    minimal_precisions,
    precision_speedup_factor,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--network", default="alex",
                        choices=["alex", "google", "nin", "vgg19", "cnnM", "cnnS"])
    parser.add_argument("--scale", default="tiny", choices=["tiny", "reduced", "full"])
    args = parser.parse_args()

    ctx = ExperimentContext(PaperConfig(scale=args.scale, networks=[args.network]))
    nctx = ctx.network_ctx(args.network)
    print(f"searching minimal per-layer activation precisions for "
          f"{args.network} ({args.scale} scale)...")
    profile = minimal_precisions(nctx.network, nctx.store, nctx.images[:2])

    rows = [
        {"layer": layer, "bits": bits}
        for layer, bits in profile.bits.items()
    ]
    print(format_table(rows))
    print(f"mean precision: {profile.mean_bits:.1f} bits "
          f"(ideal bit-serial factor {precision_speedup_factor(profile.bits):.2f}x); "
          f"predictions stable: {profile.stable}")

    fwd = ctx.forward(args.network, 0)
    base = ctx.timing("baseline", args.network).total_cycles
    plain = ctx.timing("cnv", args.network).total_cycles
    combined = combined_cnv_precision_timing(
        nctx.network, fwd.conv_inputs, ctx.arch, profile.bits
    ).total_cycles
    print(f"\nspeedup over DaDianNao: CNV alone {base / plain:.2f}x, "
          f"CNV + bit-serial precision {base / combined:.2f}x")
    print("zero skipping and precision scaling compound (nearly "
          "multiplicatively on the encoded layers).")


if __name__ == "__main__":
    main()
