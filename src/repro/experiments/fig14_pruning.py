"""Fig. 14 — accuracy vs speedup trade-off from dynamic neuron pruning.

Paper: every network has an initial lossless region; past it, accuracy
decays roughly exponentially with speedup (-1% relative accuracy buys
1.60x average, -10% buys 1.87x).

Two reproductions are reported:

* the six calibrated networks, sweeping the percentile knob of
  :mod:`repro.experiments.thresholds` with top-1 prediction stability as
  the relative-accuracy proxy (DESIGN.md substitution); and
* the trained small CNN, running the paper's actual greedy threshold
  search (:class:`repro.core.pruning.ThresholdSearcher`) against genuine
  test-set accuracy, end to end through the same inference engine and
  cycle models.
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.core.pruning import PruningPoint, ThresholdSearcher, raw_to_real
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ExperimentResult
from repro.experiments.thresholds import DEFAULT_DELTAS, sweep_deltas
from repro.hw.config import ArchConfig
from repro.nn.engine import IncrementalForwardEngine
from repro.nn.inference import slice_result

__all__ = ["run", "smallcnn_tradeoff", "SmallCnnEvaluator", "SMALLCNN_ARCH"]

#: Node geometry proportioned to the small CNN's 8-24 channel layers, the
#: same layer-depth-to-lane ratio the paper's 256-deep layers have on the
#: 16-lane node.  Running a 24x24x8 network on the full 4096-multiplier
#: node would leave most lanes structurally idle and say nothing about
#: pruning.
SMALLCNN_ARCH = ArchConfig(
    num_units=4, neuron_lanes=4, filters_per_unit=4, brick_size=4
)


class SmallCnnEvaluator:
    """Evaluation callback for the greedy search on the trained small CNN.

    ``evaluate(raw_thresholds) -> (accuracy, speedup)``: accuracy over the
    held-out shape test set, speedup as mean baseline/CNV cycles over a
    subset of test images (baseline cycles are value-independent).
    """

    def __init__(
        self,
        train_result,
        arch: ArchConfig | None = None,
        accuracy_images: int = 96,
        timing_images: int = 4,
        seed: int = 11,
    ):
        from repro.nn.datasets import ShapeDataset

        self.network = train_result.network
        self.store = train_result.store
        self.arch = arch if arch is not None else SMALLCNN_ARCH
        dataset = ShapeDataset()
        images, labels = dataset.batch(accuracy_images, seed=seed)
        self.images = images
        self.labels = labels
        self.num_timing_images = timing_images
        # One incremental engine over the whole accuracy set: each greedy
        # trial perturbs a single layer's threshold, so everything upstream
        # replays from the engine's signature cache, and all 96 images run
        # through one batched pass instead of 96 forwards.
        self.engine = IncrementalForwardEngine(
            self.network, self.store, np.stack(images)
        )
        first = slice_result(self.engine.run(collect_conv_inputs=True), 0)
        self._baseline_cycles = get_backend("baseline").network_timing(
            self.network, first.conv_inputs, self.arch
        ).total_cycles
        self.prunable_layers = [
            layer.name for layer in self.network.conv_layers if layer.fused_relu
        ]

    def __call__(self, raw_thresholds: dict[str, int]) -> tuple[float, float]:
        thresholds = {
            name: raw_to_real(raw) for name, raw in raw_thresholds.items() if raw
        }
        result = self.engine.run(
            thresholds=thresholds, collect_conv_inputs=True, keep_outputs=False
        )
        predictions = np.argmax(result.logits, axis=1)
        correct = int((predictions == np.asarray(self.labels)).sum())
        accuracy = correct / len(self.images)

        cnv = get_backend("cnv")
        cnv_cycles = []
        for index in range(self.num_timing_images):
            conv_inputs = {
                name: arr[index] for name, arr in result.conv_inputs.items()
            }
            cnv_cycles.append(
                cnv.network_timing(self.network, conv_inputs, self.arch).total_cycles
            )
        speedup = self._baseline_cycles / float(np.mean(cnv_cycles))
        return accuracy, speedup


def smallcnn_tradeoff(
    ctx: ExperimentContext,
    tolerances: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10),
    epochs: int = 4,
    train_count: int = 384,
) -> list[PruningPoint]:
    """Run the real greedy search on the trained small CNN.

    Returns one operating point per tolerance (relative accuracy drop).
    The full search (training + greedy exploration) is the costliest
    network-independent unit of the harness, so its operating points are
    persisted in the content-addressed artifact cache.
    """
    from dataclasses import asdict

    from repro.nn.training import train_small_cnn

    params = {
        "tolerances": list(tolerances),
        "epochs": epochs,
        "train_count": train_count,
        "arch": asdict(SMALLCNN_ARCH),
    }
    cached = ctx.artifacts.load("smallcnn_tradeoff", **params)
    if cached is not None:
        return [
            PruningPoint(
                raw_thresholds={k: int(v) for k, v in p["raw_thresholds"].items()},
                accuracy=p["accuracy"],
                speedup=p["speedup"],
            )
            for p in cached
        ]

    result = train_small_cnn(
        train_count=train_count, epochs=epochs, seed=ctx.config.seed
    )
    evaluator = SmallCnnEvaluator(result)
    searcher = ThresholdSearcher(
        evaluate=evaluator, layer_names=evaluator.prunable_layers
    )
    points = searcher.sweep(list(tolerances))
    ctx.artifacts.store(
        "smallcnn_tradeoff",
        [
            {
                "raw_thresholds": p.raw_thresholds,
                "accuracy": p.accuracy,
                "speedup": p.speedup,
            }
            for p in points
        ],
        **params,
    )
    return points


def run(
    ctx: ExperimentContext,
    deltas: tuple[float, ...] = DEFAULT_DELTAS,
    include_smallcnn: bool | None = None,
) -> ExperimentResult:
    if include_smallcnn is None:
        include_smallcnn = ctx.config.smallcnn
    rows = []
    for name in ctx.config.networks:
        for point in sweep_deltas(ctx, name, deltas):
            rows.append(
                {
                    "network": name,
                    "knob": point.delta,
                    "relative_accuracy": point.stability,
                    "speedup": point.speedup,
                }
            )
    if include_smallcnn:
        for tolerance, point in zip(
            (0.0, 0.01, 0.05, 0.10), smallcnn_tradeoff(ctx)
        ):
            rows.append(
                {
                    "network": "smallcnn(real)",
                    "knob": tolerance,
                    "relative_accuracy": point.accuracy,
                    "speedup": point.speedup,
                }
            )
    return ExperimentResult(
        experiment="fig14",
        title="Accuracy vs speedup trade-off from pruning neurons",
        rows=rows,
        notes="six networks: top-1 stability vs the unpruned network "
        "(proxy for relative accuracy); smallcnn: true test accuracy via "
        "the paper's greedy threshold search.",
    )
