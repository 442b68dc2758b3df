"""Dynamic neuron pruning, Section V-E.

CNV can skip not just zero neurons but *near-zero* ones: the output encoder
compares each neuron's magnitude against a per-layer threshold (reusing the
max-pooling comparators) and encodes it as zero when below, so its
downstream computation is eliminated.  Thresholds are power-of-two
fixed-point values communicated with the layer metadata.

This module implements:

* threshold application (delegated to the inference engine's
  ``thresholds`` argument — functionally identical to the encoder path);
* the paper's threshold exploration ("gradient descent, similar to the
  approach used ... for finding per layer precision requirements"):
  a coordinate-ascent search over power-of-two thresholds that raises one
  layer at a time while accuracy stays within a tolerance;
* accuracy-vs-speedup sweeps and pareto frontiers for Fig. 14.

The search is generic over an evaluation callback so it runs both on the
really-trained small CNN (true accuracy) and on the calibrated big
networks (proxy accuracy; see :mod:`repro.experiments.fig14_pruning`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.tensor import DEFAULT_FORMAT, FixedPointFormat

__all__ = [
    "PruningPoint",
    "power_of_two_thresholds",
    "raw_to_real",
    "real_to_raw",
    "ThresholdSearcher",
    "pareto_frontier",
]

#: Candidate raw (fixed-point LSB) thresholds explored, as in Table II
#: where per-layer thresholds range over powers of two from 2 to 256.
DEFAULT_RAW_CANDIDATES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


def power_of_two_thresholds(max_exponent: int = 8) -> tuple[int, ...]:
    """Raw power-of-two threshold ladder: 0, 1, 2, 4, ..., 2**max_exponent."""
    return (0,) + tuple(2**e for e in range(max_exponent + 1))


def raw_to_real(raw: int, fmt: FixedPointFormat = DEFAULT_FORMAT) -> float:
    """A raw LSB-count threshold as a real value."""
    return raw * fmt.resolution


def real_to_raw(value: float, fmt: FixedPointFormat = DEFAULT_FORMAT) -> int:
    """Round a real threshold to raw LSBs."""
    return int(round(value * fmt.scale))


@dataclass
class PruningPoint:
    """One explored configuration: thresholds with measured outcomes."""

    raw_thresholds: dict[str, int]
    accuracy: float
    speedup: float


#: Evaluation callback: raw per-layer thresholds -> (accuracy, speedup).
EvaluateFn = Callable[[dict[str, int]], tuple[float, float]]


@dataclass
class ThresholdSearcher:
    """Coordinate-ascent search over per-layer power-of-two thresholds.

    Starting from all-zero thresholds, each round tentatively raises every
    layer's threshold to its next candidate, keeps the raise yielding the
    best speedup whose accuracy drop (relative to the unpruned accuracy)
    stays within ``tolerance``, and repeats until no raise is admissible.
    This mirrors the paper's greedy per-layer exploration; the full
    trajectory is recorded for the Fig. 14 trade-off curves.
    """

    evaluate: EvaluateFn
    layer_names: list[str]
    candidates: tuple[int, ...] = DEFAULT_RAW_CANDIDATES
    history: list[PruningPoint] = field(default_factory=list)
    #: Memo of evaluated configurations keyed by their non-zero thresholds:
    #: ``sweep()`` over several tolerances revisits the all-zero baseline
    #: and many trial points, which would otherwise re-run full forward
    #: evaluations.  ``history`` still records every visit (cache hits
    #: append a fresh point without calling ``evaluate``).
    _memo: dict[tuple, PruningPoint] = field(default_factory=dict, init=False)
    cache_hits: int = field(default=0, init=False)

    @staticmethod
    def _memo_key(thresholds: dict[str, int]) -> tuple:
        return tuple(sorted((k, int(v)) for k, v in thresholds.items() if v))

    def _eval_point(self, thresholds: dict[str, int]) -> PruningPoint:
        key = self._memo_key(thresholds)
        cached = self._memo.get(key)
        if cached is not None:
            self.cache_hits += 1
            point = PruningPoint(
                raw_thresholds=dict(thresholds),
                accuracy=cached.accuracy,
                speedup=cached.speedup,
            )
            self.history.append(point)
            return point
        accuracy, speedup = self.evaluate(thresholds)
        point = PruningPoint(
            raw_thresholds=dict(thresholds), accuracy=accuracy, speedup=speedup
        )
        self._memo[key] = point
        self.history.append(point)
        return point

    def _next_candidate(self, raw: int) -> int | None:
        ladder = sorted(set(self.candidates))
        for value in ladder:
            if value > raw:
                return value
        return None

    def search(
        self,
        tolerance: float = 0.0,
        max_rounds: int = 64,
    ) -> PruningPoint:
        """Find the fastest configuration within an accuracy tolerance.

        ``tolerance`` is the admissible *relative* accuracy drop (0 for the
        lossless Table II search, 0.01 / 0.10 for the Fig. 14 loss points).
        """
        current = {name: 0 for name in self.layer_names}
        best = self._eval_point(current)
        baseline_accuracy = best.accuracy
        floor = baseline_accuracy * (1.0 - tolerance)

        for _ in range(max_rounds):
            round_best: PruningPoint | None = None
            round_layer: str | None = None
            for name in self.layer_names:
                nxt = self._next_candidate(current[name])
                if nxt is None:
                    continue
                trial = dict(current)
                trial[name] = nxt
                point = self._eval_point(trial)
                if point.accuracy + 1e-12 < floor:
                    continue
                if round_best is None or point.speedup > round_best.speedup:
                    round_best = point
                    round_layer = name
            if round_best is None or round_best.speedup <= best.speedup + 1e-9:
                break
            best = round_best
            current = dict(round_best.raw_thresholds)
            _ = round_layer
        return best

    def sweep(self, tolerances: list[float]) -> list[PruningPoint]:
        """Best configuration per tolerance (Fig. 14 operating points)."""
        return [self.search(tolerance=t) for t in tolerances]


def pareto_frontier(points: list[PruningPoint]) -> list[PruningPoint]:
    """Points not dominated in (accuracy, speedup), sorted by speedup.

    A point is kept iff no other point has both higher-or-equal speedup and
    strictly higher accuracy — the frontier Fig. 14 plots per network.
    """
    ordered = sorted(points, key=lambda p: (p.speedup, p.accuracy), reverse=True)
    frontier: list[PruningPoint] = []
    best_accuracy = -np.inf
    for point in ordered:
        if point.accuracy > best_accuracy:
            frontier.append(point)
            best_accuracy = point.accuracy
    frontier.reverse()  # ascending speedup
    return frontier
