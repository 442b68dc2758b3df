"""Experiment configuration: scales, image counts, cache location.

Three scales trade fidelity for runtime:

``full``
    The published input resolutions (227/224); what EXPERIMENTS.md reports.
``reduced``
    Half-resolution inputs (115/112) — same layer counts, filters and
    kernels, ~4x fewer windows.  The default for the benchmark harness.
``tiny``
    64-pixel inputs and a single image — smoke-test scale for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro import settings

__all__ = ["PaperConfig", "SCALES"]

SCALES = ("full", "reduced", "tiny")

_SCALE_SETTINGS = {
    # (input_size for 224-nets, input_size for alex, num_images)
    "full": (224, 227, 5),
    "reduced": (112, 115, 3),
    "tiny": (64, 67, 1),
}


@dataclass
class PaperConfig:
    """Knobs shared by all experiment modules."""

    scale: str = "reduced"
    seed: int = 7
    networks: list[str] = field(
        default_factory=lambda: ["alex", "google", "nin", "vgg19", "cnnM", "cnnS"]
    )
    num_images: int | None = None
    #: Where calibration shifts and timing summaries are cached
    #: (default: the process settings' ``cache_dir``).
    cache_dir: Path = field(default_factory=lambda: settings.current().cache_dir)
    use_cache: bool = True
    #: Include the trained-small-CNN greedy search in fig14 (the costliest
    #: network-independent work unit; CI and the golden test disable it).
    smallcnn: bool = True

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}")
        if self.num_images is None:
            self.num_images = _SCALE_SETTINGS[self.scale][2]

    def input_size(self, network_name: str) -> int:
        base, alex, _ = _SCALE_SETTINGS[self.scale]
        return alex if network_name == "alex" else base
