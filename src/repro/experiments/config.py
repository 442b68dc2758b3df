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

import json
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

    # ------------------------------------------------------------------
    # tiny JSON cache
    # ------------------------------------------------------------------
    def cache_key(self, kind: str, network_name: str) -> Path:
        return (
            self.cache_dir
            / f"{kind}_{network_name}_{self.scale}_s{self.seed}_n{self.num_images}.json"
        )

    def cache_load(self, kind: str, network_name: str):
        """Load a cached JSON payload, or None."""
        if not self.use_cache:
            return None
        path = self.cache_key(kind, network_name)
        if not path.exists():
            return None
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def cache_store(self, kind: str, network_name: str, payload) -> None:
        if not self.use_cache:
            return
        path = self.cache_key(kind, network_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle)
