"""The backend registry: timing simulators as data-driven plugins.

Every accelerator model in the repo — the DaDianNao dense baseline, the
Eyeriss-style zero-gating comparator, Cnvlutin, and the weight-sparsity
follow-ups Cnvlutin2 and SCNN — registers here as a :class:`Backend`:
one record naming its timing simulators (layer- and network-level), its
power model, and the contract flags the cross-backend conformance suite
keys off.  Consumers (the experiment context's one timing cache, and
through it every figure and the serving tier; ``repro-obs report``, the
``cnvlutin-sim`` CLI, ``repro.cluster``) discover backends through
:func:`get_backend` / :func:`iter_backends` instead of importing
simulator modules directly — adding a backend means one :func:`register`
call, and the conformance suite (parameterized over
:func:`backend_names`) covers it with zero test edits.

Weight-sparse backends (``needs_weights``) take a per-layer filter bank
whose exact zeros define the ineffectual weights; see
:mod:`repro.backends.weights` for the deterministic magnitude pruning
that induces them on the calibrated networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.backends.cnv2 import cnv2_conv_timing, cnv2_network_timing
from repro.backends.scnn import scnn_conv_timing, scnn_network_timing
from repro.baseline.gated import gated_conv_timing, gated_network_timing
from repro.baseline.timing import baseline_conv_timing, baseline_network_timing
from repro.core.timing import cnv_conv_timing, cnv_network_timing
from repro.hw.config import ArchConfig
from repro.hw.timing_types import LayerTiming, NetworkTiming
from repro.power.components import BASELINE, CNV, ArchPowerModel

__all__ = [
    "Backend",
    "register",
    "get_backend",
    "backend_names",
    "iter_backends",
    "architectures",
    "power_model_for",
]


@dataclass(frozen=True)
class Backend:
    """One registered accelerator model.

    ``conv_timing(work, config[, weights]) -> LayerTiming`` and
    ``net_timing(network, conv_inputs, config[, weights]) ->
    NetworkTiming`` are the simulators; call them through
    :meth:`layer_timing` / :meth:`network_timing`, which enforce the
    ``needs_weights`` contract.  ``architecture`` is the string the
    produced :class:`~repro.hw.timing_types.NetworkTiming` carries (and
    the ``activity.<architecture>.*`` gauge namespace).  ``power_model``
    is the silicon the energy model charges this backend's activity to.
    ``mults_are_effectual`` declares the counter identity ``mults ==
    effectual weight x activation pairs`` (SCNN's defining property),
    which the conformance suite verifies against brute force.
    """

    name: str
    architecture: str
    description: str
    conv_timing: Callable[..., LayerTiming]
    net_timing: Callable[..., NetworkTiming]
    power_model: ArchPowerModel
    needs_weights: bool = False
    mults_are_effectual: bool = False

    def _check_weights(self, weights) -> None:
        if self.needs_weights and weights is None:
            raise ValueError(
                f"backend {self.name!r} models weight sparsity and "
                "requires a weights argument"
            )

    def layer_timing(
        self,
        work,
        config: ArchConfig,
        weights: np.ndarray | None = None,
    ) -> LayerTiming:
        """Simulate one conv layer (weights required iff ``needs_weights``)."""
        self._check_weights(weights)
        if self.needs_weights:
            return self.conv_timing(work, config, weights)
        return self.conv_timing(work, config)

    def network_timing(
        self,
        network,
        conv_inputs: dict[str, np.ndarray],
        config: ArchConfig,
        weights: dict[str, np.ndarray] | None = None,
    ) -> NetworkTiming:
        """Simulate a full network from recorded conv inputs."""
        self._check_weights(weights)
        if self.needs_weights:
            return self.net_timing(network, conv_inputs, config, weights)
        return self.net_timing(network, conv_inputs, config)


_REGISTRY: dict[str, Backend] = {}


def register(backend: Backend) -> Backend:
    """Add a backend; names and architecture strings must be unique."""
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    if backend.architecture in {b.architecture for b in _REGISTRY.values()}:
        raise ValueError(
            f"architecture {backend.architecture!r} is already registered"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look a backend up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def backend_names() -> list[str]:
    """Registered backend names, registration order."""
    return list(_REGISTRY)


def iter_backends() -> list[Backend]:
    """Registered backends, registration order."""
    return list(_REGISTRY.values())


def architectures() -> dict[str, str]:
    """Map of NetworkTiming ``architecture`` string -> backend name."""
    return {b.architecture: b.name for b in _REGISTRY.values()}


def power_model_for(architecture: str) -> ArchPowerModel:
    """The registered power model for a NetworkTiming architecture string."""
    for backend in _REGISTRY.values():
        if backend.architecture == architecture:
            return backend.power_model
    raise KeyError(
        f"unknown architecture {architecture!r}; registered: "
        f"{sorted(architectures())}"
    )


# ----------------------------------------------------------------------
# Built-in backends.  Registration order is presentation order (the
# fig9_backends table and conformance parameterization follow it).
# ----------------------------------------------------------------------
register(Backend(
    name="baseline",
    architecture="dadiannao",
    description="DaDianNao dense baseline: value-independent lock-step lanes",
    conv_timing=baseline_conv_timing,
    net_timing=baseline_network_timing,
    power_model=BASELINE,
))
register(Backend(
    name="gated",
    architecture="dadiannao-gated",
    # Baseline silicon: the savings are purely gated activity counts.
    description="Eyeriss-style zero gating: baseline cycles, gated energy",
    conv_timing=gated_conv_timing,
    net_timing=gated_network_timing,
    power_model=BASELINE,
))
register(Backend(
    name="cnv",
    architecture="cnvlutin",
    description="Cnvlutin: ZFNAf activation skipping (the paper's design)",
    conv_timing=cnv_conv_timing,
    net_timing=cnv_network_timing,
    power_model=CNV,
))
register(Backend(
    name="cnv2",
    architecture="cnvlutin2",
    description="Cnvlutin2: offset-pair intersection skips ineffectual "
    "weights and activations",
    conv_timing=cnv2_conv_timing,
    net_timing=cnv2_network_timing,
    # CNV silicon plus weight offset streams; the added offset fields are
    # charged through the doubled offset_reads activity, not new silicon.
    power_model=CNV,
    needs_weights=True,
))
register(Backend(
    name="scnn",
    architecture="scnn",
    description="SCNN-style compressed-sparse Cartesian-product dataflow",
    conv_timing=scnn_conv_timing,
    net_timing=scnn_network_timing,
    # Approximation: charged at CNV's calibrated component energies (no
    # SCNN silicon calibration exists in repro.power.components).
    power_model=CNV,
    needs_weights=True,
    mults_are_effectual=True,
))
