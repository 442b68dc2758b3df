"""The forward pass's two BLAS calls: the conv GEMM and the FC matvec.

:func:`partitioned_gemm` computes ``cols @ w_g.T`` for one image and one
filter group, and :func:`partitioned_matvec` computes ``weights @ flat``
for one image.  Each is a single plain BLAS call over the whole operand,
zeros included.  Cnvlutin's zero skipping is a property of its hardware
lanes, which the cycle simulators model and count; a dense BLAS call
cannot profit from scattered zero columns at these shapes, so the
forward pass does not try to.

Why the names stay
------------------
The names date from a zero-skipping partition of these operands, which
measured slower than the plain call on every network and was removed.
They stay because the benchmark tracer (``cnvbench/perlayer.py``) wraps
``partitioned_gemm`` and ``partitioned_matvec`` of this module by name;
renaming them waits for the program to emit the spans the benchmark
reads (ROADMAP, "One instrumentation layer").

Epilogue: fault site and ABFT check
-----------------------------------
Both kernels end the same way: they (1) fire the ``mem:activations``
fault site, where a ``corrupt`` rule perturbs one element of the fresh
product in place, modelling a bad store of a layer output, and then
(2) verify the Huang-Abraham checksum invariant under the process
settings' integrity policy (see :mod:`repro.reliability.integrity`).
Verification is read-only, so a verified run is byte-identical to an
unverified one; a violation raises
:class:`~repro.reliability.integrity.IntegrityError`, which the serving
retry policy treats like any transient failure.  Conv checksums are
cached per 4-D filter bank and group, FC checksums per weight matrix, so
a weight flipped in place after its first verified use no longer
matches its cached checksum and raises.
"""

from __future__ import annotations

import numpy as np

from repro import settings
from repro.reliability import integrity
from repro.reliability.faults import FaultInjector

__all__ = [
    "MEM_ACTIVATIONS_SITE",
    "partitioned_gemm",
    "partitioned_matvec",
]

#: Fault site modelling a corrupted layer-output store: a ``corrupt``
#: rule perturbs one element of the product before verification.
MEM_ACTIVATIONS_SITE = "mem:activations"

#: The kernel-site injector and the settings it was built from.
_injector: tuple[settings.Settings, FaultInjector] | None = None


def rebuild_injector() -> FaultInjector:
    """Build the kernel-site injector, with fresh trial counters, from
    the process settings."""
    global _injector
    _injector = (settings.current(), FaultInjector.from_settings())
    return _injector[1]


def _current_injector() -> FaultInjector:
    """The kernel-site injector; rebuilt when other settings are
    installed, so its trial counters persist only under the same ones."""
    if _injector is None or _injector[0] is not settings.current():
        return rebuild_injector()
    return _injector[1]


def _maybe_corrupt_output(result: np.ndarray) -> None:
    """Fire ``mem:activations``; a ``corrupt`` action perturbs one element.

    The perturbation is deterministic (middle element, magnitude far
    above any ABFT tolerance) and happens *before* verification, so an
    active integrity policy must catch it while an ``off`` policy lets
    the corrupted block flow downstream — the difference the chaos suite
    measures.
    """
    injector = _current_injector()
    if not injector.enabled:
        return
    if injector.fire(MEM_ACTIVATIONS_SITE) != "corrupt":
        return
    flat = result.reshape(-1)
    index = flat.size // 2
    flat[index] += (1.0 + abs(float(flat[index]))) * 1e6


def partitioned_gemm(
    cols: np.ndarray, weights: np.ndarray, group: int = 0, groups: int = 1
) -> np.ndarray:
    """``cols @ w_g.T`` for filter group ``group`` of ``groups``.

    ``cols`` is one image's ``(M, K)`` patch matrix for that group, and
    ``weights`` is the filter bank with the ``N`` filters on its leading
    axis: the 4-D conv weights ``(N, depth / groups, Fy, Fx)`` or an
    ``(N, K)`` matrix.  ``w_g`` is the group's ``(N / groups, K)``
    reshaped view, so no weight bytes are copied.  Returns the
    ``(M, N / groups)`` product; the caller adds the bias.
    """
    size = weights.shape[0] // groups
    w_g = weights[group * size : (group + 1) * size].reshape(size, -1)
    result = cols @ w_g.T
    _maybe_corrupt_output(result)
    if integrity.should_verify():
        integrity.verify_gemm(cols, w_g.T, result, owner=weights, group=group)
    return result


def partitioned_matvec(weights: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``weights @ flat`` for one image's flattened FC input."""
    result = weights @ flat
    _maybe_corrupt_output(result)
    if integrity.should_verify():
        integrity.verify_matvec(weights, flat, result)
    return result
