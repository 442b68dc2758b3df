"""Silent-data-corruption defense: ABFT checksums + integrity policy.

A flipped bit in the shared weight arena or a corrupted activation block
would be served to every user of a shard, silently — crash-restart
machinery never notices because nothing *crashes*.  This module supplies
the detection half of the defense; :mod:`repro.nn.shm` (CRC-guarded
arena) and :mod:`repro.serve.router` (quarantine → republish → respawn)
supply the healing half.

ABFT column checksums (Huang & Abraham)
---------------------------------------
For the conv GEMM ``product = cols @ wt`` (``wt = w_g.T``, the group's
filter matrix seen transposed) the all-ones right checksum gives the
invariant::

    product @ 1  ==  cols @ (wt @ 1)

i.e. each output row's sum must equal the patch row dotted with the
weight matrix's row-sum vector.  The row-sum vector ``wt @ 1`` (and its
absolute companion, used for the tolerance bound) is computed once and
cached with a weakref finalizer, keyed on the stable 4-D filter bank
plus the group index (``wt`` itself is a fresh view on every call), so
the steady-state verification cost is one ``(M, K)`` GEMV plus one
``(M, N)`` row sum per GEMM: ``O(1/N + 1/K)`` of the GEMM itself.  The
FC matvec invariant is the transpose: ``sum(weights @ flat) ==
(1 @ weights) @ flat`` with the column-sum vector cached per weight
array.  As a side effect both caches detect in-place corruption of the
weights: the cached checksum no longer matches the live array.

Verification is **read-only**: it compares freshly computed scalars
against the kernel's result and raises :class:`IntegrityError` on
mismatch, never touching the product buffer — so a verified run is
byte-identical to an unverified one, preserving every bit-identity
contract in the repo.

Tolerance
---------
``got`` and ``expected`` accumulate the same products in different
orders, so they differ by floating-point rounding.  The check bounds
that honestly per output row::

    |got_i - expected_i| <= SAFETY * eps * sqrt(K + N) * bound_i

where ``bound_i = |cols_i| . |wt @ 1|_abs`` is the magnitude sum of the
row's checksum terms (robust against cancellation, unlike any bound on
``|got_i|`` itself) and ``SAFETY`` leaves two orders of magnitude of
headroom over the ``~sqrt(K) * eps`` error of blocked/pairwise
accumulation.  A false positive would poison serving (the kernel raises
and the retry recomputes identically on clean data), so the bound is
deliberately loose; the price is that perturbations *below* it pass
undetected, which is the documented meaning of "within dtype tolerance".
:func:`detectable_weight_delta` / :func:`detectable_patch_delta` export
the resulting detectability threshold so the property suite can inject
perturbations provably above it.

Known blind spots, by construction:

* A single ones-checksum projects the error onto one direction: a patch
  perturbation at column ``k`` scales with ``(wt @ 1)[k]``, so if the
  weight row-sums cancel to ~0 at ``k`` the perturbation is invisible.
  (A second, weighted checksum would close this at twice the cost.)
* Corruption that precedes *both* sides of the invariant — a weight bit
  flipped before the first verified call, so the cached checksum is
  built from the flipped weights — is self-consistent and passes.  That
  case is exactly what the CRC32 guard on the shared arena manifest
  exists for.  A flip *after* the first verified call is caught by the
  cached checksums, conv and FC alike, since both kernels multiply the
  live weight arrays (views of the arena in a shard).

Policy (``CNVLUTIN_INTEGRITY``)
-------------------------------
``off`` (default), ``always``, or ``sample:p`` with ``p`` in [0, 1],
read from the process settings (:mod:`repro.settings`, which parses
and validates it with the other knobs).  Sampling decisions are
deterministic (``hash_fraction`` over a process-global call counter),
so a given process verifies the same GEMMs run to run.
``CNVLUTIN_INTEGRITY_RECHECK_S`` bounds how stale a shard's arena CRC
check may be between batches (0 = re-verify before every reply; the
chaos suite's zero-corrupted-responses guarantee runs there).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro import obs, settings
from repro.nn import memo
from repro.reliability.policy import hash_fraction

__all__ = [
    "IntegrityError",
    "SAFETY",
    "should_verify",
    "verify_gemm",
    "verify_matvec",
    "gemm_tolerance",
    "detectable_weight_delta",
    "detectable_patch_delta",
]

#: Headroom multiplier of the rounding-error tolerance (module docstring).
SAFETY = 256.0


class IntegrityError(RuntimeError):
    """A checksum invariant failed: the data or the compute is corrupt."""


#: Process-global verification-decision counter: with ``sample:p`` the
#: n-th kernel call in a process always draws the same deterministic
#: fraction, so runs verify identical call sets.
_decision_counter = itertools.count()


def should_verify(policy: tuple[str, float] | None = None, seed: int = 0) -> bool:
    """Decide whether this kernel call verifies (deterministic sampling).

    ``policy`` defaults to the process settings' ``integrity_policy``.
    """
    if policy is None:
        policy = settings.current().integrity_policy
    mode, p = policy
    if mode == "off":
        return False
    if mode == "always":
        return True
    return hash_fraction(seed, "integrity.sample", next(_decision_counter)) < p


# ----------------------------------------------------------------------
# cached checksum vectors
# ----------------------------------------------------------------------
def _checksums(
    weights: np.ndarray, axis: int, owner: np.ndarray | None = None, group: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """``(sum, abs-sum)`` of ``weights`` along ``axis``, cached per array.

    The cache key is ``owner`` (default: ``weights`` itself) plus
    ``group``; the entry dies with ``owner`` (:func:`repro.nn.memo.derived`).
    A conv kernel passes its stable 4-D filter bank as ``owner`` because
    the matrix it verifies is a fresh per-call view of one group of it.
    Weight arrays are replaced, not mutated (the repo-wide contract) —
    which makes a cached checksum a *detector* of in-place mutation rather
    than a victim of it: a bit flipped in the live array no longer matches
    its first-use sums.
    """
    def build() -> tuple[np.ndarray, np.ndarray]:
        # float64 accumulation: a corrupted float32 weight can sit near
        # the dtype max, where a same-dtype abs-sum overflows to inf and
        # spews RuntimeWarnings from inside the check itself.
        return (
            weights.sum(axis=axis, dtype=np.float64),
            np.abs(weights).sum(axis=axis, dtype=np.float64),
        )

    owner = weights if owner is None else owner
    return memo.derived(owner, ("integrity.checksums", axis, group), build)


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def _gemm_tolerance(
    cols: np.ndarray, wt: np.ndarray, abs_rowsum: np.ndarray
) -> np.ndarray:
    eps = float(np.finfo(np.result_type(cols, wt)).eps)
    scale = SAFETY * eps * math.sqrt(cols.shape[1] + wt.shape[1])
    return scale * (np.abs(cols) @ abs_rowsum)


def gemm_tolerance(cols: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """Per-output-row tolerance of the GEMM checksum comparison.

    ``SAFETY * eps * sqrt(K + N)`` of each row's checksum magnitude
    bound ``|cols_i| . (|wt| @ 1)`` — see the module docstring.
    """
    _, abs_rowsum = _checksums(wt, axis=1)
    return _gemm_tolerance(cols, wt, abs_rowsum)


def verify_gemm(
    cols: np.ndarray,
    wt: np.ndarray,
    product: np.ndarray,
    owner: np.ndarray | None = None,
    group: int = 0,
) -> None:
    """Check ``product @ 1 == cols @ (wt @ 1)`` within tolerance.

    ``owner``/``group`` key the cached checksums when ``wt`` is a
    per-call view of one group of a stable filter bank (see
    :func:`_checksums`).  Read-only; raises :class:`IntegrityError` on
    the first violating row.  NaN/Inf in the product always violate
    (comparisons with NaN are False, and the tolerance is finite).
    """
    obs.counter_add("integrity.checks.abft")
    rowsum, abs_rowsum = _checksums(wt, axis=1, owner=owner, group=group)
    got = product.sum(axis=1, dtype=np.float64)
    expected = cols @ rowsum
    tolerance = _gemm_tolerance(cols, wt, abs_rowsum)
    ok = np.abs(got - expected) <= tolerance
    if ok.all():
        return
    obs.counter_add("integrity.detected.abft")
    row = int(np.argmin(ok))
    raise IntegrityError(
        f"ABFT conv checksum mismatch at output row {row}: "
        f"row sum {got[row]!r} != checksum {expected[row]!r} "
        f"(tolerance {tolerance[row]:.3e})"
    )


def verify_matvec(
    weights: np.ndarray, flat: np.ndarray, product: np.ndarray
) -> None:
    """Check ``sum(weights @ flat) == (1 @ weights) . flat`` within tolerance."""
    obs.counter_add("integrity.checks.abft")
    colsum, abs_colsum = _checksums(weights, axis=0)
    got = float(product.sum(dtype=np.float64))
    expected = float(colsum @ flat)
    eps = float(np.finfo(np.result_type(weights, flat)).eps)
    bound = float(abs_colsum @ np.abs(flat))  # float64 via the checksums
    tolerance = SAFETY * eps * math.sqrt(flat.size + product.size) * bound
    if abs(got - expected) <= tolerance:
        return
    obs.counter_add("integrity.detected.abft")
    raise IntegrityError(
        f"ABFT fc checksum mismatch: output sum {got!r} != "
        f"checksum {expected!r} (tolerance {tolerance:.3e})"
    )


# ----------------------------------------------------------------------
# detectability thresholds (what the property suite injects above)
# ----------------------------------------------------------------------
def detectable_weight_delta(
    cols: np.ndarray, wt: np.ndarray, k: int, margin: float = 4.0
) -> float:
    """Smallest guaranteed-detected perturbation of one weight in row ``k``.

    A delta added to ``wt[k, n]`` (any ``n``) shifts row ``i``'s checksum
    by ``cols[i, k] * delta``; detection needs that shift to clear the
    row's tolerance at the row where ``|cols[:, k]|`` peaks.  Returns
    ``inf`` for a dead column (all-zero ``cols[:, k]`` never propagates).
    """
    column = np.abs(cols[:, k])
    row = int(np.argmax(column))
    if column[row] == 0.0:
        return float("inf")
    return margin * float(gemm_tolerance(cols, wt)[row]) / float(column[row])


def detectable_patch_delta(
    cols: np.ndarray, wt: np.ndarray, i: int, k: int, margin: float = 4.0
) -> float:
    """Smallest guaranteed-detected perturbation of patch entry ``(i, k)``.

    The shift scales with the weight row-sum at ``k``; when those sums
    cancel to ~0 the ones-checksum is blind there (module docstring) and
    this returns ``inf`` — callers skip such coordinates.
    """
    rowsum, abs_rowsum = _checksums(wt, axis=1)
    eps = float(np.finfo(np.result_type(cols, wt)).eps)
    scale = SAFETY * eps * math.sqrt(cols.shape[1] + wt.shape[1])
    # The perturbed patch also inflates its own row's tolerance by
    # scale * |abs_rowsum[k]| * delta; require the signal to clear both.
    signal_per_delta = abs(float(rowsum[k])) - scale * float(abs_rowsum[k])
    if signal_per_delta <= 0.0:
        return float("inf")
    blind = scale * float(abs_rowsum[k]) >= 0.5 * abs(float(rowsum[k]))
    if blind:
        return float("inf")
    return margin * float(gemm_tolerance(cols, wt)[i]) / signal_per_delta
