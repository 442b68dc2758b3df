"""Integrity defense: ABFT checksums, CRC-guarded arena, env validators.

Four suites:

* **Policy/env** — one shared checker drives all four warn-and-default
  environment validators (``CNVLUTIN_ENGINE_CACHE_MB``,
  ``CNVLUTIN_INTEGRITY``, ``CNVLUTIN_INTEGRITY_RECHECK_S``,
  ``CNVLUTIN_FAULT_SEED``): junk warns and falls back, valid values
  parse silently, absence is silent.
* **ABFT** — the GEMM/matvec checksum invariants: clean products pass,
  perturbations above the exported detectability thresholds raise
  :class:`IntegrityError`, verification never mutates the product, a
  verified kernel run is byte-identical to an unverified one (the
  property the serving tier's bit-identity contract rides on), and a
  conv weight flipped in place after its first verified use raises.
* **Hypothesis property** — across the dtype × stride × groups grid of
  ``tests/differential.py``: any single-element perturbation of the
  weights or the patch matrix above the dtype-tolerance threshold is
  detected (blind coordinates — dead columns, cancelling row sums — are
  excluded via the helpers' ``inf`` returns, which is their documented
  meaning).
* **Arena** — per-segment CRC32 in the manifest: verify pinpoints a
  flipped byte's segment, attach rejects a corrupt arena, and the
  startup sweeper unlinks orphaned segments of dead pids only.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from differential import grid_cases, prune
from repro.nn import sparse as kernels
from repro.nn.engine import DEFAULT_CACHE_MB, _cache_budget_bytes
from repro.nn.layers import conv2d, fully_connected
from repro.nn.inference import WeightStore
from repro.nn.shm import ARENA_PREFIX, SharedWeightArena, sweep_stale_arenas
from repro.reliability import integrity
from repro.reliability.faults import FAULTS_ENV, SEED_ENV, FaultInjector
from repro.reliability.integrity import (
    DEFAULT_RECHECK_S,
    INTEGRITY_ENV,
    RECHECK_ENV,
    IntegrityError,
    detectable_patch_delta,
    detectable_weight_delta,
    gemm_tolerance,
    resolve_policy,
    resolve_recheck_s,
    should_verify,
    verify_gemm,
    verify_matvec,
)


# ----------------------------------------------------------------------
# the shared env-validator contract
# ----------------------------------------------------------------------
def check_env_validator(monkeypatch, env, resolve, junk, default, valid,
                        expected):
    """All warn-and-default validators obey one contract: junk warns
    (naming the variable) and returns the default, valid values parse
    silently, absence is silent."""
    integrity._policy_memo.clear()  # warnings memoize per raw string
    monkeypatch.setenv(env, junk)
    with pytest.warns(RuntimeWarning, match=env):
        assert resolve() == default
    monkeypatch.setenv(env, valid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve() == expected
    monkeypatch.delenv(env)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolve()


def _fault_seed() -> int:
    """The seed ``FaultInjector.from_env`` resolves (it reads the seed
    only when a fault spec is set)."""
    environ = dict(os.environ)
    environ[FAULTS_ENV] = "serve:batch=raise@0"
    return FaultInjector.from_env(environ).seed


VALIDATOR_CASES = [
    pytest.param(
        "CNVLUTIN_ENGINE_CACHE_MB", _cache_budget_bytes,
        "banana", int(DEFAULT_CACHE_MB * 1024 * 1024),
        "64", 64 * 1024 * 1024,
        id="engine-cache-mb",
    ),
    pytest.param(
        INTEGRITY_ENV, resolve_policy,
        "bogus", ("off", 0.0),
        "sample:0.25", ("sample", 0.25),
        id="integrity-policy",
    ),
    pytest.param(
        RECHECK_ENV, resolve_recheck_s,
        "-3", DEFAULT_RECHECK_S,
        "1.5", 1.5,
        id="integrity-recheck",
    ),
    pytest.param(
        SEED_ENV, _fault_seed,
        "seven", 0,
        "7", 7,
        id="fault-seed",
    ),
]


class TestEnvValidators:
    @pytest.mark.parametrize(
        "env,resolve,junk,default,valid,expected", VALIDATOR_CASES
    )
    def test_warn_and_default_contract(
        self, monkeypatch, env, resolve, junk, default, valid, expected
    ):
        check_env_validator(
            monkeypatch, env, resolve, junk, default, valid, expected
        )

    @pytest.mark.parametrize("raw,parsed", [
        ("off", ("off", 0.0)),
        ("always", ("always", 1.0)),
        ("ALWAYS", ("always", 1.0)),
        (" sample:0.05 ", ("sample", 0.05)),
        ("sample:1", ("sample", 1.0)),
        ("sample:0", ("sample", 0.0)),
    ])
    def test_policy_parses(self, raw, parsed):
        assert resolve_policy(raw) == parsed

    @pytest.mark.parametrize("raw", [
        "on", "sample:", "sample:nan", "sample:1.5", "sample:-0.1", "1",
    ])
    def test_explicit_junk_policy_raises(self, raw):
        # Explicit arguments are caller bugs, not environment typos.
        with pytest.raises(ValueError):
            resolve_policy(raw)

    def test_junk_policy_warns_once_per_value(self, monkeypatch):
        integrity._policy_memo.clear()
        monkeypatch.setenv(INTEGRITY_ENV, "garbage-once")
        with pytest.warns(RuntimeWarning):
            resolve_policy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_policy() == ("off", 0.0)  # memoized, silent


class TestShouldVerify:
    def test_off_never_always_always(self):
        assert not any(
            should_verify(("off", 0.0)) for _ in range(50)
        )
        assert all(should_verify(("always", 1.0)) for _ in range(50))

    def test_sampling_extremes(self):
        assert not any(should_verify(("sample", 0.0)) for _ in range(200))
        assert all(should_verify(("sample", 1.0)) for _ in range(200))

    def test_sampling_rate_roughly_holds(self):
        hits = sum(should_verify(("sample", 0.25)) for _ in range(2000))
        assert 300 < hits < 700  # deterministic hash, generous band


# ----------------------------------------------------------------------
# ABFT invariants
# ----------------------------------------------------------------------
def make_gemm(seed=0, m=6, k=21, n=4, dtype="float64", threshold=0.0):
    rng = np.random.default_rng(seed)
    cols = prune(
        np.maximum(rng.normal(0.3, 1.0, size=(m, k)), 0.0), threshold
    ).astype(dtype)
    wt = rng.normal(size=(k, n)).astype(dtype)
    return cols, wt


class TestVerifyGemm:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_clean_product_passes(self, dtype):
        cols, wt = make_gemm(dtype=dtype)
        verify_gemm(cols, wt, cols @ wt)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_product_corruption_detected(self, dtype):
        cols, wt = make_gemm(dtype=dtype)
        product = cols @ wt
        product[2, 1] += (1.0 + abs(float(product[2, 1]))) * 1e6
        with pytest.raises(IntegrityError, match="row 2"):
            verify_gemm(cols, wt, product)

    def test_nan_in_product_detected(self):
        cols, wt = make_gemm()
        product = cols @ wt
        product[0, 0] = np.nan
        with pytest.raises(IntegrityError):
            verify_gemm(cols, wt, product)

    def test_below_tolerance_perturbation_passes(self):
        # The bound is deliberately loose: a perturbation well inside it
        # must not fire (false positives would poison serving).
        cols, wt = make_gemm()
        product = cols @ wt
        product[1, 2] += 0.01 * float(gemm_tolerance(cols, wt)[1])
        verify_gemm(cols, wt, product)

    def test_verification_is_read_only(self):
        cols, wt = make_gemm()
        product = cols @ wt
        before = product.tobytes()
        verify_gemm(cols, wt, product)
        assert product.tobytes() == before

    def test_stale_checksum_detects_inplace_weight_flip(self):
        # The cached rowsum is the *clean* fingerprint: mutating the
        # array in place (an arena bit flip) makes the next product
        # disagree with it.
        cols, wt = make_gemm()
        verify_gemm(cols, wt, cols @ wt)  # caches clean checksums
        delta = detectable_weight_delta(cols, wt, k=3)
        assert np.isfinite(delta)
        wt[3, 1] += delta
        with pytest.raises(IntegrityError):
            verify_gemm(cols, wt, cols @ wt)


class TestVerifyMatvec:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_clean_product_passes(self, dtype):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=(9, 30)).astype(dtype)
        flat = rng.normal(size=30).astype(dtype)
        verify_matvec(weights, flat, weights @ flat)

    def test_product_corruption_detected(self):
        rng = np.random.default_rng(2)
        weights = rng.normal(size=(9, 30)).astype("float32")
        flat = rng.normal(size=30).astype("float32")
        product = weights @ flat
        product[4] += (1.0 + abs(float(product[4]))) * 1e6
        with pytest.raises(IntegrityError, match="fc checksum"):
            verify_matvec(weights, flat, product)

    def test_stale_checksum_detects_inplace_weight_flip(self):
        rng = np.random.default_rng(3)
        weights = rng.normal(size=(9, 30)).astype("float32")
        flat = np.abs(rng.normal(size=30)).astype("float32") + 0.1
        verify_matvec(weights, flat, weights @ flat)  # caches colsums
        weights[5, 7] += 1e4 * float(np.abs(weights).max())
        with pytest.raises(IntegrityError):
            verify_matvec(weights, flat, weights @ flat)


class TestKernelByteIdentity:
    """Verified runs are byte-identical to unverified runs."""

    def _conv_bytes(self, rng):
        activations = np.maximum(
            rng.normal(0.3, 1.0, size=(7, 8, 8)), 0.0
        ).astype("float32")
        weights = rng.normal(size=(4, 7, 3, 3)).astype("float32")
        bias = rng.normal(size=4).astype("float32")
        return conv2d(activations, weights, bias, stride=1, pad=1).tobytes()

    def _fc_bytes(self, rng):
        activations = np.maximum(
            rng.normal(0.3, 1.0, size=(5, 4, 4)), 0.0
        ).astype("float32")
        weights = rng.normal(size=(9, 80)).astype("float32")
        bias = rng.normal(size=9).astype("float32")
        return fully_connected(activations, weights, bias).tobytes()

    @pytest.mark.parametrize("kernel", ["conv", "fc"])
    def test_always_matches_off(self, monkeypatch, kernel):
        compute = self._conv_bytes if kernel == "conv" else self._fc_bytes
        blobs = {}
        for mode in ("off", "always", "sample:0.5"):
            monkeypatch.setenv(INTEGRITY_ENV, mode)
            blobs[mode] = compute(np.random.default_rng(11))
        assert blobs["always"] == blobs["off"]
        assert blobs["sample:0.5"] == blobs["off"]


class TestInPlaceWeightFlip:
    """Under ``always``, a conv weight flipped in place after a first
    call makes the next call raise: the checksum cached on first use (per
    filter bank and group) no longer matches the live weights the GEMM
    multiplies."""

    def test_conv_weight_flip_raises(self, monkeypatch):
        monkeypatch.setenv(INTEGRITY_ENV, "always")
        rng = np.random.default_rng(13)
        activations = np.abs(rng.normal(size=(8, 6, 6))) + 0.1
        weights = rng.normal(size=(4, 4, 3, 3))
        conv2d(activations, weights, pad=1, groups=2)  # caches checksums
        weights[3, 2, 1, 1] += 1e4 * float(np.abs(weights).max())  # group 1
        with pytest.raises(IntegrityError, match="conv checksum"):
            conv2d(activations, weights, pad=1, groups=2)


class TestMemActivationsFault:
    def test_corrupt_epilogue_raises_then_recovers(self, monkeypatch):
        monkeypatch.setenv(INTEGRITY_ENV, "always")
        monkeypatch.setenv("CNVLUTIN_FAULTS", "mem:activations=corrupt@1")
        cols, wt = make_gemm(seed=7, threshold=0.3)
        weights = np.ascontiguousarray(wt.T)  # (N, K) filter bank
        gemm = lambda: kernels.partitioned_gemm(cols, weights)
        first = gemm()  # trial 0: clean
        with pytest.raises(IntegrityError):
            gemm()  # trial 1: corrupted epilogue
        again = gemm()  # trial 2: clean again
        assert np.array_equal(first, again)


# ----------------------------------------------------------------------
# hypothesis: perturbations above the threshold are always detected
# ----------------------------------------------------------------------
GRID = [
    case for case in grid_cases()
    if (case.pad, case.batch) == (1, 1)  # dtype x stride x groups x thr
]


def gemm_from_case(case, seed):
    """im2col-shaped matrices whose geometry tracks the grid case."""
    rng = np.random.default_rng(seed)
    depth = 8 if case.groups == 2 else 7
    kernel = 3
    k = (depth // case.groups) * kernel * kernel
    m = 2 + (12 // case.stride)  # more windows at smaller stride
    n = 4
    cols = prune(
        np.maximum(rng.normal(0.3, 1.0, size=(m, k)), 0.0), case.threshold
    ).astype(case.dtype)
    wt = rng.normal(size=(k, n)).astype(case.dtype)
    return cols, wt


class TestPerturbationProperty:
    @given(
        case=st.sampled_from(GRID),
        seed=st.integers(0, 2**31 - 1),
        coord=st.integers(0, 2**31 - 1),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=60)
    def test_weight_perturbation_detected(self, case, seed, coord, sign):
        cols, wt = gemm_from_case(case, seed)
        k = coord % wt.shape[0]
        n = (coord // wt.shape[0]) % wt.shape[1]
        delta = detectable_weight_delta(cols, wt, k)  # caches clean sums
        assume(np.isfinite(delta))  # dead column: documented blind spot
        wt[k, n] += np.asarray(sign * delta, dtype=wt.dtype)
        assume(float(wt[k, n]) != 0.0 or delta == 0.0)  # rounding ate it
        with pytest.raises(IntegrityError):
            verify_gemm(cols, wt, cols @ wt)

    @given(
        case=st.sampled_from(GRID),
        seed=st.integers(0, 2**31 - 1),
        coord=st.integers(0, 2**31 - 1),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=60)
    def test_patch_perturbation_detected(self, case, seed, coord, sign):
        cols, wt = gemm_from_case(case, seed)
        i = coord % cols.shape[0]
        k = (coord // cols.shape[0]) % cols.shape[1]
        product = cols @ wt
        delta = detectable_patch_delta(cols, wt, i, k)
        assume(np.isfinite(delta))  # cancelling row sums: blind spot
        perturbed = cols.copy()
        perturbed[i, k] += np.asarray(sign * delta, dtype=cols.dtype)
        assume(float(perturbed[i, k]) != float(cols[i, k]))
        with pytest.raises(IntegrityError):
            verify_gemm(perturbed, wt, product)


# ----------------------------------------------------------------------
# CRC-guarded arena + stale-segment sweeper
# ----------------------------------------------------------------------
def one_net_stores():
    rng = np.random.default_rng(9)
    return {
        "netA": WeightStore(
            weights={
                "conv1": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                "fc1": rng.standard_normal((10, 36)).astype(np.float32),
            },
            biases={
                "conv1": rng.standard_normal(4).astype(np.float32),
                "fc1": rng.standard_normal(10).astype(np.float32),
            },
            shifts={},
        )
    }


class TestArenaCRC:
    def test_manifest_carries_crc_and_verify_passes(self):
        arena = SharedWeightArena.publish(one_net_stores())
        try:
            for entry in arena.manifest["networks"].values():
                for section in ("weights", "biases"):
                    for meta in entry[section].values():
                        assert isinstance(meta["crc32"], int)
            assert arena.verify() == []
        finally:
            arena.unlink()
            arena.close()

    def test_verify_pinpoints_flipped_segment(self):
        arena = SharedWeightArena.publish(one_net_stores())
        try:
            meta = arena.manifest["networks"]["netA"]["weights"]["fc1"]
            position = meta["offset"] + 5
            arena.shm.buf[position] ^= 0x40
            assert arena.verify() == ["netA/weights/fc1"]
            arena.shm.buf[position] ^= 0x40
            assert arena.verify() == []
        finally:
            arena.unlink()
            arena.close()

    def test_attach_rejects_corrupt_arena(self):
        arena = SharedWeightArena.publish(one_net_stores())
        try:
            meta = arena.manifest["networks"]["netA"]["biases"]["conv1"]
            arena.shm.buf[meta["offset"]] ^= 0xFF
            with pytest.raises(IntegrityError, match="netA/biases/conv1"):
                SharedWeightArena.attach(arena.manifest)
            attached = SharedWeightArena.attach(arena.manifest, verify=False)
            attached.close()
        finally:
            arena.unlink()
            arena.close()

    def test_pre_guard_manifest_attaches(self):
        # Manifests published before the CRC guard carry no checksums;
        # attach must keep working (rolling upgrade of a serving tier).
        arena = SharedWeightArena.publish(one_net_stores())
        try:
            manifest = {
                "shm": arena.manifest["shm"],
                "networks": {
                    network: {
                        "weights": {
                            layer: {
                                key: value for key, value in meta.items()
                                if key != "crc32"
                            }
                            for layer, meta in entry["weights"].items()
                        },
                        "biases": {
                            layer: {
                                key: value for key, value in meta.items()
                                if key != "crc32"
                            }
                            for layer, meta in entry["biases"].items()
                        },
                        "shifts": entry.get("shifts", {}),
                    }
                    for network, entry in arena.manifest["networks"].items()
                },
            }
            attached = SharedWeightArena.attach(manifest)
            assert attached.verify() == []  # nothing guarded, nothing bad
            attached.close()
        finally:
            arena.unlink()
            arena.close()


class TestStaleArenaSweep:
    def test_sweeps_dead_pid_segments_only(self, tmp_path):
        shm_dir = tmp_path
        # A segment "owned" by a reaped pid vs one owned by this process.
        dead = shm_dir / f"{ARENA_PREFIX}999999999-deadbeef"
        alive = shm_dir / f"{ARENA_PREFIX}{os.getpid()}-cafecafe"
        stranger = shm_dir / "unrelated-file"
        for path in (dead, alive, stranger):
            path.write_bytes(b"x")
        removed = sweep_stale_arenas(shm_dir=str(shm_dir))
        assert [os.path.basename(p) for p in removed] == [dead.name]
        assert not dead.exists()
        assert alive.exists() and stranger.exists()

    def test_ignores_unparseable_names(self, tmp_path):
        weird = tmp_path / f"{ARENA_PREFIX}notapid-token"
        noslot = tmp_path / f"{ARENA_PREFIX}12345"
        weird.write_bytes(b"x")
        noslot.write_bytes(b"x")
        assert sweep_stale_arenas(shm_dir=str(tmp_path)) == []
        assert weird.exists() and noslot.exists()

    def test_missing_dir_is_quiet(self, tmp_path):
        assert sweep_stale_arenas(shm_dir=str(tmp_path / "absent")) == []

    def test_live_arena_survives_sweep(self):
        arena = SharedWeightArena.publish(one_net_stores())
        try:
            assert arena.shm.name.startswith(ARENA_PREFIX)
            swept = sweep_stale_arenas()
            assert arena.shm.name not in {
                os.path.basename(p) for p in swept
            }
            assert arena.verify() == []
        finally:
            arena.unlink()
            arena.close()
