"""Integrity defense: ABFT checksums, CRC-guarded arena, process knobs.

Four suites:

* **Knobs** — one table (``VALIDATOR_CASES``) holds every ``CNVLUTIN_*``
  knob of :mod:`repro.settings`, and one test drives each row through
  the process settings: absence gives the default, a valid value parses
  silently, junk in the environment warns and keeps the default (a bad
  ``CNVLUTIN_FAULTS`` raises naming the variable; paths accept
  anything), and junk passed explicitly raises — as a ``ValueError``
  from ``Settings`` or ``ShardTierConfig``, as exit 2 from a
  ``repro-serve`` flag.
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
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.settings
from differential import grid_cases, prune
from repro.nn import sparse as kernels
from repro.nn.layers import conv2d, fully_connected
from repro.nn.inference import WeightStore
from repro.nn.shm import ARENA_PREFIX, SharedWeightArena, sweep_stale_arenas
from repro.reliability.integrity import (
    IntegrityError,
    detectable_patch_delta,
    detectable_weight_delta,
    gemm_tolerance,
    should_verify,
    verify_gemm,
    verify_matvec,
)
from repro.serve.router import ShardTierConfig
from repro.settings import DEFAULT_CACHE_DIR, ENV, Settings

SRC = Path(__file__).resolve().parents[1] / "src"


# ----------------------------------------------------------------------
# the knob table
# ----------------------------------------------------------------------
def knob(monkeypatch, field, raw):
    """``field`` of the process settings parsed with its variable set to
    ``raw`` (None: unset)."""
    if raw is None:
        monkeypatch.delenv(ENV[field], raising=False)
    else:
        monkeypatch.setenv(ENV[field], raw)
    repro.settings.reload()
    return getattr(repro.settings.current(), field)


def silently(compute):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return compute()


#: (field, junk, what junk in the environment does, default, valid, parsed)
VALIDATOR_CASES = [
    pytest.param(
        "cache_dir", "any dir?", "accepted", DEFAULT_CACHE_DIR,
        "cnv/cache", Path("cnv/cache"), id="cache-dir",
    ),
    pytest.param(
        "engine_cache_mb", "banana", "warns", 512.0, "64", 64.0,
        id="engine-cache-mb",
    ),
    pytest.param(
        "integrity", "bogus", "warns", "off", "sample:0.25", "sample:0.25",
        id="integrity-policy",
    ),
    pytest.param(
        "integrity_recheck_s", "-3", "warns", 5.0, "1.5", 1.5,
        id="integrity-recheck",
    ),
    pytest.param(
        "faults", "garbage", "raises", "", "mem:activations=corrupt@8",
        "mem:activations=corrupt@8", id="faults",
    ),
    pytest.param(
        "fault_state", "any dir?", "accepted", None,
        "cnv/faults", Path("cnv/faults"), id="fault-state",
    ),
    pytest.param("fault_seed", "seven", "warns", 0, "7", 7, id="fault-seed"),
    pytest.param("trace", "maybe", "warns", False, " ON ", True, id="trace"),
]


class TestEnvValidators:
    def test_table_covers_every_knob(self):
        assert [case.values[0] for case in VALIDATOR_CASES] == list(ENV)

    @pytest.mark.parametrize(
        "field,junk,on_junk,default,valid,parsed", VALIDATOR_CASES
    )
    def test_knob_follows_table(
        self, monkeypatch, field, junk, on_junk, default, valid, parsed
    ):
        env = ENV[field]
        assert silently(lambda: knob(monkeypatch, field, None)) == default
        assert silently(lambda: knob(monkeypatch, field, valid)) == parsed
        if on_junk == "warns":
            with pytest.warns(RuntimeWarning, match=env):
                assert knob(monkeypatch, field, junk) == default
        elif on_junk == "raises":
            with pytest.raises(ValueError, match=env):
                knob(monkeypatch, field, junk)
        else:
            assert silently(lambda: knob(monkeypatch, field, junk)) == Path(junk)
            return
        with pytest.raises(ValueError, match=field):
            Settings(**{field: junk})

    @pytest.mark.parametrize("raw,parsed", [
        ("off", ("off", 0.0)),
        ("always", ("always", 1.0)),
        ("ALWAYS", ("always", 1.0)),
        (" sample:0.05 ", ("sample", 0.05)),
        ("sample:1", ("sample", 1.0)),
        ("sample:0", ("sample", 0.0)),
    ])
    def test_policy_parses(self, raw, parsed):
        assert Settings(integrity=raw).integrity_policy == parsed

    @pytest.mark.parametrize("raw", [
        "on", "sample:", "sample:nan", "sample:1.5", "sample:-0.1", "1",
    ])
    def test_explicit_junk_policy_raises(self, raw):
        # Explicit arguments are caller bugs, not environment typos.
        with pytest.raises(ValueError, match="integrity"):
            Settings(integrity=raw)

    def test_junk_policy_warns_once_per_value(self, monkeypatch):
        # The process parses its environment once, not per kernel call.
        monkeypatch.setenv(ENV["integrity"], "garbage-once")
        with pytest.warns(RuntimeWarning, match=ENV["integrity"]):
            assert not should_verify()
        assert silently(lambda: [should_verify() for _ in range(3)]) == [
            False, False, False,
        ]

    def test_imports_parse_no_knob(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.update({var: "junk?" for var in ENV.values()})
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", "import repro, repro.obs"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr


class TestExplicitJunk:
    """A junk value passed explicitly never falls back to a default."""

    @pytest.mark.parametrize("flag,value", [
        ("--integrity", "bogus"),
        ("--integrity-recheck-s", "-1"),
        ("--shard-cache-mb", "-5"),
    ])
    def test_serve_cli_flag_exits_2(self, capsys, flag, value):
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", "--requests", "1", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_shard_tier_settings_raise(self):
        with pytest.raises(ValueError, match="integrity"):
            ShardTierConfig(settings=Settings(integrity="bogus"))

    def test_bad_fault_spec_names_the_variable_at_any_first_use(
        self, monkeypatch
    ):
        monkeypatch.setenv(ENV["faults"], "garbage")
        with pytest.raises(ValueError, match=ENV["faults"]):
            conv2d(np.ones((1, 3, 3)), np.ones((1, 1, 1, 1)))


class TestKernelInjectorFollowsSettings:
    def test_seed_and_state_reach_the_kernel_injector(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(ENV["faults"], "mem:activations=corrupt@8")
        assert kernels._current_injector().seed == 0
        monkeypatch.setenv(ENV["fault_seed"], "5")
        monkeypatch.setenv(ENV["fault_state"], str(tmp_path))
        repro.settings.reload()
        injector = kernels._current_injector()
        assert (injector.seed, injector.state_dir) == (5, tmp_path)
        repro.settings.install(Settings(faults="mem:weights=corrupt@1"))
        assert [rule.site for rule in kernels._current_injector().rules] == [
            "mem:weights"
        ]


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
    def test_always_matches_off(self, kernel):
        compute = self._conv_bytes if kernel == "conv" else self._fc_bytes
        blobs = {}
        for mode in ("off", "always", "sample:0.5"):
            repro.settings.install(Settings(integrity=mode))
            blobs[mode] = compute(np.random.default_rng(11))
        assert blobs["always"] == blobs["off"]
        assert blobs["sample:0.5"] == blobs["off"]


class TestInPlaceWeightFlip:
    """Under ``always``, a conv weight flipped in place after a first
    call makes the next call raise: the checksum cached on first use (per
    filter bank and group) no longer matches the live weights the GEMM
    multiplies."""

    def test_conv_weight_flip_raises(self):
        repro.settings.install(Settings(integrity="always"))
        rng = np.random.default_rng(13)
        activations = np.abs(rng.normal(size=(8, 6, 6))) + 0.1
        weights = rng.normal(size=(4, 4, 3, 3))
        conv2d(activations, weights, pad=1, groups=2)  # caches checksums
        weights[3, 2, 1, 1] += 1e4 * float(np.abs(weights).max())  # group 1
        with pytest.raises(IntegrityError, match="conv checksum"):
            conv2d(activations, weights, pad=1, groups=2)


class TestMemActivationsFault:
    def test_corrupt_epilogue_raises_then_recovers(self):
        repro.settings.install(
            Settings(integrity="always", faults="mem:activations=corrupt@1")
        )
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
