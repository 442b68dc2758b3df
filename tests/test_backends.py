"""Cross-backend conformance suite plus CNV2/SCNN model properties.

Every backend in the :mod:`repro.backends` registry must honour one
shared contract, checked here **parameterized over the registry** — a
newly registered backend is covered with zero test edits:

* cycles are bounded below by the effectual-work capacity bound
  ``ceil(E / (units x lanes x filters_per_unit))`` and above by the
  dense baseline's cycles;
* timing is deterministic: re-simulating the identical workload
  reproduces cycles, lane events, and every activity counter exactly;
* activity counters are internally consistent (multiplies pair with
  adds; nothing goes negative), and for backends declaring
  ``mults_are_effectual`` (SCNN) the multiply count equals the
  brute-force effectual-pair count exactly;
* ``needs_weights`` backends refuse to run without weights.

Workload regime: the upper bound is a *model* property only where the
models are meant to operate — paper-like depths (>= 2 bricks, so lanes
fill) and output planes with at least ``num_units`` positions.  On toy
sub-brick workloads (depth 8, the repo-wide default) CNV genuinely
loses to the dense baseline (half-padded bricks waste 15 of 16 lanes)
and SCNN underutilizes tiny output planes, so the conformance
workloads below pin the realistic regime on purpose.

The Hypothesis sections cross-validate CNV2's offset-pair intersection
against brute force over :func:`repro.core.zfnaf.encode` bricks
(including all-zero bricks and depth % 16 != 0 tails) and pin the
ordering invariants: CNV2 <= CNV cycles for *any* weights, equality for
dense weights, and a strict win under channel-structured pruning.

The SCNN and CNV2 simulators count in whole-array products over weight
structure memoized per filter bank; ``TestOracles`` pins them to the
per-tap loops in ``backend_oracles.py`` record for record, and
``TestPerBankMemo`` pins the memo's lifetime and thread behaviour.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from backend_oracles import (
    cnv2_conv_timing_reference,
    scnn_conv_timing_reference,
)
from conftest import make_conv_work
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    Backend,
    backend_names,
    brick_slot_mask,
    effectual_pair_count,
    get_backend,
    pair_intersection_counts,
    pass_weight_union,
    power_model_for,
    prune_input_channels,
    prune_weights,
    register,
    scnn_conv_timing,
)
from repro.backends.cnv2 import pass_unions
from repro.backends.registry import architectures
from repro.backends.scnn import filter_counts
from repro.baseline.timing import conv_works_from_inputs
from repro.baseline.workload import ceil_div
from repro.core.zfnaf import encode
from repro.experiments.config import PaperConfig
from repro.experiments.context import ExperimentContext
from repro.hw.config import PAPER_CONFIG, small_config

#: Paper-like conformance workloads (see module docstring for why the
#: regime matters): depth >= 2 bricks, out_y*out_x >= num_units, one
#: depth % 16 != 0 tail, one grouped, one strided, one high-sparsity.
CONFORMANCE_WORKLOADS = (
    dict(in_depth=64, in_y=8, in_x=8, num_filters=32),
    dict(in_depth=72, in_y=8, in_x=8, num_filters=20),
    dict(in_depth=64, in_y=8, in_x=8, num_filters=32, groups=2),
    dict(in_depth=48, in_y=11, in_x=11, num_filters=16, stride=2),
    dict(in_depth=64, in_y=8, in_x=8, num_filters=32, zero_fraction=0.7),
)

WEIGHT_SPARSITY = 0.4


def conformance_cases():
    """(ConvWork, pruned weights) per conformance geometry, fixed seed."""
    rng = np.random.default_rng(2024)
    cases = []
    for kwargs in CONFORMANCE_WORKLOADS:
        work, weights = make_conv_work(rng, **kwargs)
        cases.append((kwargs, work, prune_weights(weights, WEIGHT_SPARSITY)))
    return cases


def timing_for(spec: Backend, work, weights):
    return spec.layer_timing(
        work, PAPER_CONFIG, weights if spec.needs_weights else None
    )


def capacity_lower_bound(work, weights) -> int:
    """ceil(effectual pairs / peak products per cycle) — no backend can
    finish the effectual work faster than the full array allows."""
    pairs = effectual_pair_count(work, weights)
    per_cycle = (
        PAPER_CONFIG.num_units
        * PAPER_CONFIG.neuron_lanes
        * PAPER_CONFIG.filters_per_unit
    )
    return ceil_div(pairs, per_cycle)


@pytest.fixture(scope="module")
def cases():
    return conformance_cases()


def registry_backends() -> list[str]:
    """The conformance parameterization — the registry itself.

    ``CNVLUTIN_BACKEND_ONLY=<name>`` restricts the run to one backend
    (the CI matrix runs one job per backend through this knob).
    """
    import os

    only = os.environ.get("CNVLUTIN_BACKEND_ONLY")
    names = backend_names()
    if only:
        if only not in names:
            raise RuntimeError(
                f"CNVLUTIN_BACKEND_ONLY={only!r} is not registered ({names})"
            )
        return [only]
    return names


class TestConformance:
    """The shared contract, parameterized over the registry."""

    @pytest.mark.parametrize("name", registry_backends())
    def test_cycles_bounded_by_effectual_work_and_baseline(self, name, cases):
        spec = get_backend(name)
        base_spec = get_backend("baseline")
        for kwargs, work, weights in cases:
            timing = timing_for(spec, work, weights)
            base = timing_for(base_spec, work, weights)
            lower = capacity_lower_bound(work, weights)
            assert lower <= timing.cycles, (name, kwargs)
            assert timing.cycles <= base.cycles, (name, kwargs)

    @pytest.mark.parametrize("name", registry_backends())
    def test_timing_is_deterministic(self, name, cases):
        spec = get_backend(name)
        _, work, weights = cases[0]
        first = timing_for(spec, work, weights)
        second = timing_for(spec, work, weights)
        assert first.cycles == second.cycles
        assert first.lane_events == second.lane_events
        assert dict(first.counters.counts) == dict(second.counters.counts)

    @pytest.mark.parametrize("name", registry_backends())
    def test_counters_internally_consistent(self, name, cases):
        spec = get_backend(name)
        for kwargs, work, weights in cases:
            counters = timing_for(spec, work, weights).counters.counts
            assert counters, (name, kwargs)
            assert all(value >= 0 for value in counters.values()), (name, kwargs)
            # Every model here issues one accumulate per multiply.
            assert counters.get("mults", 0.0) == counters.get("adds", 0.0), (
                name, kwargs,
            )
            if spec.mults_are_effectual:
                pairs = effectual_pair_count(work, weights)
                assert int(counters["mults"]) == pairs, (name, kwargs)

    @pytest.mark.parametrize("name", registry_backends())
    def test_needs_weights_contract_enforced(self, name, cases):
        spec = get_backend(name)
        _, work, weights = cases[0]
        if spec.needs_weights:
            with pytest.raises(ValueError, match="requires a weights"):
                spec.layer_timing(work, PAPER_CONFIG)
        else:
            spec.layer_timing(work, PAPER_CONFIG)  # weights optional

    @pytest.mark.parametrize("name", registry_backends())
    def test_declares_power_model_and_unique_architecture(self, name):
        spec = get_backend(name)
        assert power_model_for(spec.architecture) is spec.power_model
        assert architectures()[spec.architecture] == name


class TestRegistry:
    def test_builtin_order_is_presentation_order(self):
        names = backend_names()
        assert names[:5] == ["baseline", "gated", "cnv", "cnv2", "scnn"]

    def test_duplicate_name_rejected(self):
        spec = get_backend("cnv")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)

    def test_duplicate_architecture_rejected(self):
        spec = get_backend("cnv")
        clone = Backend(
            name="cnv-clone",
            architecture=spec.architecture,
            description="dup arch",
            conv_timing=spec.conv_timing,
            net_timing=spec.net_timing,
            power_model=spec.power_model,
        )
        with pytest.raises(ValueError, match="already registered"):
            register(clone)
        assert "cnv-clone" not in backend_names()

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(KeyError, match="cnv2"):
            get_backend("definitely-not-a-backend")

    def test_unknown_architecture_raises(self):
        with pytest.raises(KeyError, match="unknown architecture"):
            power_model_for("tpu-v9")


def _brute_force_intersections(slab, pass_weights, brick_size, fy, fx):
    """Per-brick dispatched-offset counts, via explicit loops over the
    ZFNAf encoding — the independent ground truth for CNV2's front end."""
    depth = slab.shape[0]
    zf = encode(slab, brick_size)
    height, width = zf.spatial_shape
    bricks = zf.bricks_per_column
    counts = np.zeros((height, width, bricks))
    for y in range(height):
        for x in range(width):
            for bz in range(bricks):
                _, offsets = zf.brick(y, x, bz)
                for offset in offsets:
                    z = bz * brick_size + int(offset)
                    if z < depth and np.any(pass_weights[:, z, fy, fx] != 0.0):
                        counts[y, x, bz] += 1
    return counts


@given(
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(1, 40),
    side=st.integers(1, 4),
    filters=st.integers(1, 5),
    kernel=st.integers(1, 3),
    act_zero=st.floats(0.0, 1.0),
    weight_zero=st.floats(0.0, 1.0),
)
@settings(max_examples=40)
def test_cnv2_intersection_matches_zfnaf_brute_force(
    seed, depth, side, filters, kernel, act_zero, weight_zero
):
    """Skipped-pair count == brute force over encoded bricks, for every
    kernel tap — covering all-zero bricks and depth % 16 != 0 tails."""
    brick_size = 16
    rng = np.random.default_rng(seed)
    slab = rng.normal(size=(depth, side, side))
    slab[rng.random(slab.shape) < act_zero] = 0.0
    weights = rng.normal(size=(filters, depth, kernel, kernel))
    weights[rng.random(weights.shape) < weight_zero] = 0.0

    act_mask = brick_slot_mask(slab, brick_size)
    union = pass_weight_union(weights, brick_size)
    bricks = act_mask.shape[2]
    assert bricks == ceil_div(depth, brick_size)
    # Every tap at once, as the simulator counts them.
    stacked = pair_intersection_counts(act_mask, union)
    for fy in range(kernel):
        for fx in range(kernel):
            counts = pair_intersection_counts(act_mask, union[fy, fx])
            expected = _brute_force_intersections(
                slab, weights, brick_size, fy, fx
            )
            assert np.array_equal(counts, expected), (fy, fx)
            assert np.array_equal(stacked[fy, fx], expected), (fy, fx)
            # skipped = brick_size - dispatched, per brick: zero activation
            # OR an all-zero weight column — never negative, never > slots.
            skipped = bricks * brick_size * side * side - counts.sum()
            assert 0 <= counts.max() <= brick_size
            assert skipped >= 0


@given(
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(1, 40),
    filters=st.integers(1, 6),
    groups=st.sampled_from([1, 2]),
    weight_zero=st.floats(0.0, 0.9),
)
@settings(max_examples=25)
def test_cnv2_never_exceeds_cnv_and_dense_weights_reduce_to_cnv(
    seed, depth, filters, groups, weight_zero
):
    """CNV2 cycles <= CNV cycles for ANY weights (the intersection can
    only shrink per-brick work); with fully dense weights the two models
    coincide exactly — cycles, lane events, and dispatch-scaled counters.
    Grouped convolutions included."""
    if depth % groups or filters % groups:
        depth = depth * groups
        filters = filters * groups
    rng = np.random.default_rng(seed)
    work, dense = make_conv_work(
        rng, in_depth=depth, in_y=5, in_x=5,
        num_filters=filters, groups=groups,
    )
    sparse = dense.copy()
    sparse[rng.random(dense.shape) < weight_zero] = 0.0

    cnv = get_backend("cnv").layer_timing(work, PAPER_CONFIG)
    cnv2_sparse = get_backend("cnv2").layer_timing(work, PAPER_CONFIG, sparse)
    cnv2_dense = get_backend("cnv2").layer_timing(work, PAPER_CONFIG, dense)

    assert cnv2_sparse.cycles <= cnv.cycles
    assert cnv2_dense.cycles == cnv.cycles
    assert cnv2_dense.counters.counts["mults"] == (
        cnv.counters.counts["mults"]
    )


def test_cnv2_strictly_faster_under_channel_structured_pruning(rng):
    """Unstructured pruning leaves the pass-wide offset union dense (an
    offset skips only when EVERY filter is zero there), so CNV2 == CNV;
    channel-structured pruning aligns the zeros and CNV2 wins strictly."""
    work, weights = make_conv_work(
        rng, in_depth=64, in_y=8, in_x=8, num_filters=32
    )
    structured = prune_input_channels(weights, 0.5)
    cnv = get_backend("cnv").layer_timing(work, PAPER_CONFIG)
    cnv2 = get_backend("cnv2").layer_timing(work, PAPER_CONFIG, structured)
    assert cnv2.cycles < cnv.cycles


def test_cnv2_first_layer_falls_back_to_baseline(rng):
    work, weights = make_conv_work(
        rng, in_depth=48, in_y=8, in_x=8, num_filters=16, is_first=True
    )
    base = get_backend("baseline").layer_timing(work, PAPER_CONFIG)
    cnv2 = get_backend("cnv2").layer_timing(work, PAPER_CONFIG, weights)
    assert cnv2.cycles == base.cycles


def _brute_force_pairs(work, weights) -> int:
    """Effectual products by the most explicit accumulation possible:
    one loop iteration per (filter, output position, weight tap)."""
    geom = work.geometry
    kernel = geom["kernel"]
    stride = geom["stride"]
    pad = geom["pad"]
    depth = geom["in_depth"]
    padded = np.zeros(
        (depth, geom["in_y"] + 2 * pad, geom["in_x"] + 2 * pad)
    )
    padded[:, pad:pad + geom["in_y"], pad:pad + geom["in_x"]] = (
        work.activations
    )
    fpg = work.filters_per_group
    group_depth = depth // work.num_groups
    total = 0
    for f in range(geom["num_filters"]):
        group = f // fpg
        base_z = group * group_depth
        for oy in range(geom["out_y"]):
            for ox in range(geom["out_x"]):
                for z in range(group_depth):
                    for fy in range(kernel):
                        for fx in range(kernel):
                            if weights[f, z, fy, fx] == 0.0:
                                continue
                            if padded[
                                base_z + z, oy * stride + fy, ox * stride + fx
                            ] != 0.0:
                                total += 1
    return total


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(in_depth=6, in_y=4, in_x=4, num_filters=3, kernel=3),
        dict(in_depth=4, in_y=5, in_x=5, num_filters=4, kernel=3, stride=2),
        dict(in_depth=8, in_y=4, in_x=4, num_filters=4, groups=2),
    ],
)
def test_scnn_mults_match_quintuple_loop_brute_force(rng, kwargs):
    """Both the timing model's product map and effectual_pair_count must
    agree with a 5-deep explicit loop — three independent accumulation
    orders of the same Cartesian-product quantity."""
    work, weights = make_conv_work(rng, **kwargs)
    pruned = prune_weights(weights, 0.5)
    expected = _brute_force_pairs(work, pruned)
    assert effectual_pair_count(work, pruned) == expected
    timing = scnn_conv_timing(work, PAPER_CONFIG, pruned)
    assert int(timing.counters.counts["mults"]) == expected


def test_scnn_pairs_never_exceed_dense_work(rng):
    """Halo products are excluded, so E <= dense MACs of the layer."""
    work, weights = make_conv_work(rng, in_depth=32, in_y=6, in_x=6,
                                   num_filters=8)
    geom = work.geometry
    dense = (
        geom["num_filters"] * (geom["in_depth"] // work.num_groups)
        * geom["kernel"] ** 2 * geom["out_y"] * geom["out_x"]
    )
    assert effectual_pair_count(work, weights) <= dense


def test_weight_pruning_is_deterministic_and_exact():
    rng = np.random.default_rng(11)
    weights = rng.normal(size=(8, 16, 3, 3))
    pruned_a = prune_weights(weights, 0.5)
    pruned_b = prune_weights(weights.copy(), 0.5)
    assert np.array_equal(pruned_a, pruned_b)
    zero_fraction = float(np.mean(pruned_a == 0.0))
    assert 0.45 <= zero_fraction <= 0.55
    assert prune_weights(weights, 0.0) is weights
    with pytest.raises(ValueError):
        prune_weights(weights, 1.0)


def _prune_weights_reference(weights, fraction):
    """The cut as first written: a full ``np.quantile`` of ``|w|``."""
    magnitudes = np.abs(weights)
    cutoff = np.quantile(magnitudes, fraction)
    pruned = weights.copy()
    pruned[magnitudes <= cutoff] = 0.0
    return pruned


def _pruning_inputs():
    rng = np.random.default_rng(5)
    for dtype in (np.float32, np.float64):
        for shape in ((1,), (2,), (3, 4), (17, 5, 3, 3)):
            weights = rng.normal(size=shape).astype(dtype)
            yield weights
            tied = weights.copy()
            tied.flat[::3] = 0.5
            yield tied
            signed = weights.copy()
            signed.flat[::2] = -0.0
            yield signed
            if weights.size > 2:
                holed = weights.copy()
                holed.flat[1] = np.nan
                yield holed
                capped = weights.copy()
                capped.flat[0], capped.flat[-1] = 3.0, -3.0
                yield capped
        yield rng.normal(size=(8, 8, 3, 3)).astype(dtype)[:, ::2]


@pytest.mark.parametrize(
    "fraction", [0.1, 0.3, 0.5, 0.7, 0.999, np.float64(0.5), np.float32(0.3)]
)
def test_weight_pruning_matches_the_full_quantile_bytes(fraction):
    """Selecting the two order statistics in place cuts exactly where
    np.quantile over the whole array does: ties, signed zeros, NaN (which
    prunes nothing), non-contiguous input, and the quantile's own dtype
    promotion for Python and numpy fractions."""
    for weights in _pruning_inputs():
        expected = _prune_weights_reference(weights, fraction)
        got = prune_weights(weights, fraction)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (weights.shape, fraction)


def test_weight_pruning_holds_no_second_copy():
    """The cut partitions the fresh |w| itself: peak traced memory stays
    at the full-quantile version's (|w|, mask and result), short of the
    quarter-array a second copy of even a narrower dtype would add."""
    weights = np.random.default_rng(9).normal(size=(64, 64, 3, 3))
    peaks = []
    for prune in (_prune_weights_reference, prune_weights):
        tracemalloc.start()
        prune(weights, 0.5)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < peaks[0] + weights.nbytes // 4


# ----------------------------------------------------------------------
# the whole-array simulators against their per-tap oracles
# ----------------------------------------------------------------------
ORACLES = {
    "scnn": scnn_conv_timing_reference,
    "cnv2": cnv2_conv_timing_reference,
}


def timing_record(timing):
    """Everything a LayerTiming carries, Python types included: equal
    records serialize to equal bytes."""
    return (
        timing.name,
        timing.kind,
        timing.cycles,
        type(timing.cycles),
        [(k, v, type(v)) for k, v in timing.lane_events.items()],
        [(k, v, type(v)) for k, v in timing.counters.counts.items()],
    )


def assert_matches_oracle(name, work, config, weights):
    got = get_backend(name).layer_timing(work, config, weights)
    expected = ORACLES[name](work, config, weights)
    assert timing_record(got) == timing_record(expected), (name, work.name)


#: Shapes beyond the conformance set: several filter passes with a
#: partial last one, grouped and strided at once, fewer output positions
#: than PEs, and a first layer.
ORACLE_WORKLOADS = (
    dict(in_depth=40, in_y=9, in_x=9, num_filters=600, kernel=5, stride=2,
         pad=2, groups=2),
    dict(in_depth=24, in_y=13, in_x=11, num_filters=12, kernel=3, stride=3,
         pad=0, zero_fraction=0.8),
    dict(in_depth=64, in_y=2, in_x=2, num_filters=300, kernel=3),
    dict(in_depth=3, in_y=23, in_x=23, num_filters=16, kernel=11, stride=4,
         pad=0, is_first=True),
)


@pytest.fixture(scope="module")
def tiny_layers(tmp_path_factory):
    """(ConvWork, pruned bank) for every conv layer of tiny alex and
    cnnS on their first image, as the serving tier times them."""
    ctx = ExperimentContext(PaperConfig(
        scale="tiny", networks=["alex", "cnnS"],
        cache_dir=tmp_path_factory.mktemp("oracle-cache"), num_images=1,
    ))
    layers = []
    for name in ("alex", "cnnS"):
        weights = ctx.pruned_conv_weights(name)
        inputs = ctx.forward(name).conv_inputs
        network = ctx.network_ctx(name).network
        for work in conv_works_from_inputs(network, inputs):
            layers.append((work, weights[work.name]))
    return layers


class TestOracles:
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_conformance_cases(self, name, cases):
        for _, work, weights in cases:
            assert_matches_oracle(name, work, PAPER_CONFIG, weights)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("kwargs", ORACLE_WORKLOADS)
    def test_grouped_strided_multipass_and_first_layers(self, name, kwargs):
        rng = np.random.default_rng(77)
        work, weights = make_conv_work(rng, **kwargs)
        pruned = prune_weights(weights, 0.6)
        for config in (
            PAPER_CONFIG,
            small_config(),
            PAPER_CONFIG.with_(empty_brick_cycles=0, first_layer_encoded=True),
        ):
            assert_matches_oracle(name, work, config, pruned)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_every_conv_layer_of_tiny_alex_and_cnnS(self, name, tiny_layers):
        for work, weights in tiny_layers:
            assert_matches_oracle(name, work, PAPER_CONFIG, weights)


class TestPerBankMemo:
    def test_a_bank_with_equal_values_gets_its_own_entry(self, rng):
        bank = prune_weights(rng.normal(size=(8, 16, 3, 3)), 0.5)
        twin = bank.copy()
        first = filter_counts(bank, 1)
        assert filter_counts(bank, 1) is first
        second = filter_counts(twin, 1)
        assert second is not first
        assert np.array_equal(second[0][0], first[0][0])
        assert pass_unions(twin, 1, 4, 4) is not pass_unions(bank, 1, 4, 4)

    def test_the_entry_dies_with_its_bank(self, rng):
        bank = prune_weights(rng.normal(size=(8, 16, 3, 3)), 0.5)
        counts = weakref.ref(filter_counts(bank, 2)[0][0])
        unions = weakref.ref(pass_unions(bank, 1, 4, 4)[0])
        del bank
        gc.collect()
        assert counts() is None and unions() is None
        # A new bank (which may reuse the id) sees its own structure.
        dense = rng.normal(size=(8, 16, 3, 3))
        assert filter_counts(dense, 1)[0][1] == dense.size

    def test_threads_timing_one_bank_agree(self, cases):
        """Serving workers share banks: threads that all miss on one bank
        at once (more threads than cores, switching often) time it alike
        and end up holding one memoized structure."""
        _, work, weights = cases[2]  # grouped
        threads_n = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name, derive in (
                ("scnn", lambda bank: filter_counts(bank, 2)),
                ("cnv2", lambda bank: pass_unions(bank, 2, 256, 16)),
            ):
                bank = weights.copy()  # nothing memoized for it yet
                barrier = threading.Barrier(threads_n)
                records = [None] * threads_n
                held = [None] * threads_n

                def run(slot):
                    barrier.wait()
                    timing = get_backend(name).layer_timing(
                        work, PAPER_CONFIG, bank
                    )
                    records[slot] = timing_record(timing)
                    held[slot] = derive(bank)

                threads = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                expected = timing_record(
                    ORACLES[name](work, PAPER_CONFIG, bank)
                )
                assert records == [expected] * threads_n
                assert all(entry is held[0] for entry in held)
        finally:
            sys.setswitchinterval(interval)
