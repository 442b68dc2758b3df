"""Differential tests for the batched + incremental forward engine.

The engine's contract is *bit-identity*: a batched pass must equal
stacking per-image ``run_forward`` results, and an incremental pass under
any sequence of threshold mutations must equal a from-scratch forward —
exactly, including ``conv_inputs`` and logits.  Hypothesis drives random
weights, images, and threshold-mutation sequences through both a linear
network and a GoogLeNet-style branching/concat network.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import PaperConfig
from repro.nn.engine import (
    IncrementalForwardEngine,
    slice_result,
    threshold_scopes,
)
from repro.nn.inference import init_weights, run_forward
from repro.nn.models import build_network, network_names
from repro.nn.network import LayerSpec, Network


def linear_net() -> Network:
    """Conv/pool/LRN/conv/FC/softmax chain — every batched layer kind."""
    return Network(
        name="lin",
        input_shape=(3, 10, 10),
        layers=[
            LayerSpec(name="conv1", kind="conv", num_filters=4, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="pool1", kind="maxpool", kernel=2, stride=2),
            LayerSpec(name="norm1", kind="lrn", lrn_size=3),
            LayerSpec(name="conv2", kind="conv", num_filters=6, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="pool2", kind="avgpool", kernel=2, stride=2),
            LayerSpec(name="fc", kind="fc", num_filters=5, fused_relu=True),
            LayerSpec(name="prob", kind="softmax"),
        ],
    )


def branching_net() -> Network:
    """Two conv branches re-joined by a concat (inception-style edges)."""
    return Network(
        name="branchy",
        input_shape=(3, 8, 8),
        layers=[
            LayerSpec(name="stem", kind="conv", num_filters=4, kernel=3, pad=1, fused_relu=True),
            LayerSpec(name="br_a", kind="conv", num_filters=4, kernel=1, fused_relu=True, input_from=("stem",)),
            LayerSpec(name="br_b", kind="conv", num_filters=6, kernel=3, pad=1, fused_relu=True, input_from=("stem",)),
            LayerSpec(name="join", kind="concat", input_from=("br_a", "br_b")),
            LayerSpec(name="head", kind="conv", num_filters=5, kernel=3, pad=1, fused_relu=True, input_from=("join",)),
            LayerSpec(name="fc", kind="fc", num_filters=4, fused_relu=False),
            LayerSpec(name="prob", kind="softmax"),
        ],
    )


NETWORKS = {"linear": linear_net, "branching": branching_net}


def make_fixture(net_name: str, seed: int, batch: int, dtype=np.float32):
    network = NETWORKS[net_name]()
    rng = np.random.default_rng(seed)
    store = init_weights(network, rng)
    store.weights = {k: v.astype(dtype) for k, v in store.weights.items()}
    store.biases = {k: v.astype(dtype) for k, v in store.biases.items()}
    images = rng.normal(size=(batch, *network.input_shape)).astype(dtype)
    return network, store, images


def prunable_layers(network: Network) -> list[str]:
    return [
        layer.name
        for layer in network.layers
        if layer.fused_relu and layer.kind in ("conv", "fc")
    ]


def assert_results_equal(got, expected):
    assert set(got.conv_inputs) == set(expected.conv_inputs)
    for name in expected.conv_inputs:
        assert np.array_equal(got.conv_inputs[name], expected.conv_inputs[name]), name
    for name in expected.outputs:
        assert np.array_equal(got.outputs[name], expected.outputs[name]), name
    if expected.logits is None:
        assert got.logits is None
    else:
        assert np.array_equal(got.logits, expected.logits)


class TestBatchedForward:
    """run_forward on a (batch, ...) stack ≡ per-image run_forward."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(sorted(NETWORKS)),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_batched_equals_per_image(self, net_name, batch, seed):
        network, store, images = make_fixture(net_name, seed, batch)
        batched = run_forward(network, store, images, keep_outputs=True)
        for index in range(batch):
            single = run_forward(network, store, images[index], keep_outputs=True)
            assert_results_equal(slice_result(batched, index), single)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(sorted(NETWORKS)), st.integers(0, 2**32 - 1))
    def test_batched_equals_per_image_with_thresholds(self, net_name, seed):
        network, store, images = make_fixture(net_name, seed, batch=3)
        thresholds = {name: 0.05 for name in prunable_layers(network)}
        batched = run_forward(
            network, store, images, thresholds=thresholds, keep_outputs=True
        )
        for index in range(3):
            single = run_forward(
                network, store, images[index], thresholds=thresholds, keep_outputs=True
            )
            assert_results_equal(slice_result(batched, index), single)

    def test_batched_float64(self):
        network, store, images = make_fixture("linear", 7, batch=2, dtype=np.float64)
        batched = run_forward(network, store, images, keep_outputs=True)
        single = run_forward(network, store, images[1], keep_outputs=True)
        assert_results_equal(slice_result(batched, 1), single)


class TestIncrementalEngine:
    """Engine runs under threshold mutations ≡ from-scratch forwards."""

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(sorted(NETWORKS)),
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.integers(0, 10), st.sampled_from([0.0, 0.02, 0.05, 0.2])),
            min_size=1,
            max_size=6,
        ),
    )
    def test_mutation_sequence_matches_scratch(self, net_name, seed, mutations):
        network, store, images = make_fixture(net_name, seed, batch=2)
        engine = IncrementalForwardEngine(network, store, images)
        prunable = prunable_layers(network)
        thresholds: dict[str, float] = {}
        for layer_pick, value in mutations:
            thresholds = dict(thresholds)
            thresholds[prunable[layer_pick % len(prunable)]] = value
            got = engine.run(thresholds=thresholds, keep_outputs=True)
            for index in range(2):
                scratch = run_forward(
                    network,
                    store,
                    images[index],
                    thresholds=thresholds,
                    keep_outputs=True,
                )
                assert_results_equal(slice_result(got, index), scratch)

    def test_prefix_reuse_hits_upstream_layers(self):
        network, store, images = make_fixture("linear", 3, batch=2)
        engine = IncrementalForwardEngine(network, store, images)
        engine.run()
        misses_before = engine.stats.misses
        assert engine.stats.hits == 0
        # Re-running the same config replays everything from cache.
        engine.run()
        assert engine.stats.misses == misses_before
        assert engine.stats.hits == len(network.layers)
        # Perturbing conv2 reuses the whole prefix above it.
        engine.run(thresholds={"conv2": 0.1})
        prefix = ["conv1", "pool1", "norm1"]
        assert engine.stats.misses == misses_before + (len(network.layers) - len(prefix))

    def test_single_image_promoted_to_batch(self):
        network, store, images = make_fixture("linear", 5, batch=1)
        engine = IncrementalForwardEngine(network, store, images[0])
        result = engine.run(keep_outputs=True)
        single = run_forward(network, store, images[0], keep_outputs=True)
        assert_results_equal(slice_result(result, 0), single)

    def test_incompatible_stack_rejected(self):
        network, store, _ = make_fixture("linear", 5, batch=1)
        with pytest.raises(ValueError):
            IncrementalForwardEngine(network, store, np.zeros((2, 3, 4, 4)))

    def test_cache_budget_evicts_but_stays_correct(self):
        network, store, images = make_fixture("linear", 9, batch=2)
        engine = IncrementalForwardEngine(
            network, store, images, cache_bytes=1  # force constant eviction
        )
        clean = engine.run(keep_outputs=True)
        again = engine.run(keep_outputs=True)
        assert engine.stats.evictions > 0
        for index in range(2):
            assert_results_equal(
                slice_result(again, index), slice_result(clean, index)
            )

    def test_cache_budget_env_var(self, monkeypatch):
        monkeypatch.setenv("CNVLUTIN_ENGINE_CACHE_MB", "2")
        network, store, images = make_fixture("linear", 9, batch=1)
        engine = IncrementalForwardEngine(network, store, images)
        assert engine.cache_bytes == 2 * 1024 * 1024


class TestThresholdScopes:
    def test_scopes_walk_branches_and_concat(self):
        network = branching_net()
        scopes = threshold_scopes(network)
        assert scopes["stem"] == ("stem",)
        assert scopes["br_a"] == ("br_a", "stem")
        assert scopes["join"] == ("br_a", "br_b", "stem")
        assert scopes["head"] == ("br_a", "br_b", "head", "stem")
        # fc has no fused ReLU: it inherits head's scope without itself.
        assert scopes["fc"] == ("br_a", "br_b", "head", "stem")

    def test_non_prunable_layers_excluded(self):
        network = linear_net()
        scopes = threshold_scopes(network)
        assert scopes["pool1"] == ("conv1",)
        assert scopes["fc"] == ("conv1", "conv2", "fc")

    def test_signature_ignores_zero_and_unscoped_thresholds(self):
        network, store, images = make_fixture("linear", 3, batch=1)
        engine = IncrementalForwardEngine(network, store, images)
        base = engine._signature("pool1", {})
        assert engine._signature("pool1", {"conv1": 0.0}) == base
        assert engine._signature("pool1", {"conv2": 0.5}) == base
        assert engine._signature("pool1", {"conv1": 0.5}) != base


class TestShortPass:
    """``collect_logits=False`` stops at the last conv layer's input."""

    @pytest.mark.parametrize("name", network_names())
    def test_conv_inputs_match_full_pass(self, name):
        """Every paper network at tiny scale, google's concat and aux
        branches and nin's FC-less head included: same conv-input bytes,
        no logits, nothing computed from the last conv layer on."""
        network = build_network(
            name, input_size=PaperConfig(scale="tiny").input_size(name)
        )
        rng = np.random.default_rng(5)
        store = init_weights(network, rng)
        store.weights = {k: v.astype(np.float32) for k, v in store.weights.items()}
        store.biases = {k: v.astype(np.float32) for k, v in store.biases.items()}
        images = rng.normal(size=(2, *network.input_shape)).astype(np.float32)
        thresholds = {network.conv_layers[0].name: 0.05}
        full = run_forward(network, store, images, thresholds=thresholds)
        engine = IncrementalForwardEngine(network, store, images[:1])
        short = engine.run_stack(
            images, thresholds=thresholds, keep_outputs=True,
            collect_logits=False,
        )
        assert full.logits is not None
        assert short.logits is None
        assert list(short.conv_inputs) == list(full.conv_inputs)
        for layer, arr in full.conv_inputs.items():
            assert short.conv_inputs[layer].tobytes() == arr.tobytes(), layer
        last = network.index_of(network.conv_layers[-1].name)
        assert list(short.outputs) == [
            layer.name for layer in network.layers[:last]
        ]

    def test_single_image_short_pass(self):
        network, store, images = make_fixture("branching", 4, batch=1)
        full = run_forward(network, store, images[0], keep_outputs=False)
        short = run_forward(
            network, store, images[0], keep_outputs=False, collect_logits=False
        )
        assert full.logits is not None
        assert_results_equal(short, dataclasses.replace(full, logits=None))
