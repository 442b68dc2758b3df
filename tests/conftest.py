"""Shared fixtures for the Cnvlutin reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

import repro.settings
from repro.baseline.workload import ConvWork
from repro.hw.config import ArchConfig, small_config
from repro.nn import blas
from repro.nn.activations import sparse_activations

# Seeded hypothesis profiles: `derandomize` pins every example choice to
# the test function itself, so a failure reproduces without a database
# and CI never flakes on fresh examples.  Locally "dev" keeps runs fast;
# CI (or HYPOTHESIS_PROFILE=ci) searches harder and prints the
# reproduction blob on failure.
settings.register_profile("dev", derandomize=True, deadline=None,
                          max_examples=25)
settings.register_profile("ci", derandomize=True, deadline=None,
                          max_examples=150, print_blob=True)
settings.load_profile(
    os.environ.get(
        "HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "dev"
    )
)


@pytest.fixture(autouse=True)
def fresh_process_settings():
    """Every test parses the environment it runs in: a knob set with
    monkeypatch before first use takes effect (later, call
    ``repro.settings.reload()``), and none outlives its test."""
    repro.settings.reload()
    yield
    repro.settings.reload()


@pytest.fixture
def fresh_blas(monkeypatch):
    """No BLAS thread decision in this process yet, so the front end the
    test starts makes one.  Yields the count before the test (the
    ceiling that decision divides) and puts it back after, since nothing
    in the program restores it."""
    before = blas.threads()
    monkeypatch.setattr(blas, "_decided", None)
    yield before
    blas.install(before)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_arch() -> ArchConfig:
    """2 units x 4 lanes x 2 filters, brick 4 — structural-sim scale."""
    return small_config()


def make_conv_work(
    rng: np.random.Generator,
    in_depth: int = 8,
    in_y: int = 6,
    in_x: int = 6,
    num_filters: int = 4,
    kernel: int = 3,
    stride: int = 1,
    pad: int = 1,
    groups: int = 1,
    zero_fraction: float = 0.45,
    name: str = "layer",
    is_first: bool = False,
) -> tuple[ConvWork, np.ndarray]:
    """A random conv workload plus matching weights."""
    out_y = (in_y - kernel + 2 * pad) // stride + 1
    out_x = (in_x - kernel + 2 * pad) // stride + 1
    activations = sparse_activations(
        (in_depth, in_y, in_x), zero_fraction, rng, correlation=1.0
    )
    weights = rng.normal(size=(num_filters, in_depth // groups, kernel, kernel))
    geometry = {
        "in_depth": in_depth,
        "in_y": in_y,
        "in_x": in_x,
        "num_filters": num_filters,
        "kernel": kernel,
        "stride": stride,
        "pad": pad,
        "groups": groups,
        "out_y": out_y,
        "out_x": out_x,
    }
    return ConvWork(name=name, geometry=geometry, activations=activations, is_first=is_first), weights
