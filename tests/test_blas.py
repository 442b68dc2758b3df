"""The BLAS thread budget (repro.nn.blas): decided once per process,
installed by shards, a no-op under an unknown BLAS."""

from __future__ import annotations

import pytest

from repro import obs
from repro.nn import blas


class FakeOpenBLAS:
    """A thread count that starts at ``ceiling``, as OpenBLAS's does."""

    def __init__(self, ceiling: int):
        self.count = ceiling
        self.applied: list[int] = []

    def get(self) -> int:
        return self.count

    def set(self, count: int) -> None:
        self.applied.append(count)
        self.count = count


@pytest.fixture
def library(monkeypatch) -> FakeOpenBLAS:
    fake = FakeOpenBLAS(ceiling=4)
    monkeypatch.setattr(blas, "_openblas", lambda: fake)
    monkeypatch.setattr(blas, "_decided", None)
    return fake


class TestDecide:
    def test_first_decision_is_applied_once(self, library):
        assert blas.decide(2) == 2
        assert blas.decide(1) == 2
        assert library.applied == [2]
        assert blas.threads() == 2

    def test_count_never_drops_below_one(self, library):
        assert blas.decide(8) == 1
        assert library.count == 1

    def test_install_always_applies_and_wins(self, library):
        assert blas.decide(2) == 2
        assert blas.install(3) == 3
        # A shard's own service start keeps its router's count.
        assert blas.decide(1) == 3
        assert library.applied == [2, 3]

    def test_each_decision_sets_the_gauge(self, library):
        blas.decide(4)
        assert obs.get_metrics().snapshot()["gauges"]["blas.threads"] == 1
        blas.install(3)
        assert obs.get_metrics().snapshot()["gauges"]["blas.threads"] == 3


class TestUnknownBlas:
    def test_every_call_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        monkeypatch.setattr(blas, "_decided", None)
        assert blas.threads() is None
        assert blas.decide(2) is None
        assert blas.install(3) is None
        assert blas.decide(1) is None


def test_numpy_openblas_is_found():
    count = blas.threads()
    if count is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert count >= 1
