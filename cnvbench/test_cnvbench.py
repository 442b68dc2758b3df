"""Tests of the benchmark's own logic (no program run needed).

    python3 -m pytest cnvbench/test_cnvbench.py -q
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import offline  # noqa: E402
import perlayer  # noqa: E402
import serving  # noqa: E402
import streams  # noqa: E402
from spans import Span, SpanIndex, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME_RE = r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"
UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert common.percentile(values, 95) == 190
    assert common.percentile(values, 50) == 100
    assert common.percentile(list(reversed(values)), 95) == 190


def test_percentile_refuses_thin_tails():
    # p95 of 199 samples sits at rank 190: only 9 samples lie beyond it.
    with pytest.raises(common.TooFewSamples):
        common.percentile(range(1, 200), 95)
    with pytest.raises(common.TooFewSamples):
        common.percentile([], 50)
    assert common.percentile(range(1, 200), 90) == 180


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
def mix_counts(stream):
    """Per-(kind, network, backend) request counts of a stream."""
    return Counter((r["kind"], r["network"], r.get("backend")) for r in stream)


@pytest.mark.parametrize("build", [streams.fresh_stream, streams.sweep_stream])
def test_same_seed_same_bytes(build):
    first = json.dumps(build(5, 6), sort_keys=True).encode()
    assert first == json.dumps(build(5, 6), sort_keys=True).encode()
    assert first != json.dumps(build(6, 6), sort_keys=True).encode()


@pytest.mark.parametrize("build", [streams.fresh_stream, streams.sweep_stream])
def test_seed_changes_order_not_work(build):
    counts = {seed: mix_counts(build(seed, 6)) for seed in (1, 2, 3, 99)}
    assert len({json.dumps(sorted(c.items(), key=repr)) for c in counts.values()}) == 1


def test_fresh_mix():
    stream = streams.fresh_stream(3, 6)
    counts = mix_counts(stream)
    kinds = {k: sum(v for key, v in counts.items() if key[0] == k)
             for k in streams.KINDS}
    assert len(set(kinds.values())) == 1  # equal thirds
    networks = [r["network"] for r in stream]
    assert all(a != b for a, b in zip(networks, networks[1:]))
    timing_backends = {key[2] for key in counts if key[0] == "timing"}
    assert timing_backends == set(streams.TIMING_BACKENDS)
    assert len({r["image_seed"] for r in stream}) == len(stream)


def test_sweep_kind_advances_each_cycle():
    stream = streams.sweep_stream(1, 3)
    per_group = {}
    for request in stream:
        group = (request["network"], json.dumps(request["thresholds"]))
        per_group.setdefault(group, set()).add(request["kind"])
    assert len(per_group) == streams.sweep_cycle_len()
    assert all(kinds == set(streams.KINDS) for kinds in per_group.values())
    assert all(r["image_index"] == 0 for r in stream)


# ----------------------------------------------------------------------
# metric names, units, bases
# ----------------------------------------------------------------------
def test_names_and_units_follow_the_contract():
    import re

    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.match(NAME_RE, entry["name"]), entry["name"]
        assert re.match(UNIT_RE, entry["unit"]), entry["unit"]


def test_benchmark_json_lists_the_catalogue():
    listed = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert listed == perlayer.catalogue()


def _response(status="ok", latency=1.0):
    return types.SimpleNamespace(status=status, latency_ms=latency, id="r")


def test_end_to_end_metrics_match_benchmark_json():
    listed = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    results = [(10.0 + i % 7, _response(), i * 0.01, i * 0.01 + 0.01)
               for i in range(432)]
    timed = serving.Timed(results, 100.0, 0.0, 0.0, 4.32)
    served = serving.end_to_end(serving.Measured([1.0, 2.0, 3.0], (0, 1), timed), 36, 2)
    regen = offline.end_to_end(offline.Measured(
        [5.0, 5.1, 5.2], (0, 1), [9.0, 9.5, 9.2], [], [181] * 3, 27.7, 900.0,
        0.0, 0, 1, None))
    for metrics in (served, regen):
        assert {(m.name, m.unit) for m in metrics} == listed
        assert all(m.value is not None and m.value > 0 for m in metrics)
        line = json.loads(common.result_line(True, 3, 0, metrics))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def _span(span_id, parent, name, start, end, **attrs):
    return Span(span_id, parent, name, start, end, 1, 1, attrs)


def test_every_ratio_prints_its_base():
    spans = [
        _span(1, None, "serve.try_submit", 0.0, 0.001, ids=["a"]),
        _span(2, None, "serve.execute_batch", 0.003, 0.010, ids=["a"]),
        _span(3, 2, "engine.run_stack", 0.004, 0.009, network="alex"),
        _span(4, 3, "nn.apply_layer", 0.004, 0.006, layer="conv1", kind="conv", batch=1),
    ]
    counters = {
        "serve.requests": 1, "engine.cache.hits": 3, "engine.cache.misses": 1,
        "engine.sparse.macs.total": 10, "engine.sparse.macs.skipped": 4,
        "artifact.hits": 1, "artifact.misses": 1,
    }
    metrics = perlayer.derive(spans, [], counters, [(12.0, _response())], None, 0.05)
    assert [(m.name, m.unit) for m in metrics] == perlayer.catalogue()
    by_name = {m.name: m for m in metrics}
    for metric in metrics:
        if metric.unit in ("ratio", "req/batch") and metric.value is not None:
            assert metric.base, metric.name
            assert "base" in metric.line()
    assert by_name["engine.cache.hit_ratio"].value == 0.75
    assert by_name["serve.queue_ms"].value == pytest.approx(3.0)
    assert by_name["nn.layer.alex.conv1_ms"].value == pytest.approx(2.0)
    assert by_name["serve.payload_ms"].value == pytest.approx(2.0)
    assert by_name["router.hop_ms"].value is None  # no router on this run
    assert "n/a" in by_name["router.hop_ms"].line()


# ----------------------------------------------------------------------
# spans and run hygiene
# ----------------------------------------------------------------------
def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(1, None, "outer", 0.0, 10.0),
        _span(2, 1, "child", 1.0, 4.0),
        _span(3, 1, "child", 3.0, 5.0),  # overlaps the first child
        _span(4, 2, "grandchild", 1.0, 2.0),
    ]
    index = SpanIndex(spans)
    assert index.self_time(spans[0]) == pytest.approx(6.0)
    assert index.self_time(spans[1]) == pytest.approx(2.0)
    assert index.ancestor_attr(spans[3], "missing") is None


def test_tracer_wraps_and_restores_every_binding():
    module = types.ModuleType("repro._bench_probe")
    other = types.ModuleType("repro._bench_probe_user")

    def double(x):
        return 2 * x

    module.double = other.double = double
    sys.modules[module.__name__] = module
    sys.modules[other.__name__] = other
    try:
        tracer = Tracer()
        tracer.patch_function(module, "double", "probe",
                              lambda a, k, r: {"arg": a[0], "result": r})
        with tracer.phase("outer"):
            assert other.double(4) == 8
        assert [s.name for s in tracer.spans] == ["probe", "outer"]
        probe, outer = tracer.spans
        assert probe.parent == outer.id and probe.attrs == {"arg": 4, "result": 8}
        tracer.restore()
        assert module.double is double and other.double is double
    finally:
        del sys.modules[module.__name__], sys.modules[other.__name__]


def test_program_knobs_are_refused():
    assert common.program_env_vars({"CNVLUTIN_SPARSE": "never", "HOME": "/"}) == [
        "CNVLUTIN_SPARSE"
    ]
    assert common.program_env_vars({"PATH": "/bin"}) == []
