"""Seeded request streams, built here so no program change alters them.

A stream is a list of plain request dicts (the ``ServeRequest`` wire
form).  The seed picks image seeds and the order inside each cycle; the
number of cycles and the per-(kind, network, backend) counts depend only
on the cycle count, never on the seed.
"""

from __future__ import annotations

import random

KINDS = ("classify", "zero_fraction", "timing")
NETWORKS = ("alex", "cnnS")

#: Timing requests rotate over these: no backend (the paper's CNV payload)
#: and every backend registered when the benchmark was defined.  Frozen
#: here, so registering a new backend does not change the workload.
TIMING_BACKENDS = (None, "baseline", "gated", "cnv", "cnv2", "scnn")

#: serve-sweep groups: 12 single-layer threshold variants per network on
#: conv2/conv3, the shape of ``repro.serve.loadgen.build_sweep_requests``.
SWEEP_VARIANTS = 12
SWEEP_LAYERS = ("conv2", "conv3")
SWEEP_BASE_THRESHOLD = 0.02


def fresh_cycle_len() -> int:
    return len(TIMING_BACKENDS) * len(NETWORKS) * len(KINDS)


def _fresh_cycle(rng: random.Random, cycle: int, seeds: set, tag: str) -> list[dict]:
    per_network = {}
    for network in NETWORKS:
        items = [
            (kind, backend if kind == "timing" else None)
            for backend in TIMING_BACKENDS
            for kind in KINDS
        ]
        rng.shuffle(items)
        per_network[network] = items
    requests = []
    for position in range(len(per_network[NETWORKS[0]])):
        for network in NETWORKS:
            kind, backend = per_network[network][position]
            image_seed = rng.randrange(2**31)
            while image_seed in seeds:
                image_seed = rng.randrange(2**31)
            seeds.add(image_seed)
            request = {
                "id": f"{tag}{cycle:04d}-{len(requests):02d}",
                "kind": kind,
                "network": network,
                "image_seed": image_seed,
            }
            if backend is not None:
                request["backend"] = backend
            requests.append(request)
    return requests


def fresh_stream(seed: int, cycles: int, tag: str = "f") -> list[dict]:
    """serve-fresh: ``cycles`` × 36 requests, every one on a new image.

    A cycle holds each (kind, network, timing backend) combination once
    per network: equal thirds of the three kinds, networks alternating
    request by request, and timing requests rotating over
    :data:`TIMING_BACKENDS`.  Image seeds never repeat within a stream.
    """
    rng = random.Random(f"serve-fresh/{tag}/{seed}")
    seeds: set[int] = set()
    stream = []
    for cycle in range(cycles):
        stream.extend(_fresh_cycle(rng, cycle, seeds, tag))
    return stream


def fresh_warmup(seed: int) -> list[dict]:
    """One request per (kind, network, backend) group, on warm-up images."""
    rng = random.Random(f"serve-fresh/warmup/{seed}")
    requests = []
    for network in NETWORKS:
        for kind in KINDS:
            backends = TIMING_BACKENDS if kind == "timing" else (None,)
            for backend in backends:
                request = {
                    "id": f"w{len(requests):02d}",
                    "kind": kind,
                    "network": network,
                    "image_seed": rng.randrange(2**31),
                }
                if backend is not None:
                    request["backend"] = backend
                requests.append(request)
    return requests


def sweep_groups() -> list[tuple[str, dict[str, float]]]:
    groups = []
    for network in NETWORKS:
        for variant in range(SWEEP_VARIANTS):
            layer = SWEEP_LAYERS[variant % len(SWEEP_LAYERS)]
            value = round(
                SWEEP_BASE_THRESHOLD * (1 + variant // len(SWEEP_LAYERS)), 6
            )
            groups.append((network, {layer: value}))
    return groups


def sweep_cycle_len() -> int:
    return len(NETWORKS) * SWEEP_VARIANTS


def _sweep_request(tag: str, cycle: int, group: int, kind: str) -> dict:
    network, thresholds = sweep_groups()[group]
    return {
        "id": f"{tag}{cycle:04d}-{group:02d}",
        "kind": kind,
        "network": network,
        "image_index": 0,
        "thresholds": dict(thresholds),
    }


def sweep_stream(seed: int, cycles: int, tag: str = "s") -> list[dict]:
    """serve-sweep: ``cycles`` passes over the 24 probe groups.

    Group ``g`` in cycle ``c`` asks for kind ``KINDS[(c + g) % 3]``: the
    kind advances each cycle, so every group sees every kind.  The seed
    only shuffles the group order inside each cycle.
    """
    rng = random.Random(f"serve-sweep/{tag}/{seed}")
    count = sweep_cycle_len()
    stream = []
    for cycle in range(cycles):
        order = list(range(count))
        rng.shuffle(order)
        for group in order:
            kind = KINDS[(cycle + group) % len(KINDS)]
            stream.append(_sweep_request(tag, cycle, group, kind))
    return stream


def sweep_warmup() -> list[dict]:
    """One timing request per group: its forward fills the group's engine
    cache entries and its simulation the group's probe-timing memo."""
    return [
        _sweep_request("w", 0, group, "timing")
        for group in range(sweep_cycle_len())
    ]
