"""Model state and request execution for the inference service.

:class:`ModelRepository` owns one calibrated (network, weights) pair per
paper network — built through :class:`~repro.experiments.context.
ExperimentContext`, so calibration shifts come from the same
content-addressed artifact cache the experiment pipeline uses — plus one
:class:`~repro.nn.engine.IncrementalForwardEngine` per network whose
batch-admission hook (:meth:`~repro.nn.engine.IncrementalForwardEngine.
run_stack`) forwards the coalesced request stacks.

:func:`execute_batch` is the whole compute path of the service: one
batched forward shared by every request in the batch (classify,
zero-fraction, and timing requests coalesce freely as long as they agree
on network + thresholds), then per-request payload assembly from the
sliced activations.  Seeded requests (distinct synthetic inputs) stack
through the engine's one-off batch admission; when none of them is a
classify request the stack is read only through its conv inputs, so
that forward stops at the last conv layer's input and never computes
the last conv layer or the FC classifier.  *Probe* requests
(``image_index`` into the engine's resident stack) run the whole
network through :meth:`~repro.nn.engine.IncrementalForwardEngine.run`,
whose threshold-signature LRU replays cached layer prefixes — the
mechanism the sharded tier partitions across processes.  Timing payloads
take the baseline, and a probe's whole timing, from
:meth:`~repro.experiments.context.ExperimentContext.timing` — the cache
the experiment pipeline uses; a seeded request simulates its own conv
inputs through the backend registry.  :func:`direct_response` is the
reference implementation — one full :func:`~repro.nn.inference.
run_forward` per request with no batching, no engine, no service and no
early stop — against which the differential tests assert byte-identical
responses.
"""

from __future__ import annotations

import numpy as np

from repro.backends import backend_names, get_backend
from repro.experiments.config import PaperConfig
from repro.experiments.context import ExperimentContext
from repro.hw.config import PAPER_CONFIG, ArchConfig
from repro.nn.datasets import natural_image
from repro.nn.engine import slice_result
from repro.nn.inference import run_forward
from repro.nn.network import Network
from repro.serve.requests import ServeRequest, ServeResponse

__all__ = [
    "ModelRepository",
    "request_image",
    "execute_batch",
    "direct_response",
]


def request_image(network: Network, seed: int) -> np.ndarray:
    """The synthetic input a request names, reproducible from its seed.

    float32, matching the single-precision weights the repository's
    calibrated stores carry — the dtype every activation then stays in.
    """
    rng = np.random.default_rng(seed)
    return natural_image(network.input_shape, rng).astype(np.float32)


class ModelRepository:
    """Calibrated networks + per-network engines, built lazily."""

    def __init__(
        self,
        config: PaperConfig | None = None,
        arch: ArchConfig = PAPER_CONFIG,
        context: ExperimentContext | None = None,
    ):
        self.context = context if context is not None else ExperimentContext(
            config, arch=arch
        )

    @property
    def networks(self) -> list[str]:
        return list(self.context.config.networks)

    def entry(self, name: str):
        """The calibrated :class:`~repro.experiments.context.NetworkContext`."""
        return self.context.network_ctx(name)

    def engine(self, name: str):
        return self.context.engine(name)

    def image(self, name: str, seed: int) -> np.ndarray:
        return request_image(self.entry(name).network, seed)

    def probe_count(self, name: str) -> int:
        """How many resident probe images ``image_index`` may address."""
        return len(self.entry(name).images)

    def admission_error(self, request: ServeRequest) -> str | None:
        """Why a front end must refuse ``request`` before queueing it.

        The one admission check of both the single-process service and
        the sharded router: a known network, an ``image_index`` inside
        the resident probe stack, a registered ``backend``.
        """
        if request.network not in self.networks:
            return f"unknown network {request.network!r}"
        if request.image_index is not None and request.image_index >= (
            self.probe_count(request.network)
        ):
            return (
                f"image_index {request.image_index} out of range "
                f"(network {request.network} holds "
                f"{self.probe_count(request.network)} probe images)"
            )
        if request.backend is not None and request.backend not in backend_names():
            return (
                f"unknown backend {request.backend!r}; registered: "
                f"{backend_names()}"
            )
        return None

    def simulate(
        self, name: str, backend: str, conv_inputs: dict[str, np.ndarray]
    ) -> int:
        """Total cycles of ``backend`` on one request's own conv inputs."""
        spec = get_backend(backend)
        weights = (
            self.context.pruned_conv_weights(name) if spec.needs_weights else None
        )
        return spec.network_timing(
            self.entry(name).network, conv_inputs, self.context.arch, weights
        ).total_cycles


def _classify_payload(logits: np.ndarray) -> dict:
    return {"top1": int(np.argmax(logits)), "logits": logits.tolist()}


def _zero_fraction_payload(conv_inputs: dict[str, np.ndarray]) -> dict:
    per_layer = {
        layer: float(np.mean(arr == 0.0)) for layer, arr in conv_inputs.items()
    }
    return {
        "mean": float(np.mean(list(per_layer.values()))),
        "per_layer": per_layer,
    }


def _timing_payload(backend: str | None, base: int, cycles: int) -> dict:
    if backend is None:
        # The original CNV-vs-baseline payload, byte-for-byte — requests
        # that never name a backend cannot observe the registry exists.
        return {
            "baseline_cycles": int(base),
            "cnv_cycles": int(cycles),
            "speedup": base / cycles,
        }
    return {
        "backend": backend,
        "baseline_cycles": int(base),
        "backend_cycles": int(cycles),
        "speedup": base / cycles,
    }


def _payload(
    repo: ModelRepository,
    request: ServeRequest,
    logits: np.ndarray | None,
    conv_inputs: dict[str, np.ndarray],
    thresholds: dict[str, float] | None,
) -> dict:
    """One request's payload from its slice of the batch forward.

    A probe's timing comes from the context's timing cache — its conv
    inputs are fixed by (network, thresholds, image index) — and a seeded
    request simulates its own conv inputs.  The baseline is the cached
    one either way: its cycle count does not depend on the input.
    """
    if request.kind == "classify":
        if logits is None:
            raise ValueError(f"network {request.network} produced no logits")
        return _classify_payload(logits)
    if request.kind == "zero_fraction":
        return _zero_fraction_payload(conv_inputs)
    backend = request.backend or "cnv"
    if request.image_index is None:
        cycles = repo.simulate(request.network, backend, conv_inputs)
    else:
        cycles = repo.context.timing(
            backend, request.network, thresholds, request.image_index
        ).total_cycles
    base = repo.context.timing("baseline", request.network).total_cycles
    return _timing_payload(request.backend, base, cycles)


def _needs_conv_inputs(requests: list[ServeRequest]) -> bool:
    return any(req.kind in ("zero_fraction", "timing") for req in requests)


def _needs_logits(requests: list[ServeRequest]) -> bool:
    return any(req.kind == "classify" for req in requests)


def execute_batch(
    repo: ModelRepository, requests: list[ServeRequest]
) -> list[ServeResponse]:
    """Serve a coalesced batch with one shared forward pass.

    Every request must agree on (network, thresholds) — the micro-batcher
    groups by exactly that key.  Seeded requests stack through the
    engine's batch-admission hook, which reads the logits only when a
    classify request is among them: a timing / zero-fraction stack stops
    at the last conv layer's input.  Probe requests (``image_index``)
    share one :meth:`~repro.nn.engine.IncrementalForwardEngine.run` over
    the resident stack, replaying cached layer prefixes when the
    threshold signature has been seen before.  Both paths are
    bit-identical to running each request alone through the full
    forward of :func:`direct_response` (pinned by the differential
    tests).
    """
    if not requests:
        return []
    name = requests[0].network
    thresholds_key = requests[0].thresholds_key()
    for req in requests[1:]:
        if req.network != name or req.thresholds_key() != thresholds_key:
            raise ValueError("batch mixes incompatible (network, thresholds)")
    thresholds = dict(thresholds_key) or None
    seeded = [
        (pos, req) for pos, req in enumerate(requests) if req.image_index is None
    ]
    probes = [
        (pos, req) for pos, req in enumerate(requests) if req.image_index is not None
    ]
    responses: dict[int, ServeResponse] = {}

    if seeded:
        stack = np.stack([repo.image(name, req.image_seed) for _, req in seeded])
        stacked = [req for _, req in seeded]
        result = repo.engine(name).run_stack(
            stack,
            thresholds=thresholds,
            collect_conv_inputs=_needs_conv_inputs(stacked),
            collect_logits=_needs_logits(stacked),
        )
        for index, (pos, req) in enumerate(seeded):
            logits = None if result.logits is None else result.logits[index]
            conv_inputs = {
                layer: arr[index] for layer, arr in result.conv_inputs.items()
            }
            responses[pos] = ServeResponse(
                id=req.id, status="ok", kind=req.kind, network=req.network,
                payload=_payload(repo, req, logits, conv_inputs, thresholds),
            )

    if probes:
        result = repo.engine(name).run(
            thresholds=thresholds,
            collect_conv_inputs=_needs_conv_inputs([req for _, req in probes]),
            keep_outputs=False,
        )
        for pos, req in probes:
            sliced = slice_result(result, req.image_index)
            responses[pos] = ServeResponse(
                id=req.id, status="ok", kind=req.kind, network=req.network,
                payload=_payload(
                    repo, req, sliced.logits, sliced.conv_inputs, thresholds
                ),
            )

    return [responses[pos] for pos in range(len(requests))]


def direct_response(repo: ModelRepository, request: ServeRequest) -> ServeResponse:
    """Reference path: one unbatched ``run_forward`` per request.

    Probe requests forward the named resident image directly — no
    engine, no cache, no cached timing — so the differential tests
    compare the full sharded/batched/cached pipeline against the
    simplest possible computation of the same answer.
    """
    entry = repo.entry(request.network)
    thresholds = dict(request.thresholds_key()) or None
    if request.image_index is not None:
        image = entry.images[request.image_index]
    else:
        image = repo.image(request.network, request.image_seed)
    result = run_forward(
        entry.network,
        entry.store,
        image,
        thresholds=thresholds,
        collect_conv_inputs=_needs_conv_inputs([request]),
        keep_outputs=False,
    )
    if request.kind == "timing":
        # Both simulators run on this request's own conv inputs.
        base = repo.simulate(request.network, "baseline", result.conv_inputs)
        cycles = repo.simulate(
            request.network, request.backend or "cnv", result.conv_inputs
        )
        payload = _timing_payload(request.backend, base, cycles)
    else:
        payload = _payload(
            repo, request, result.logits, result.conv_inputs, thresholds
        )
    return ServeResponse(
        id=request.id,
        status="ok",
        kind=request.kind,
        network=request.network,
        payload=payload,
    )
