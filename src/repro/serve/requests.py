"""Request/response schema of the inference service.

A :class:`ServeRequest` names one piece of work against one of the six
paper networks:

``classify``
    Forward one input and return the top-1 class plus the full logit
    vector.
``zero_fraction``
    Forward the input and return the conv-input zero fractions — the
    per-request version of the Fig. 1 measurement.
``timing``
    Forward the input, then run both cycle-accurate timing models on its
    conv-input activations and return baseline/CNV cycles and the
    speedup (the per-request Fig. 9 quantity).  With ``backend`` set to
    a registered backend name (see :mod:`repro.backends`), the named
    simulator answers instead — the per-request fig9_backends quantity;
    weight-sparse backends time the repository's default magnitude-pruned
    weights.

The input is either a synthetic image derived deterministically from
``image_seed``, or — when ``image_index`` is set — one of the service's
resident *probe* images (the engine's fixed stack), which is what lets
repeated sweep-style requests hit the
:class:`~repro.nn.engine.IncrementalForwardEngine` prefix cache instead
of recomputing the forward.

Responses carry an HTTP-flavoured status: ``ok`` (200), ``shed`` (429 —
the queue bound rejected the request; the explicit backpressure signal),
``timeout`` (504 — the per-request deadline expired before compute), and
``error`` (500).  :func:`canonical_response_bytes` serializes exactly the
fields that must not depend on how requests were batched, scheduled, or
*sharded* — the differential tests assert *byte* equality between
micro-batched (and consistent-hash-routed) service output and direct
one-at-a-time inference, so transport metadata (latency, observed batch
size, serving shard) is deliberately excluded.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

__all__ = [
    "REQUEST_KINDS",
    "STATUS_CODES",
    "ServeRequest",
    "ServeResponse",
    "canonical_response_bytes",
]

#: The work kinds a request may name.
REQUEST_KINDS = ("classify", "zero_fraction", "timing")

#: HTTP-flavoured code per response status.
STATUS_CODES = {"ok": 200, "shed": 429, "timeout": 504, "error": 500}

_REQUEST_FIELDS = {
    "id", "kind", "network", "image_seed", "image_index",
    "thresholds", "deadline_ms", "backend",
}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ServeRequest:
    """One unit of work submitted to the service.

    ``image_seed`` determines a synthetic input deterministically (see
    :func:`repro.serve.models.request_image`), so a request is fully
    reproducible from its JSON form alone.  ``image_index`` instead
    selects a *resident probe image* by position in the service's fixed
    stack (``image_seed`` is then ignored); probe requests with equal
    (network, thresholds) are served from one cached engine pass.
    ``thresholds`` optionally applies Section V-E per-layer pruning;
    requests only batch with requests that share the same network *and*
    thresholds.  ``deadline_ms`` is a relative latency budget: if the
    request is still queued when it expires, the service answers
    ``timeout`` without computing.
    """

    id: str
    kind: str
    network: str
    image_seed: int = 0
    image_index: int | None = None
    thresholds: dict[str, float] | None = None
    deadline_ms: float | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"kind must be one of {REQUEST_KINDS}, got {self.kind!r}"
            )
        if self.backend is not None and self.kind != "timing":
            raise ValueError(
                f"backend applies to timing requests only, not {self.kind!r}"
            )
        if self.image_index is not None and self.image_index < 0:
            raise ValueError("image_index must be >= 0 (or None)")
        if self.deadline_ms is not None and not (
            _is_number(self.deadline_ms) and self.deadline_ms > 0
        ):
            raise ValueError("deadline_ms must be a positive number (or None)")
        if self.thresholds is not None:
            if not isinstance(self.thresholds, dict):
                raise ValueError(
                    "thresholds must be an object mapping layer names to "
                    "numbers"
                )
            for layer, value in self.thresholds.items():
                if not isinstance(layer, str) or not (
                    _is_number(value) and math.isfinite(value) and value >= 0
                ):
                    raise ValueError(
                        f"thresholds[{layer!r}] must be a finite number >= 0, "
                        f"got {value!r}"
                    )

    def thresholds_key(self) -> tuple:
        """Hashable rendering of the threshold config (batch-group key)."""
        if not self.thresholds:
            return ()
        return tuple(
            sorted((k, float(v)) for k, v in self.thresholds.items() if v)
        )

    def to_payload(self) -> dict:
        """JSON-safe dict form: what :meth:`to_json` prints for the TCP
        front end, and the dict the router pickles to a shard, which
        validates it again through :meth:`from_payload`."""
        payload = {
            "id": self.id,
            "kind": self.kind,
            "network": self.network,
            "image_seed": self.image_seed,
        }
        if self.image_index is not None:
            payload["image_index"] = self.image_index
        if self.thresholds:
            payload["thresholds"] = self.thresholds
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: dict) -> "ServeRequest":
        if not isinstance(payload, dict):
            raise ValueError("request must be a JSON object")
        unknown = set(payload) - _REQUEST_FIELDS
        if unknown:
            raise ValueError(f"unknown request fields {sorted(unknown)}")
        try:
            return cls(
                id=str(payload["id"]),
                kind=payload["kind"],
                network=payload["network"],
                image_seed=int(payload.get("image_seed", 0)),
                image_index=(
                    None
                    if payload.get("image_index") is None
                    else int(payload["image_index"])
                ),
                thresholds=payload.get("thresholds"),
                deadline_ms=payload.get("deadline_ms"),
                backend=(
                    None
                    if payload.get("backend") is None
                    else str(payload["backend"])
                ),
            )
        except KeyError as exc:
            raise ValueError(f"request is missing field {exc.args[0]!r}")
        except TypeError as exc:
            raise ValueError(f"malformed request field: {exc}")

    @classmethod
    def from_json(cls, text: str) -> "ServeRequest":
        return cls.from_payload(json.loads(text))


@dataclass
class ServeResponse:
    """The service's answer to one request."""

    id: str
    status: str  # "ok" | "shed" | "timeout" | "error"
    kind: str
    network: str
    payload: dict = field(default_factory=dict)
    #: Transport metadata — excluded from canonical identity.
    latency_ms: float | None = None
    batch_size: int | None = None
    shard: int | None = None

    @property
    def code(self) -> int:
        return STATUS_CODES[self.status]

    def to_payload(self) -> dict:
        payload = {
            "id": self.id,
            "status": self.status,
            "code": self.code,
            "kind": self.kind,
            "network": self.network,
            "payload": self.payload,
        }
        if self.latency_ms is not None:
            payload["latency_ms"] = self.latency_ms
        if self.batch_size is not None:
            payload["batch_size"] = self.batch_size
        if self.shard is not None:
            payload["shard"] = self.shard
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: dict) -> "ServeResponse":
        """Rebuild from :meth:`to_payload`'s dict (``code`` is derived,
        not read).

        A shard's reply crosses the hop pickled, so every float arrives
        bit-exact and the rebuilt response is canonical-byte-identical
        to the object the shard sent.
        """
        return cls(
            id=payload["id"],
            status=payload["status"],
            kind=payload["kind"],
            network=payload["network"],
            payload=payload.get("payload", {}),
            latency_ms=payload.get("latency_ms"),
            batch_size=payload.get("batch_size"),
            shard=payload.get("shard"),
        )


def canonical_response_bytes(response: ServeResponse) -> bytes:
    """The batching/sharding-invariant bytes of a response.

    JSON with sorted keys over exactly (id, status, code, kind, network,
    payload).  Floats serialize through :func:`repr`-exact ``json.dumps``,
    so two responses are byte-identical iff every logit/metric float is
    bit-identical — the currency of the differential serving tests.
    """
    return json.dumps(
        {
            "id": response.id,
            "status": response.status,
            "code": response.code,
            "kind": response.kind,
            "network": response.network,
            "payload": response.payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
