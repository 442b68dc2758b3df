"""Admin endpoint: live stats over HTTP, zero dependencies.

A deliberately tiny HTTP/1.1 server (asyncio streams, no framework —
the repo's no-new-dependencies rule applies to the telemetry plane too)
bound to loopback by default, serving the
:class:`~repro.serve.telemetry.TelemetryController`'s live views:

====================  =================================================
``GET /stats``        full JSON stats payload: per-source latency
                      digests, rolling window, watermarks, SLO
                      statuses, router health
``GET /metrics``      Prometheus text exposition (one series per
                      source, histogram buckets from the sketch)
``GET /slo``          just the SLO statuses + health, JSON
``GET /healthz``      ``{"ok": true}`` — 200 while every SLO is in
                      budget, 503 once any objective is burning
====================  =================================================

Every handler samples the local registry first (the controller does it)
so a scrape always reflects up-to-the-moment local metrics; shard
freshness is bounded by the router's pull interval.  The server never touches
the request path — it reads the telemetry plane, which is fed entirely
off the serving hot path.

Scrapes are counted (``admin.requests``/``admin.errors``) but
responses are connection-close one-shots: curl, Prometheus, and the
``repro-serve top`` poller all speak that happily.
"""

from __future__ import annotations

import asyncio
import json

from repro import obs
from repro.serve.telemetry import TelemetryController

__all__ = ["AdminServer"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    503: "Service Unavailable",
}


def _response(status: int, content_type: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


def _json_body(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


class AdminServer:
    """Loopback HTTP server over one telemetry controller."""

    def __init__(
        self,
        controller: TelemetryController,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.controller = controller
        self.host = host
        self.requested_port = port
        self._server: asyncio.base_events.Server | None = None

    @property
    def port(self) -> int:
        """The bound port (use with ``port=0`` for an ephemeral one)."""
        if self._server is None:
            raise RuntimeError("admin server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("admin server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.requested_port
        )

    async def stop(self) -> None:
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _dispatch(self, path: str) -> bytes:
        if path in ("/stats", "/"):
            return _response(
                200, "application/json", _json_body(self.controller.stats())
            )
        if path == "/metrics":
            return _response(
                200,
                "text/plain; version=0.0.4",
                self.controller.prometheus().encode(),
            )
        if path == "/slo":
            self.controller.sample_local()
            return _response(
                200, "application/json",
                _json_body({
                    "slo": self.controller.slo_statuses(),
                    "health": self.controller.health(),
                }),
            )
        if path == "/healthz":
            self.controller.sample_local()
            statuses = self.controller.slo_statuses()
            healthy = all(status["healthy"] for status in statuses)
            return _response(
                200 if healthy else 503, "application/json",
                _json_body({
                    "ok": healthy,
                    "burning": [
                        status["name"] for status in statuses
                        if not status["healthy"]
                    ],
                }),
            )
        return _response(
            404, "application/json",
            _json_body({
                "error": f"no such path {path!r}",
                "paths": ["/stats", "/metrics", "/slo", "/healthz"],
            }),
        )

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
            fields = request_line.decode("ascii", "replace").split()
            # Drain headers up to the blank line; bodies are ignored
            # (every admin verb is a GET).
            while True:
                header = await asyncio.wait_for(
                    reader.readline(), timeout=5.0
                )
                if header in (b"\r\n", b"\n", b""):
                    break
            if len(fields) < 2 or fields[0] != "GET":
                obs.counter_add("admin.errors")
                payload = _response(
                    400, "application/json",
                    _json_body({"error": "only GET is served"}),
                )
            else:
                obs.counter_add("admin.requests")
                path = fields[1].split("?", 1)[0]
                payload = self._dispatch(path)
            writer.write(payload)
            await writer.drain()
        except (
            asyncio.TimeoutError, TimeoutError, ConnectionError, OSError,
        ):
            obs.counter_add("admin.errors")
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - already-dead transport
                pass
