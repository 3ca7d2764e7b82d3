"""Stdlib-only HTTP front-end for the query engine.

A :class:`ServiceServer` wraps one :class:`~repro.service.engine.QueryEngine`
behind ``http.server.ThreadingHTTPServer`` — one OS thread per in-flight
request, which is exactly what the engine's leader-based coalescing
expects: concurrent requests park in buckets while a leader runs the
merged sweep.  No third-party framework, no event loop; the endpoint is

* ``POST /query`` — one wire-format query or ``append_delta`` (see
  :func:`repro.service.client.answer_payload`), answered with the
  wire-format result.
* ``GET /stats`` — engine / cache / registry counters.
* ``GET /health`` — liveness probe.

Errors map to transport codes: malformed requests (bad JSON, a bad
``Content-Length``, a field of the wrong type or range, a node id
outside the graph) and unknown datasets are 400
(:class:`~repro.errors.ReproError` subclasses carry the message).
Anything else is 500 with an opaque body, ``{"error": "internal error",
"error_id": …}``; the traceback goes to stderr under the same id, so a
reply never exposes internals.  The server never dies on a bad request.
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..errors import ReproError
from ..obs import OBS
from .client import _encode_value, answer_payload
from .engine import QueryEngine

__all__ = ["ServiceServer"]

#: Cap on request bodies; a query payload is tiny, so anything larger
#: is a client bug (or abuse), not a workload.
_MAX_BODY_BYTES = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket (set by StreamRequestHandler.setup).
    # With Nagle on, a reply written after an unacknowledged segment
    # waits for the client's delayed ACK, ~40 ms, on every round trip.
    disable_nagle_algorithm = True
    # Set per-server via the factory in ServiceServer.__init__.
    engine: QueryEngine = None

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through OBS spans, not stderr

    # -- plumbing --------------------------------------------------------
    def _reply(self, status: int, payload: dict) -> None:
        """Send status line, headers and body as one write."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would write the header block on its own; queue the
        # blank line and the body behind it so flush_headers() sends all.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            if length < 0:
                raise ReproError(f"invalid Content-Length {header!r}")
            raise ReproError(f"request body exceeds {_MAX_BODY_BYTES} bytes")
        if length == 0:
            raise ReproError("request body required")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc

    # -- routes ----------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib naming
        if self.path == "/health":
            self._reply(200, {"status": "ok"})
        elif self.path == "/stats":
            self._reply(200, _encode_value(self.engine.stats()))
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self):  # noqa: N802 - stdlib naming
        if self.path != "/query":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            payload = self._read_body()
            # answer_payload is the whole wire contract, shared with the
            # in-process client.
            reply = answer_payload(self.engine, payload)
        except ReproError as exc:
            if OBS.enabled:
                OBS.add("service.http.bad_requests")
            self._reply(400, {"error": str(exc)})
            return
        except Exception:  # keep serving after an internal failure
            if OBS.enabled:
                OBS.add("service.http.errors")
            error_id = uuid.uuid4().hex
            sys.stderr.write(
                f"internal error {error_id} on POST /query:\n{traceback.format_exc()}"
            )
            self._reply(500, {"error": "internal error", "error_id": error_id})
            return
        self._reply(200, reply)


class ServiceServer:
    """Threaded HTTP server over one engine; runs in a daemon thread.

    ``port=0`` binds an ephemeral port (the default, right for tests);
    the bound address is available as :attr:`address` after
    :meth:`start`.  Use as a context manager for deterministic shutdown,
    which also closes the engine when ``own_engine`` is true.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        own_engine: bool = False,
    ) -> None:
        self.engine = engine
        self._own_engine = bool(own_engine)
        handler = type("_BoundHandler", (_Handler,), {"engine": engine})
        self._server = ThreadingHTTPServer((host, int(port)), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ServiceServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        if OBS.enabled:
            OBS.add("service.http.starts")
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop (the ``repro-mixing serve`` entry point)."""
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._own_engine:
            self.engine.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
