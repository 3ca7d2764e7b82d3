"""Service clients: in-process and HTTP, speaking one wire vocabulary.

Both clients expose the same verbs as the engine, generated from the
engine's :data:`~repro.service.engine.QUERY_TYPES` table
(:class:`~repro.service.engine.QueryVerbs`).  The wire format
(`payload dict -> query object`, `answer -> JSON-able dict`) lives here
so the HTTP server, the HTTP client and the in-process client share one
codec and cannot disagree about field names or types: :func:`build_query`
looks the type up in the same table, and one encoder
(:func:`_encode_value`) turns answers, payloads and stats into JSON.

**One wire contract** (:data:`SCHEMA_V2`).  A payload may carry
``"schema": "repro.service.query/v2"``; without a ``schema`` key it
means the same.  Any other schema value is refused.  Every query type
(the four point queries, the trend queries ``mixing_trend`` and
``slem_trend``) and the ``append_delta`` mutation verb are accepted, and
every reply carries ``schema`` and ``graph_version`` — the content
version of the graph state answered against.  An optional request-side
``graph_version`` pin makes the server refuse with 400 instead of
answering against a state the client did not expect.

:func:`answer_payload` is the single seam both front-ends route through
— :meth:`ServiceClient.query` and ``POST /query`` cannot disagree.

Bit-identity across the wire: every float in an answer is emitted via
``json`` using Python's shortest-round-trip ``repr``, which reconstructs
the exact IEEE-754 double on parse — so an HTTP answer compares equal,
bit for bit, to the in-process one.  The identity tests pin this.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass
from typing import Any, Optional

import numpy as np

from ..errors import ConfigurationError
from .engine import QUERY_TYPES, QueryEngine, QueryResult, QueryVerbs, _int

__all__ = [
    "SCHEMA_V2",
    "HTTPServiceClient",
    "ServiceClient",
    "answer_payload",
    "build_query",
    "decode_result",
    "encode_result",
]

#: The wire schema: echoed by every reply, optional on payloads.
SCHEMA_V2 = "repro.service.query/v2"


def build_query(payload: dict):
    """Wire payload -> query dataclass (the server's request parser).

    The ``schema`` and ``graph_version`` keys are stripped by
    :func:`answer_payload` before this runs.  Malformed fields raise
    :class:`~repro.errors.ConfigurationError` (a 400 over HTTP).
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("query payload must be a JSON object")
    kind = payload.get("type")
    cls = QUERY_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(
            f"unknown query type {kind!r}; expected one of {sorted(QUERY_TYPES)}"
        )
    if not isinstance(payload.get("dataset"), str):
        raise ConfigurationError(f"{kind} query needs a string 'dataset'")
    kwargs = {k: v for k, v in payload.items() if k != "type"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad {kind} query: {exc}") from exc


def _encode_value(value: Any) -> Any:
    """JSON-able form of an answer, a payload or a stats block.

    numpy arrays and scalars become Python lists and scalars, tuples
    become lists, dict keys become strings and dataclasses become dicts.
    Both sides of the wire encode through here.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (str, int, float)) or value is None:
        return value  # most leaves of an answer: skip the checks below
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return _encode_value(asdict(value))
    return value


_RESULT_FIELDS = tuple(f.name for f in fields(QueryResult))


def encode_result(result: QueryResult) -> dict:
    """Query result -> JSON-able wire dict (floats keep full precision)."""
    reply = dict(vars(result))
    reply["value"] = _encode_value(result.value)
    reply["schema"] = SCHEMA_V2
    return reply


def decode_result(payload: dict) -> QueryResult:
    """Wire dict -> :class:`QueryResult` (value stays JSON-shaped)."""
    return QueryResult(**{name: payload[name] for name in _RESULT_FIELDS})


def _edge_pairs(name: str, value) -> list:
    try:
        return [(int(u), int(v)) for u, v in value]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"{name} must be a list of [u, v] node pairs, got {value!r}"
        ) from exc


_APPEND_DELTA_FIELDS = frozenset({"type", "dataset", "timestamp", "insert", "delete"})


def _append_delta_reply(engine: QueryEngine, body: dict, pin: Optional[str]) -> dict:
    """Handle the ``append_delta`` mutation verb."""
    unknown = set(body) - _APPEND_DELTA_FIELDS
    if unknown:
        # A mutation with a misspelled field must never be applied on a
        # weaker contract than the client believes it asked for — the
        # CAS pin in particular rides in the top-level 'graph_version'
        # key, not in the engine kwarg name.
        raise ConfigurationError(
            f"append_delta got unknown field(s) {sorted(unknown)}; "
            f"expected {sorted(_APPEND_DELTA_FIELDS)} plus the optional "
            "top-level 'graph_version' pin"
        )
    for field in ("dataset", "timestamp"):
        if field not in body:
            raise ConfigurationError(f"append_delta requires {field!r}")
    dataset = str(body["dataset"])
    timestamp = _int("timestamp", body["timestamp"])
    insert = _edge_pairs("insert", body.get("insert", ()))
    delete = _edge_pairs("delete", body.get("delete", ()))
    version = engine.append_delta(
        dataset, timestamp, insert=insert, delete=delete, expect_version=pin
    )
    return {
        "schema": SCHEMA_V2,
        "graph_version": version,
        "value": {
            "dataset": dataset,
            "timestamp": timestamp,
            "num_insert": len(insert),
            "num_delete": len(delete),
        },
    }


def answer_payload(engine: QueryEngine, payload: dict) -> dict:
    """Answer one wire payload.

    The single codec seam shared by :meth:`ServiceClient.query` and the
    HTTP handler's ``POST /query`` — the two front-ends cannot drift.
    A missing ``schema`` key means :data:`SCHEMA_V2`; any other schema
    value is refused.  An optional ``graph_version`` pins the graph
    state the answer (or, for ``append_delta``, the mutation) must see.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("query payload must be a JSON object")
    schema = payload.get("schema", SCHEMA_V2)
    if schema != SCHEMA_V2:
        raise ConfigurationError(
            f"unknown wire schema {schema!r}; this server speaks {SCHEMA_V2!r} "
            "(the schema key may be omitted)"
        )
    pin = payload.get("graph_version")
    if pin is not None and not isinstance(pin, str):
        raise ConfigurationError("graph_version must be a string")
    body = {k: v for k, v in payload.items() if k not in ("schema", "graph_version")}
    if body.get("type") == "append_delta":
        return _append_delta_reply(engine, body, pin)
    result = engine.submit(build_query(body))
    if pin is not None and result.graph_version != pin:
        raise ConfigurationError(
            f"graph_version mismatch: request pinned {pin}, live state is "
            f"{result.graph_version}"
        )
    return encode_result(result)


class ServiceClient(QueryVerbs):
    """In-process client: the engine's verbs, plus wire-dict support.

    ``query(payload)`` accepts the same JSON payloads the HTTP endpoint
    does, so a workload can be replayed against either front-end and the
    answers diffed — the service smoke test in CI does exactly that.
    """

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    def submit(self, query) -> QueryResult:
        return self.engine.submit(query)

    def append_delta(self, *args, **kwargs) -> str:
        return self.engine.append_delta(*args, **kwargs)

    def query(self, payload: dict) -> dict:
        """Answer one wire-format payload, returning the wire-format reply.

        Routes through :func:`answer_payload`, so the contract is
        identical to the HTTP endpoint's.
        """
        return answer_payload(self.engine, payload)

    def stats(self) -> dict:
        return self.engine.stats()

    def close(self) -> None:
        self.engine.close()


class HTTPServiceClient(QueryVerbs):
    """Stdlib-only client for :class:`repro.service.http.ServiceServer`.

    One persistent ``http.client.HTTPConnection`` per client instance —
    callers wanting concurrency use one client per thread (connections
    are not locked, matching ``http.client``'s own contract).
    """

    def __init__(self, host: str, port: int, *, timeout: Optional[float] = 60.0):
        import http.client

        self.host = str(host)
        self.port = int(port)
        self._conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)

    # -- low-level -------------------------------------------------------
    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        self._conn.request(method, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        if response.status != 200:
            try:
                detail = json.loads(data.decode("utf-8")).get("error", "")
            except (ValueError, UnicodeDecodeError):
                detail = data.decode("utf-8", "replace")
            raise ConfigurationError(
                f"service returned {response.status} for {method} {path}: {detail}"
            )
        return json.loads(data.decode("utf-8"))

    def query(self, payload: dict) -> dict:
        """POST one wire-format query; returns the wire-format reply."""
        return self._request("POST", "/query", payload)

    # -- the verbs: one payload shape, no schema key ----------------------
    def _ask(self, query_type: type, args: tuple, kwargs: dict) -> QueryResult:
        """Send a verb's arguments as a payload; the server validates them."""
        names = query_type._field_names
        if len(args) > len(names):
            raise TypeError(
                f"{query_type.query_type}() takes at most {len(names)} "
                f"positional arguments ({len(args)} given)"
            )
        payload = {"type": query_type.query_type, **dict(zip(names, args)), **kwargs}
        return decode_result(self.query(_encode_value(payload)))

    def append_delta(self, dataset, timestamp, insert=(), delete=(), **kwargs) -> str:
        """POST one edge delta; returns the dataset's new graph version."""
        payload = {
            "type": "append_delta",
            "dataset": dataset,
            "timestamp": timestamp,
            "insert": insert,
            "delete": delete,
            **kwargs,
        }
        return self.query(_encode_value(payload))["graph_version"]

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def health(self) -> dict:
        return self._request("GET", "/health")

    def close(self) -> None:
        self._conn.close()
