"""HTTP front-end: wire identity, error mapping, server lifecycle."""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.core.mixing import measure_mixing
from repro.service import (
    SCHEMA_V2,
    HTTPServiceClient,
    OperatorRegistry,
    QueryEngine,
    ResultCache,
    ServiceClient,
    ServiceServer,
)
from repro.service.http import _Handler

from .test_temporal_queries import _fresh_temporal

WALKS = [1, 2, 4, 8]
SOURCES = [0, 2, 5]


@pytest.fixture
def server(loader):
    engine = QueryEngine(
        OperatorRegistry(capacity=3, loader=loader),
        ResultCache(max_entries=32),
        coalesce_window=0.02,
    )
    with ServiceServer(engine, own_engine=True) as srv:
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with HTTPServiceClient(host, port) as c:
        yield c


class TestWireIdentity:
    def test_variation_curve_bit_identical_over_http(self, client, graphs):
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        served = client.variation_curve("era", SOURCES, WALKS)
        # json round-trips doubles via shortest repr: equality is exact.
        assert np.array_equal(np.asarray(served.value, dtype=np.float64), batch)

    def test_http_equals_in_process_client(self, server, client, graphs):
        in_process = ServiceClient(server.engine)
        http_reply = client.query(
            {"type": "slem", "dataset": "era"}
        )
        local_reply = in_process.query({"type": "slem", "dataset": "era"})
        assert http_reply["value"] == local_reply["value"]
        assert http_reply["fingerprint"] == local_reply["fingerprint"]

    def test_mixing_time_fields_survive_the_wire(self, client):
        reply = client.mixing_time("era", 0, 0.25)
        assert set(reply.value) == {"source", "time", "final_distance", "epsilon"}
        assert isinstance(reply.value["time"], int)

    def test_admission_over_http(self, client):
        reply = client.admission("era", [1, 2, 5], 4, seed=7)
        assert reply.value["suspects"] == [1, 2, 5]
        assert len(reply.value["accepted"]) == 3

    def test_second_request_hits_cache(self, client):
        cold = client.slem("era")
        warm = client.slem("era")
        assert not cold.cache_hit and warm.cache_hit
        assert warm.value == cold.value


def _engine_with_trends(loader):
    return QueryEngine(
        OperatorRegistry(capacity=3, loader=loader),
        ResultCache(max_entries=64),
        coalesce_window=0.0,
        temporal_loader=lambda name: _fresh_temporal(),
    )


#: Every verb, called with numpy-typed arguments wherever it takes numbers.
NUMPY_CALLS = {
    "mixing_time": (
        ("era", np.int64(3), np.float64(0.25)),
        dict(laziness=np.float32(0.5), max_steps=np.int32(500)),
    ),
    "variation_curve": (
        ("era", np.array([0, 7]), np.array([1, 2, 5])),
        dict(laziness=np.float64(0.25)),
    ),
    "slem": (("era",), dict(laziness=np.float64(0.25))),
    "admission": (
        ("era", np.array([1, 2, 5]), np.int64(4)),
        dict(verifier=np.int64(0), seed=np.int64(4), num_instances=np.int64(3)),
    ),
    "mixing_trend": (
        ("toy", np.array([1, 3])),
        dict(num_sources=np.int64(4), seed=np.int64(2), times=np.array([10, 20])),
    ),
    "slem_trend": (("toy",), dict(times=np.array([0, 20]), warm=np.bool_(False))),
}


class TestNumpyArguments:
    """The HTTP verbs encode numpy arguments exactly as the engine reads them."""

    @pytest.fixture
    def pair(self, loader):
        with ServiceServer(_engine_with_trends(loader), own_engine=True) as srv:
            host, port = srv.address
            with HTTPServiceClient(host, port) as http, _engine_with_trends(loader) as local:
                yield http, local

    def test_every_verb_is_covered(self):
        from repro.service.engine import QUERY_TYPES

        assert set(NUMPY_CALLS) == set(QUERY_TYPES)

    @pytest.mark.parametrize("verb", sorted(NUMPY_CALLS))
    def test_numpy_arguments_answer_bit_identically(self, pair, verb):
        from repro.service.client import encode_result

        http, local = pair
        args, kwargs = NUMPY_CALLS[verb]
        served = getattr(http, verb)(*args, **kwargs)
        expected = encode_result(getattr(local, verb)(*args, **kwargs))
        assert served.value == expected["value"]
        assert served.fingerprint == expected["fingerprint"]
        assert served.graph_version == expected["graph_version"]

    def test_append_delta_with_numpy_arguments(self, pair):
        http, local = pair
        delta = (np.int64(30),)
        kwargs = dict(insert=[(np.int64(2), np.int64(5))], delete=np.array([[1, 5]]))
        assert http.append_delta("toy", *delta, **kwargs) == local.append_delta(
            "toy", *delta, **kwargs
        )

    def test_stringly_warm_is_400(self, pair):
        from repro.errors import ConfigurationError

        http, _ = pair
        with pytest.raises(ConfigurationError, match="400.*warm"):
            http.slem_trend("toy", warm="false")


class TestEndpoints:
    def test_health(self, client):
        assert client.health() == {"status": "ok"}

    def test_stats_counts_requests(self, client):
        client.slem("era")
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["registry"]["builds"] >= 1

    def test_unknown_path_is_404(self, client):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="404"):
            client._request("GET", "/nope")


class _RecordingWriter:
    """Wraps a handler's ``wfile`` and keeps a copy of every write."""

    def __init__(self, inner, writes):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestTransport:
    """Each reply leaves in one write on a socket with Nagle off, so a
    closed-loop client never waits out its peer's delayed ACK."""

    def test_accepted_socket_has_nodelay(self, server, monkeypatch):
        seen = []
        original = _Handler.handle

        def handle(self):
            seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            original(self)

        monkeypatch.setattr(_Handler, "handle", handle)
        host, port = server.address
        with HTTPServiceClient(host, port) as c:
            assert c.health() == {"status": "ok"}
        assert seen == [1]

    def test_client_socket_has_nodelay(self, client):
        client.health()
        sock = client._conn.sock
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    @pytest.mark.parametrize(
        "status, method, path, body",
        [
            (200, "GET", "/health", None),
            (200, "POST", "/query", b'{"type": "slem", "dataset": "era"}'),
            (400, "POST", "/query", b"{not json"),
            (404, "GET", "/nope", None),
        ],
        ids=["health", "query", "bad-json", "unknown-path"],
    )
    def test_reply_is_one_write(self, server, client, monkeypatch, status, method, path, body):
        writes = []
        original = _Handler.setup

        def setup(self):
            original(self)
            self.wfile = _RecordingWriter(self.wfile, writes)

        monkeypatch.setattr(_Handler, "setup", setup)
        client._conn.request(method, path, body=body)
        response = client._conn.getresponse()
        payload = response.read()
        assert response.status == status
        assert len(writes) == 1
        head, _, sent_body = writes[0].partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert f"Content-Length: {len(payload)}".encode() in head
        assert sent_body == payload

    def test_back_to_back_round_trips_are_fast(self, client):
        client.health()  # connect
        times = []
        for _ in range(30):
            t0 = time.perf_counter()
            assert client.health() == {"status": "ok"}
            times.append(time.perf_counter() - t0)
        # A delayed-ACK stall costs ~40 ms per round trip.
        assert statistics.median(times) < 0.010, times


class TestErrorMapping:
    def test_unknown_query_type_is_400(self, client):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="400"):
            client.query({"type": "eigenvector_party", "dataset": "era"})

    def test_unknown_dataset_is_400(self, client):
        from repro.errors import ConfigurationError

        # The test loader raises KeyError -> 500 is wrong; the engine maps
        # loader failures through as-is, so probe with a bad query field
        # instead (epsilon out of range -> ConfigurationError -> 400).
        with pytest.raises(ConfigurationError, match="400"):
            client.mixing_time("era", 0, 1.5)

    def test_malformed_json_is_400(self, client):
        conn = client._conn
        conn.request(
            "POST",
            "/query",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read().decode())
        assert response.status == 400
        assert "JSON" in body["error"]

    def test_out_of_range_source_is_400(self, client, graphs):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="400.*source 1000000000 out of range"):
            client.mixing_time("era", 1_000_000_000, 0.25)
        n = graphs["era"].num_nodes
        with pytest.raises(ConfigurationError, match="400.*out of range"):
            client.variation_curve("era", [0, n], WALKS)
        # The server keeps answering valid queries on the same dataset.
        assert client.mixing_time("era", 0, 0.25).value["source"] == 0

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, server, length):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read().decode())
        finally:
            conn.close()
        assert response.status == 400
        assert body == {"error": f"invalid Content-Length {length!r}"}

    def test_bad_content_length_closes_then_client_reconnects(self, client, graphs):
        client.health()  # connect
        # A second descriptor on the same socket outlives the client's close.
        peer = client._conn.sock.dup()
        try:
            conn = client._conn
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read().decode())
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert body == {"error": "invalid Content-Length 'abc'"}
            peer.settimeout(5.0)
            assert peer.recv(1) == b""  # the server closed its end
        finally:
            peer.close()
        # The same client reconnects on its next request.
        reply = client.variation_curve("era", SOURCES, WALKS)
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        assert np.array_equal(np.asarray(reply.value, dtype=np.float64), batch)

    def test_internal_error_is_opaque_500(self, server, client, monkeypatch, capfd):
        def broken_submit(query):
            raise RuntimeError("secret internal detail")

        monkeypatch.setattr(server.engine, "submit", broken_submit)
        conn = client._conn
        conn.request(
            "POST",
            "/query",
            body=json.dumps({"type": "slem", "dataset": "era"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        body = json.loads(raw.decode())
        assert response.status == 500
        assert set(body) == {"error", "error_id"}
        assert body["error"] == "internal error"
        assert "secret" not in json.dumps(body)
        assert raw == json.dumps(
            {"error": "internal error", "error_id": body["error_id"]}
        ).encode()
        logged = capfd.readouterr().err
        assert body["error_id"] in logged
        assert "RuntimeError: secret internal detail" in logged
        # A 500 does not close the connection; the next request reuses it.
        monkeypatch.undo()
        assert client.health() == {"status": "ok"}

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "mixing_time", "dataset": "era", "source": "x", "epsilon": 0.25},
            {"type": "mixing_time", "dataset": "era", "source": 0, "epsilon": "abc"},
            {"type": "variation_curve", "dataset": "era", "sources": [0],
             "walk_lengths": [3, 1]},
            {"type": "mixing_time", "dataset": "era", "source": 0, "epsilon": 0.25,
             "max_steps": -5},
            {"type": "admission", "dataset": "era", "suspects": [1], "route_length": 4,
             "verifier": 10_000},
            {"type": "admission", "dataset": "era", "suspects": [10_000],
             "route_length": 4},
            {"schema": SCHEMA_V2, "type": "append_delta", "dataset": "era",
             "timestamp": "abc"},
        ],
        ids=[
            "source-not-int",
            "epsilon-not-float",
            "walk-lengths-decreasing",
            "max-steps-negative",
            "verifier-out-of-range",
            "suspect-out-of-range",
            "timestamp-not-int",
        ],
    )
    def test_malformed_field_is_400_not_500(self, client, payload):
        conn = client._conn
        conn.request(
            "POST",
            "/query",
            body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read().decode())
        assert response.status == 400, body
        assert set(body) == {"error"}
        # The same server (and connection) answers the next valid request.
        assert client.mixing_time("era", 0, 0.25).value["source"] == 0

    def test_attack_suspects_may_name_the_sybil_region(self, client, graphs):
        from repro.errors import ConfigurationError

        n = graphs["era"].num_nodes
        attack = dict(
            attack_strategy="random", num_sybil=4, num_attack_edges=2, attack_seed=1
        )
        reply = client.admission("era", [1, n, n + 3], 4, seed=7, **attack)
        assert reply.value["suspects"] == [1, n, n + 3]
        with pytest.raises(ConfigurationError, match="400.*suspect"):
            client.admission("era", [1, n + 4], 4, seed=7, **attack)

    def test_server_survives_bad_requests(self, client):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            client.query({"type": "nope"})
        # Still serving afterwards.
        assert client.health() == {"status": "ok"}


class TestConcurrentClients:
    def test_parallel_http_clients_get_identical_answers(self, server, graphs):
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        host, port = server.address
        results = []
        errors = []

        def hammer():
            try:
                with HTTPServiceClient(host, port) as c:
                    reply = c.variation_curve("era", SOURCES, WALKS)
                    results.append(np.asarray(reply.value, dtype=np.float64))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6
        for got in results:
            assert np.array_equal(got, batch)

    def test_mixed_stream_from_concurrent_clients_matches_serial(self, server, graphs):
        """Four clients, each with its own connection, rotate mixing-time
        queries (distinct sources, so coalescing forms real batches),
        variation curves and SLEM; every answer equals the serial one."""
        from repro.core.spectral import slem
        from repro.core.walks import TransitionOperator

        clients, per_client = 4, 6
        graph = graphs["era"]
        curves = measure_mixing(graph, WALKS, sources=SOURCES).distances
        times = TransitionOperator(graph).hitting_times(
            list(range(clients * per_client)), 0.25
        )
        expected_slem = float(slem(graph))
        host, port = server.address
        answered = []
        errors = []
        barrier = threading.Barrier(clients)

        def client_loop(client_id):
            try:
                with HTTPServiceClient(host, port) as c:
                    barrier.wait()
                    for i in range(per_client):
                        source = client_id * per_client + i
                        if i % 3 == 0:
                            reply = c.mixing_time("era", source, 0.25)
                            assert reply.value["time"] == int(times.times[source])
                        elif i % 3 == 1:
                            reply = c.variation_curve("era", SOURCES, WALKS)
                            got = np.asarray(reply.value, dtype=np.float64)
                            assert np.array_equal(got, curves)
                        else:
                            assert c.slem("era").value == expected_slem
                        answered.append(source)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        assert sorted(answered) == list(range(clients * per_client))
