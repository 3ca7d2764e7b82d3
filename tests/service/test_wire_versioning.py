"""The wire contract: one schema, whose ``schema`` key is optional.

A payload without a ``schema`` key means :data:`SCHEMA_V2`, so it gets
the same answer, fingerprint, graph version and reply keys as the same
payload carrying the key.  Every query type (trend types included) and
``append_delta`` work either way; any other schema value is refused.
Optimistic ``graph_version`` pins are checked over both front-ends
(in-process and HTTP) via the single
:func:`~repro.service.client.answer_payload` codec seam.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionPolicy
from repro.errors import ConfigurationError
from repro.graph import EdgeDelta, Graph, TemporalGraph
from repro.service import (
    SCHEMA_V2,
    HTTPServiceClient,
    OperatorRegistry,
    QueryEngine,
    ResultCache,
    ServiceClient,
    ServiceServer,
    answer_payload,
)

#: The reply shape of every answered query, pinned exactly.
REPLY_KEYS = sorted(
    [
        "batch_size",
        "cache_hit",
        "coalesced",
        "fingerprint",
        "graph_version",
        "latency_s",
        "schema",
        "value",
    ]
)


def _temporal() -> TemporalGraph:
    base = Graph.from_edges(
        np.array([(i, (i + 1) % 14) for i in range(14)] + [(0, 2)], dtype=np.int64)
    )
    temporal = TemporalGraph(base)
    temporal.append(EdgeDelta(10, insert=[(3, 6), (4, 8)]))
    return temporal


@pytest.fixture()
def engine():
    temporal = _temporal()
    with QueryEngine(
        registry=OperatorRegistry(loader=lambda name: temporal.snapshot()),
        cache=ResultCache(),
        policy=ExecutionPolicy(workers=1),
        coalesce_window=0.0,
        temporal_loader=lambda name: temporal,
    ) as eng:
        yield eng


#: One payload per query type, none with a ``schema`` key.
SCHEMALESS_PAYLOADS = [
    {"type": "slem", "dataset": "toy"},
    {"type": "mixing_time", "dataset": "toy", "source": 3, "epsilon": 0.25},
    {"type": "variation_curve", "dataset": "toy", "sources": [0, 5], "walk_lengths": [1, 4]},
    {"type": "admission", "dataset": "toy", "suspects": [1, 2], "route_length": 3, "seed": 1},
    {"type": "slem_trend", "dataset": "toy"},
    {"type": "mixing_trend", "dataset": "toy", "walk_lengths": [1, 3], "num_sources": 4},
]


class TestV1Compatibility:
    """Payloads written for the retired v1 wire (no ``schema`` key) are
    answered under the one contract: they mean v2."""

    def test_v1_and_v2_same_value_same_fingerprint(self, engine):
        for payload in SCHEMALESS_PAYLOADS:
            bare = answer_payload(engine, dict(payload))
            keyed = answer_payload(engine, {"schema": SCHEMA_V2, **payload})
            assert sorted(bare) == sorted(keyed) == REPLY_KEYS, payload
            assert bare["value"] == keyed["value"], payload
            assert bare["fingerprint"] == keyed["fingerprint"], payload
            assert bare["graph_version"] == keyed["graph_version"], payload
            assert bare["schema"] == keyed["schema"] == SCHEMA_V2, payload

    def test_trend_types_need_no_schema(self, engine):
        reply = answer_payload(engine, {"type": "slem_trend", "dataset": "toy"})
        assert isinstance(reply["graph_version"], str)
        assert len(reply["value"]["slem"]) == 2

    def test_append_delta_needs_no_schema(self, engine):
        reply = answer_payload(
            engine,
            {"type": "append_delta", "dataset": "toy", "timestamp": 20, "insert": [[2, 9]]},
        )
        assert reply["schema"] == SCHEMA_V2
        assert reply["value"]["num_insert"] == 1

    def test_unknown_schema_refused(self, engine):
        for schema in ("repro.service.query/v9", None, 2):
            with pytest.raises(ConfigurationError, match="unknown wire schema"):
                answer_payload(
                    engine, {"schema": schema, "type": "slem", "dataset": "toy"}
                )


class TestV2Contract:
    def test_v2_reply_adds_schema_and_version(self, engine):
        reply = answer_payload(
            engine, {"schema": SCHEMA_V2, "type": "slem", "dataset": "toy"}
        )
        assert sorted(reply) == REPLY_KEYS
        assert reply["schema"] == SCHEMA_V2
        assert reply["graph_version"] == engine.stats()["temporal"].get(
            "datasets", {}
        ).get("toy", reply["graph_version"])

    def test_v2_trend_query(self, engine):
        reply = answer_payload(
            engine, {"schema": SCHEMA_V2, "type": "slem_trend", "dataset": "toy"}
        )
        assert reply["schema"] == SCHEMA_V2
        assert isinstance(reply["graph_version"], str)
        assert len(reply["value"]["slem"]) == 2

    def test_matching_pin_accepted(self, engine):
        version = answer_payload(
            engine, {"schema": SCHEMA_V2, "type": "slem_trend", "dataset": "toy"}
        )["graph_version"]
        pinned = answer_payload(
            engine,
            {
                "schema": SCHEMA_V2,
                "type": "slem_trend",
                "dataset": "toy",
                "graph_version": version,
            },
        )
        assert pinned["cache_hit"]

    def test_stale_pin_refused(self, engine):
        with pytest.raises(ConfigurationError, match="graph_version mismatch"):
            answer_payload(
                engine,
                {
                    "schema": SCHEMA_V2,
                    "type": "slem_trend",
                    "dataset": "toy",
                    "graph_version": "stale",
                },
            )

    def test_non_string_pin_rejected(self, engine):
        with pytest.raises(ConfigurationError, match="must be a string"):
            answer_payload(
                engine,
                {
                    "schema": SCHEMA_V2,
                    "type": "slem",
                    "dataset": "toy",
                    "graph_version": 7,
                },
            )

    def test_append_delta_reply_shape(self, engine):
        reply = answer_payload(
            engine,
            {
                "schema": SCHEMA_V2,
                "type": "append_delta",
                "dataset": "toy",
                "timestamp": 20,
                "insert": [[2, 9]],
            },
        )
        assert sorted(reply) == ["graph_version", "schema", "value"]
        assert reply["value"] == {
            "dataset": "toy",
            "timestamp": 20,
            "num_insert": 1,
            "num_delete": 0,
        }

    def test_append_delta_refuses_unknown_fields(self, engine):
        # The engine-level kwarg name must not be silently ignored on
        # the wire: a client spelling the pin 'expect_version' would
        # otherwise mutate without the CAS protection it asked for.
        with pytest.raises(ConfigurationError, match="unknown field"):
            answer_payload(
                engine,
                {
                    "schema": SCHEMA_V2,
                    "type": "append_delta",
                    "dataset": "toy",
                    "timestamp": 20,
                    "insert": [[2, 9]],
                    "expect_version": "whatever",
                },
            )

    def test_append_delta_requires_fields(self, engine):
        with pytest.raises(ConfigurationError, match="requires 'timestamp'"):
            answer_payload(
                engine,
                {"schema": SCHEMA_V2, "type": "append_delta", "dataset": "toy"},
            )


class TestFrontEndParity:
    """ServiceClient.query and HTTP POST /query share answer_payload."""

    def test_inprocess_client_matches_codec(self, engine):
        client = ServiceClient(engine)
        payload = {"schema": SCHEMA_V2, "type": "slem_trend", "dataset": "toy"}
        via_client = client.query(dict(payload))
        via_codec = answer_payload(engine, dict(payload))
        assert via_client["value"] == via_codec["value"]
        assert via_client["fingerprint"] == via_codec["fingerprint"]
        assert via_client["graph_version"] == via_codec["graph_version"]

    def test_http_round_trip(self, engine):
        with ServiceServer(engine) as server:
            host, port = server.address
            http = HTTPServiceClient(host, port)
            # A point query decodes with a graph_version too.
            point = http.slem("toy")
            assert point.graph_version is not None
            # A trend verb decodes with a graph_version.
            trend = http.slem_trend("toy")
            assert trend.graph_version is not None
            assert len(trend.value["slem"]) == 2
            # append_delta mutates and returns the new version...
            new_version = http.append_delta("toy", 30, insert=[(2, 9)])
            assert new_version != trend.graph_version
            # ...and a stale pin maps to HTTP 400.
            with pytest.raises(ConfigurationError, match="400"):
                http.query(
                    {
                        "schema": SCHEMA_V2,
                        "type": "slem_trend",
                        "dataset": "toy",
                        "graph_version": trend.graph_version,
                    }
                )
