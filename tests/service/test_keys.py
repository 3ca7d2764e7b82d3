"""Cache-key builders: content addressing, not name addressing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Graph
from repro.service import graph_fingerprint, query_fingerprint
from repro.service.client import build_query
from repro.service.engine import (
    AdmissionQuery,
    MixingTimeQuery,
    MixingTrendQuery,
    SlemQuery,
    SlemTrendQuery,
    VariationCurveQuery,
)


def _graph():
    return Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], num_nodes=4)


class TestGraphFingerprint:
    def test_deterministic_and_content_addressed(self):
        a = graph_fingerprint(_graph())
        b = graph_fingerprint(_graph())
        assert a == b
        assert len(a) == 64 and int(a, 16) >= 0  # sha256 hex

    def test_different_structure_differs(self):
        a = graph_fingerprint(_graph())
        other = Graph.from_edges([(0, 1), (1, 2), (2, 0), (1, 3)], num_nodes=4)
        assert graph_fingerprint(other) != a

    def test_memoised_on_instance(self):
        g = _graph()
        first = graph_fingerprint(g)
        assert g._memo["graph_fingerprint"] == first
        # Second call returns the memo (same string object).
        assert graph_fingerprint(g) is first


class TestQueryFingerprint:
    def test_param_name_order_is_irrelevant(self):
        a = query_fingerprint("mixing_time", "gk", "plain:0.0", source=3, epsilon=0.1)
        b = query_fingerprint("mixing_time", "gk", "plain:0.0", epsilon=0.1, source=3)
        assert a == b

    @pytest.mark.parametrize(
        "variant",
        [
            dict(query_type="variation_curve"),  # different query type
            dict(graph_key="other"),  # different graph
            dict(operator_kind="plain:0.5"),  # different dynamics
            dict(params=dict(source=4, epsilon=0.1)),  # different param value
            dict(params=dict(source=3, epsilon=0.2)),
        ],
    )
    def test_every_dimension_changes_the_key(self, variant):
        base = dict(
            query_type="mixing_time",
            graph_key="gk",
            operator_kind="plain:0.0",
            params=dict(source=3, epsilon=0.1),
        )
        merged = {**base, **variant}
        key = query_fingerprint(
            base["query_type"], base["graph_key"], base["operator_kind"], **base["params"]
        )
        other = query_fingerprint(
            merged["query_type"],
            merged["graph_key"],
            merged["operator_kind"],
            **merged["params"],
        )
        assert key != other

    def test_array_params_hash_by_content(self):
        a = query_fingerprint(
            "variation_curve", "gk", "plain:0.0", sources=[1, 2], walk_lengths=[4, 8]
        )
        b = query_fingerprint(
            "variation_curve",
            "gk",
            "plain:0.0",
            sources=list(np.asarray([1, 2])),
            walk_lengths=[4, 8],
        )
        assert a == b


_ATTACK = dict(attack_strategy="cluster-bomb", num_sybil=8, num_attack_edges=4, attack_seed=3)

#: (payload, direct construction, hex cache key under graph key "gk") for
#: one query of every type and every variant that changes the key rule.
#: The hex values were recorded before the query types were declared in
#: one table; a change here invalidates every deployed cache entry.
GOLDEN_KEYS = {
    "mixing_time/point_mass": (
        {"type": "mixing_time", "dataset": "era", "source": 3, "epsilon": 0.25},
        MixingTimeQuery("era", 3, 0.25),
        "c43a9cbc0ae49dc2cf8b137b61a595d16f1f1f9bf0f7a04ff139849166542310",
    ),
    "mixing_time/lazy": (
        {"type": "mixing_time", "dataset": "era", "source": 3, "epsilon": 0.25,
         "laziness": 0.5, "max_steps": 500},
        MixingTimeQuery("era", 3, 0.25, 0.5, 500),
        "07b7ca716a0cc4bdcb047af0c92f8c13d41e8a1953023e6b6ccce213efcd0d7f",
    ),
    "mixing_time/uniform_start": (
        {"type": "mixing_time", "dataset": "era", "source": 3, "epsilon": 0.25,
         "mode": "uniform_start"},
        MixingTimeQuery("era", 3, 0.25, mode="uniform_start"),
        "f9b3add249b33e96641f98d72d41d3d6fc7177b75ed09d6a4af422f9046dc2cb",
    ),
    "mixing_time/non_backtracking": (
        {"type": "mixing_time", "dataset": "era", "source": 3, "epsilon": 0.25,
         "mode": "non_backtracking"},
        MixingTimeQuery("era", 3, 0.25, mode="non_backtracking"),
        "57399be66fcd73964641d3577eead4f4018a223c76eb3109d21d99b98636298e",
    ),
    "variation_curve/point_mass": (
        {"type": "variation_curve", "dataset": "era", "sources": [0, 7],
         "walk_lengths": [1, 2, 5]},
        VariationCurveQuery("era", (0, 7), (1, 2, 5)),
        "c8efc01ec051db7d42f8a69e4d1c80a9effc7586cce4ab6f066893172e7fb744",
    ),
    "variation_curve/uniform_start": (
        {"type": "variation_curve", "dataset": "era", "sources": [0, 7],
         "walk_lengths": [1, 2, 5], "mode": "uniform_start"},
        VariationCurveQuery("era", (0, 7), (1, 2, 5), mode="uniform_start"),
        "b0eb07ffc41014158c2137a8637150d9549e7aadc5c0f4f68578731f22d5b414",
    ),
    "variation_curve/non_backtracking": (
        {"type": "variation_curve", "dataset": "era", "sources": [0, 7],
         "walk_lengths": [1, 2, 5], "mode": "non_backtracking"},
        VariationCurveQuery("era", (0, 7), (1, 2, 5), mode="non_backtracking"),
        "b73efd9b1fd8b2fc7114bd09712a3742f3b4381d3ce72a7a11d36d8ae68b2915",
    ),
    "slem": (
        {"type": "slem", "dataset": "era"},
        SlemQuery("era"),
        "5db06971c0e5d69f4320095ef8b372ab61bf739803a19e8072d22ecaaac414df",
    ),
    "slem/lazy": (
        {"type": "slem", "dataset": "era", "method": "dense", "laziness": 0.25},
        SlemQuery("era", "dense", 0.25),
        "b86a82a7009de6d36f9b853e48b5b3e21bb6a63f6759d2a559eda74093b2e2ed",
    ),
    "admission": (
        {"type": "admission", "dataset": "era", "suspects": [1, 2, 5],
         "route_length": 4, "seed": 7},
        AdmissionQuery("era", (1, 2, 5), 4, seed=7),
        "b209b574f80acf3042fec39eeef1f78546f069ddd364c3d1c226c2eccda96d9a",
    ),
    "admission/num_instances": (
        {"type": "admission", "dataset": "era", "suspects": [1, 2, 5],
         "route_length": 4, "verifier": 2, "seed": 7, "num_instances": 9},
        AdmissionQuery("era", (1, 2, 5), 4, 2, 7, 9),
        "cd6c23c645c7ed2ca5ea8ecb988c33c6c284d684ea527157f80e26d26dc9aa9a",
    ),
    "admission/attack": (
        {"type": "admission", "dataset": "era", "suspects": [1, 2, 5],
         "route_length": 4, "seed": 7, **_ATTACK},
        AdmissionQuery("era", (1, 2, 5), 4, seed=7, **_ATTACK),
        "aa93a21ee16732ba3e86b4c2f7a6cf7cfd3a0437c0535a1a573903c39bf83f8a",
    ),
    "admission/attack/num_instances": (
        {"type": "admission", "dataset": "era", "suspects": [1, 2, 5],
         "route_length": 4, "seed": 7, "num_instances": 9, **_ATTACK},
        AdmissionQuery("era", (1, 2, 5), 4, 0, 7, 9, "cluster-bomb", 8, 4, 3),
        "36f888dafd3f09f8df5f6e2ecda6e6afd25573e4a3217850795c103dbb48f263",
    ),
    "admission/attack/no_edges": (
        {"type": "admission", "dataset": "era", "suspects": [1, 2, 5],
         "route_length": 4, "seed": 7, "attack_strategy": "random"},
        AdmissionQuery("era", (1, 2, 5), 4, seed=7, attack_strategy="random"),
        "ad66a64d23c1eb9341521980d4cb711937df9db63369759b61e38c2fa04dd3f2",
    ),
    "mixing_trend": (
        {"type": "mixing_trend", "dataset": "tm", "walk_lengths": [1, 3]},
        MixingTrendQuery("tm", (1, 3)),
        "b01e786f6009599cb9c53b5afacb53d7f68f9eee71041eec96feb48ed5573876",
    ),
    "mixing_trend/times": (
        {"type": "mixing_trend", "dataset": "tm", "walk_lengths": [1, 3],
         "num_sources": 4, "seed": 2, "times": [10, 20], "laziness": 0.5},
        MixingTrendQuery("tm", (1, 3), 4, 2, (10, 20), 0.5),
        "c79c16be5d10cd054052e7c83d884fc4f8dcc4b22f74439a16eb927364dd6ae3",
    ),
    "slem_trend": (
        {"type": "slem_trend", "dataset": "tm"},
        SlemTrendQuery("tm"),
        "d6d73154040ecb6608c789b5282149458156d574b7ca369de0f29ddfb6c7b1ff",
    ),
    "slem_trend/cold": (
        {"type": "slem_trend", "dataset": "tm", "warm": False},
        SlemTrendQuery("tm", warm=False),
        "5ca41b1893f3620a842356a6e851166f4c448a343085442df4ddbe97b5f13396",
    ),
    "slem_trend/times": (
        {"type": "slem_trend", "dataset": "tm", "times": [10, 20]},
        SlemTrendQuery("tm", (10, 20)),
        "64bfa028842688a0853f18429d78860a1c6bf5ba184169ae7abcfee69c6a9163",
    ),
    "slem_trend/times/cold": (
        {"type": "slem_trend", "dataset": "tm", "times": [10, 20], "warm": False},
        SlemTrendQuery("tm", (10, 20), False),
        "ccef35f008ba467983a0797b16d9845b7b7777b780305572c5a10d2949250f5d",
    ),
}


class TestGoldenQueryKeys:
    """Every query type's cache key, pinned byte for byte."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_fingerprint_is_pinned(self, name):
        _, query, expected = GOLDEN_KEYS[name]
        assert query.fingerprint("gk") == expected

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_wire_payload_builds_the_same_query(self, name):
        payload, query, expected = GOLDEN_KEYS[name]
        built = build_query(payload)
        assert built == query
        assert type(built) is type(query)
        assert built.fingerprint("gk") == expected
