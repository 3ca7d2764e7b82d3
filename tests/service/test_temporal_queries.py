"""Trend queries and the append_delta mutation verb on the engine.

The versioned-cache contract: every trend fingerprint is keyed on the
temporal graph's content-derived ``version`` (delta-log head), so an
append *automatically* invalidates every cached trend answer — no
explicit invalidation path exists or is needed.  Engines also keep
private journals (``compact(base_time)`` copies), so one engine's
appends never leak into another engine or the memoised loader instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionPolicy
from repro.errors import ConfigurationError, DatasetError, GraphFormatError
from repro.graph import EdgeDelta, Graph, TemporalGraph
from repro.service import (
    MixingTrendQuery,
    OperatorRegistry,
    QueryEngine,
    ResultCache,
    SlemTrendQuery,
)
from repro.service.client import build_query


def _fresh_temporal() -> TemporalGraph:
    # Ring plus chord: connected and non-bipartite in every window.
    base = Graph.from_edges(
        np.array([(i, (i + 1) % 14) for i in range(14)] + [(0, 2)], dtype=np.int64)
    )
    temporal = TemporalGraph(base)
    temporal.append(EdgeDelta(10, insert=[(3, 6), (4, 8)]))
    temporal.append(EdgeDelta(20, insert=[(1, 5)], delete=[(3, 6)]))
    return temporal


@pytest.fixture()
def shared_temporal():
    return _fresh_temporal()


def _engine(shared_temporal, **kwargs) -> QueryEngine:
    defaults = dict(
        registry=OperatorRegistry(loader=lambda name: shared_temporal.snapshot()),
        cache=ResultCache(),
        policy=ExecutionPolicy(workers=1),
        coalesce_window=0.0,
        temporal_loader=lambda name: shared_temporal,
    )
    defaults.update(kwargs)
    return QueryEngine(**defaults)


class TestTrendQueries:
    def test_slem_trend_answer_and_version(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            result = engine.slem_trend("toy")
            assert result.graph_version == shared_temporal.version
            assert result.value["times"] == list(shared_temporal.times())
            assert len(result.value["slem"]) == 3
            assert not result.coalesced and result.batch_size == 1

    def test_mixing_trend_answer_shape(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            result = engine.mixing_trend("toy", [1, 3], num_sources=4, seed=1)
            value = result.value
            assert value["walk_lengths"] == [1, 3]
            assert len(value["sources"]) == 4
            assert len(value["worst_case"]) == len(value["times"])
            assert len(value["worst_case"][0]) == 2
            assert all(0.0 <= d <= 1.0 for row in value["worst_case"] for d in row)

    def test_identical_resubmit_hits_cache(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            cold = engine.slem_trend("toy")
            warm = engine.slem_trend("toy")
            assert not cold.cache_hit and warm.cache_hit
            assert warm.value == cold.value
            assert warm.fingerprint == cold.fingerprint

    def test_different_params_different_fingerprint(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            a = engine.slem_trend("toy", warm=True)
            b = engine.slem_trend("toy", warm=False)
            assert a.fingerprint != b.fingerprint
            assert not b.cache_hit

    def test_times_validation(self, shared_temporal):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            SlemTrendQuery("toy", times=[20, 10])
        with pytest.raises(ConfigurationError, match="non-empty"):
            MixingTrendQuery("toy", (1, 2), times=[])

    @pytest.mark.parametrize("warm", ["false", "true", "", 2, -1, 1.0, None, [1]])
    def test_warm_is_a_bool_not_a_truthiness(self, warm):
        # "false" used to be answered warm: bool("false") is True.
        with pytest.raises(ConfigurationError, match="warm"):
            build_query({"type": "slem_trend", "dataset": "toy", "warm": warm})

    @pytest.mark.parametrize("warm", [0, 1, np.int64(1), np.bool_(False)])
    def test_warm_zero_and_one_are_the_bools(self, warm):
        query = build_query({"type": "slem_trend", "dataset": "toy", "warm": warm})
        assert query == SlemTrendQuery("toy", warm=bool(warm))
        assert query.warm is bool(warm)
        assert query.fingerprint("gk") == SlemTrendQuery("toy", warm=bool(warm)).fingerprint("gk")

    def test_unknown_dataset_raises(self, shared_temporal):
        def loader(name):
            raise DatasetError(f"unknown temporal dataset {name!r}")

        with _engine(shared_temporal, temporal_loader=loader) as engine:
            with pytest.raises(DatasetError, match="unknown temporal"):
                engine.slem_trend("nope")


class TestAppendDelta:
    def test_append_invalidates_cached_trends(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            before = engine.slem_trend("toy")
            assert engine.slem_trend("toy").cache_hit
            new_version = engine.append_delta("toy", 30, insert=[(2, 9)])
            assert new_version != before.graph_version
            after = engine.slem_trend("toy")
            assert not after.cache_hit
            assert after.graph_version == new_version
            assert len(after.value["times"]) == len(before.value["times"]) + 1

    def test_cas_pin_semantics(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            version = engine.slem_trend("toy").graph_version
            with pytest.raises(ConfigurationError, match="version"):
                engine.append_delta(
                    "toy", 30, insert=[(2, 9)], expect_version="stale-pin"
                )
            # The refused append left the journal untouched.
            assert engine.slem_trend("toy").graph_version == version
            new = engine.append_delta(
                "toy", 30, insert=[(2, 9)], expect_version=version
            )
            assert new != version

    def test_invalid_delta_rejected_atomically(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            version = engine.slem_trend("toy").graph_version
            with pytest.raises(GraphFormatError, match="non-existent"):
                engine.append_delta("toy", 30, delete=[(0, 7)])
            assert engine.slem_trend("toy").graph_version == version

    def test_stats_reports_temporal_state(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            engine.slem_trend("toy")
            engine.append_delta("toy", 30, insert=[(2, 9)])
            stats = engine.stats()
            assert stats["temporal"]["appends"] == 1
            assert set(stats["temporal"]["datasets"]) == {"toy"}
            assert stats["temporal"]["datasets"]["toy"] != _fresh_temporal().version


class TestEngineIsolation:
    def test_appends_do_not_leak_to_loader_or_peers(self, shared_temporal):
        original = shared_temporal.version
        with _engine(shared_temporal) as first:
            first.slem_trend("toy")
            first.append_delta("toy", 30, insert=[(2, 9)])
            # The loader's instance is untouched: the engine mutated a
            # compact(base_time) private copy.
            assert shared_temporal.version == original
            assert 30 not in shared_temporal.times()
            with _engine(shared_temporal) as second:
                result = second.slem_trend("toy")
                assert result.graph_version == original

    def test_private_copy_preserves_version_until_mutation(self, shared_temporal):
        with _engine(shared_temporal) as engine:
            # compact(base_time) is a zero-delta fold: same content, same
            # version string — cache keys survive the engine boundary.
            assert engine.slem_trend("toy").graph_version == shared_temporal.version
