"""Incremental spectral maintenance: warm starts, trackers, trends.

The load-bearing contract is :data:`WARM_SLEM_ATOL`: a warm-started
solve must agree with a cold solve to within ``1e-6`` on every window,
in memory and memory-mapped, or it silently corrupts the service's trend
answers.  These tests drive real delta streams through the warm solver
and check the contract directly, plus every documented cold-fallback
trigger and the bit-for-bit stationary tracker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MAX_WARM_DELTA_FRACTION,
    WARM_SLEM_ATOL,
    SpectralState,
    StationaryTracker,
    mixing_trend,
    slem_trend,
    stationary_distribution,
    transition_spectrum_extremes,
    warm_spectral_extremes,
)
from repro.errors import ConfigurationError, NotConnectedError
from repro.generators import erdos_renyi_gnm
from repro.graph import (
    EdgeDelta,
    Graph,
    TemporalGraph,
    largest_connected_component,
    open_csr,
    save_csr,
)


def _big_graph(seed=11, n=300, m=1100) -> Graph:
    """A connected, non-bipartite graph comfortably above the dense cutoff."""
    graph = largest_connected_component(erdos_renyi_gnm(n, m, seed=seed))[0]
    assert graph.num_nodes > 64
    return graph


def _churn_delta(graph: Graph, rng, t, k_ins=6, k_del=6) -> EdgeDelta:
    edges = graph.edges()
    del_idx = rng.choice(edges.shape[0], size=k_del, replace=False)
    delete = edges[np.sort(del_idx)]
    existing = {tuple(e) for e in edges}
    n = graph.num_nodes
    insert = set()
    while len(insert) < k_ins:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in existing and key not in insert:
            insert.add(key)
    return EdgeDelta(t, insert=sorted(insert), delete=delete)


def _temporal_stream(seed=11, windows=5) -> TemporalGraph:
    """A temporal graph whose every window stays connected (small churn)."""
    base = _big_graph(seed=seed)
    temporal = TemporalGraph(base)
    rng = np.random.default_rng(seed)
    for w in range(windows):
        t = 10 * (w + 1)
        for _ in range(40):  # retry churn until the window stays connected
            delta = _churn_delta(temporal.snapshot(), rng, t)
            candidate = TemporalGraph(temporal.snapshot())
            candidate.append(EdgeDelta(t, insert=delta.insert, delete=delta.delete))
            from repro.graph import is_connected

            if is_connected(candidate.snapshot()):
                temporal.append(delta)
                break
        else:  # pragma: no cover - churn is tiny relative to m
            raise AssertionError("could not find a connectivity-preserving delta")
    return temporal


class TestWarmAgreementContract:
    """Warm SLEM == cold SLEM within WARM_SLEM_ATOL, in memory and over
    every window opened memory-mapped."""

    @pytest.mark.parametrize("backend", ["numpy", "streaming"])
    def test_warm_matches_cold_across_stream(self, backend, tmp_path):
        temporal = _temporal_stream(seed=11)
        atol = WARM_SLEM_ATOL
        state = None
        prev_t = None
        warm_windows = 0
        for t in temporal.times():
            graph = temporal.at(t)
            if backend == "streaming":
                save_csr(graph, tmp_path / f"{t}.csr")
                graph = open_csr(tmp_path / f"{t}.csr")
            changed = (
                temporal.changes_between(prev_t, t) if prev_t is not None else None
            )
            state = warm_spectral_extremes(graph, state, changed_edges=changed)
            cold = transition_spectrum_extremes(graph)
            assert abs(state.slem - cold.slem) <= atol, (
                f"{backend} window t={t}: warm {state.slem!r} vs cold {cold.slem!r}"
            )
            assert abs(state.lambda2 - cold.lambda2) <= atol
            assert abs(state.lambda_min - cold.lambda_min) <= atol
            warm_windows += int(state.warm_started)
            prev_t = t
        # The whole point: after the cold first window, we stay warm.
        assert warm_windows == len(temporal.times()) - 1

    def test_mapped_graph_streams_every_spectral_path(self, tmp_path):
        """Cold, warm and Fiedler solves on a memory-mapped graph walk its
        row stripes; none materialises the O(2m) normalised adjacency."""
        from repro.community.sweep import second_eigenvector
        from repro.obs import OBS

        graph = _big_graph()
        save_csr(graph, tmp_path / "g.csr")
        mapped = open_csr(tmp_path / "g.csr")
        was_enabled = OBS.enabled
        streamed = []

        def counted(run):
            OBS.reset()
            OBS.enable()
            try:
                out = run()
                streamed.append(OBS.snapshot()["counters"].get("spectral.stream.matvecs", 0))
            finally:
                OBS.reset()
                OBS.enabled = was_enabled
            return out

        cold = counted(lambda: warm_spectral_extremes(mapped))
        warm = counted(lambda: warm_spectral_extremes(mapped, cold, changed_edges=0))
        vec = counted(lambda: second_eigenvector(mapped))
        assert "normalized_adjacency" not in mapped._memo
        assert all(count >= 1 for count in streamed), streamed
        assert not cold.warm_started and warm.warm_started
        assert abs(warm.slem - cold.slem) <= WARM_SLEM_ATOL
        in_memory = transition_spectrum_extremes(graph)
        assert abs(cold.slem - in_memory.slem) <= WARM_SLEM_ATOL
        assert abs(warm.lambda_min - in_memory.lambda_min) <= WARM_SLEM_ATOL
        reference = second_eigenvector(graph)
        cosine = vec @ reference / (np.linalg.norm(vec) * np.linalg.norm(reference))
        assert abs(cosine) == pytest.approx(1.0, abs=1e-9)

    def test_warm_state_seeds_next_window(self):
        temporal = _temporal_stream(seed=23, windows=2)
        t0, t1 = temporal.times()[:2]
        cold0 = warm_spectral_extremes(temporal.at(t0))
        assert not cold0.warm_started
        warm1 = warm_spectral_extremes(
            temporal.at(t1),
            cold0,
            changed_edges=temporal.changes_between(t0, t1),
        )
        assert warm1.warm_started
        assert warm1.matvecs < cold0.matvecs

    def test_summary_reports_method(self):
        graph = _big_graph()
        cold = warm_spectral_extremes(graph)
        warm = warm_spectral_extremes(graph, cold, changed_edges=0)
        assert cold.summary().method == "cold"
        assert warm.summary().method == "warm"
        assert warm.summary().gap == pytest.approx(1.0 - warm.slem)


class TestColdFallbackTriggers:
    """Every documented guard must force warm_started=False."""

    def test_no_state_is_cold(self):
        state = warm_spectral_extremes(_big_graph())
        assert not state.warm_started
        assert isinstance(state, SpectralState)

    def test_mismatched_node_count_is_cold(self):
        small = _big_graph(seed=3, n=200, m=700)
        big = _big_graph(seed=3, n=300, m=1100)
        state = warm_spectral_extremes(small)
        follow = warm_spectral_extremes(big, state, changed_edges=1)
        assert not follow.warm_started

    def test_small_graph_is_always_cold(self):
        # n <= spectral._DENSE_CUTOFF: the kernel solves densely, warm is skipped.
        edges = [(i, (i + 1) % 20) for i in range(20)] + [(0, 2)]
        graph = Graph.from_edges(np.array(edges, dtype=np.int64))
        state = warm_spectral_extremes(graph)
        follow = warm_spectral_extremes(graph, state, changed_edges=0)
        assert not follow.warm_started
        assert abs(follow.slem - transition_spectrum_extremes(graph).slem) <= 1e-12

    def test_large_delta_fraction_is_cold(self):
        graph = _big_graph()
        state = warm_spectral_extremes(graph)
        too_many = int(MAX_WARM_DELTA_FRACTION * graph.num_edges) + 1
        follow = warm_spectral_extremes(graph, state, changed_edges=too_many)
        assert not follow.warm_started
        # One fewer changed edge sits inside the budget and warm-starts.
        ok = warm_spectral_extremes(graph, state, changed_edges=too_many - 1)
        assert ok.warm_started


class TestStationaryTracker:
    """Theorem 1 maintenance: deg/2m, bit-for-bit against the cold path."""

    def test_bit_identical_over_churn(self):
        graph = _big_graph(seed=7)
        tracker = StationaryTracker.from_graph(graph)
        rng = np.random.default_rng(7)
        for t in range(5):
            delta = _churn_delta(graph, rng, t)
            tracker = tracker.apply(delta)
            from repro.graph import apply_delta

            graph = apply_delta(graph, delta)
            assert (
                tracker.distribution().tobytes()
                == stationary_distribution(graph).tobytes()
            )

    def test_apply_returns_new_tracker(self):
        graph = _big_graph()
        tracker = StationaryTracker.from_graph(graph)
        delta = EdgeDelta(1, delete=graph.edges()[:1])
        updated = tracker.apply(delta)
        assert updated is not tracker
        assert tracker.num_edges == graph.num_edges
        assert updated.num_edges == graph.num_edges - 1

    def test_over_deletion_raises(self):
        tracker = StationaryTracker(np.array([1, 1], dtype=np.int64), 1)
        bad = EdgeDelta(1, delete=[(0, 1)] )
        stripped = tracker.apply(bad)  # legal: removes the only edge
        with pytest.raises(ConfigurationError, match="more incident edges"):
            stripped.apply(EdgeDelta(2, delete=[(0, 1)]))

    def test_no_edges_raises(self):
        tracker = StationaryTracker(np.zeros(3, dtype=np.int64), 0)
        with pytest.raises(NotConnectedError, match="no edges"):
            tracker.distribution()

    def test_isolated_node_raises(self):
        tracker = StationaryTracker(np.array([1, 1, 0], dtype=np.int64), 1)
        with pytest.raises(NotConnectedError, match="isolated"):
            tracker.distribution()


class TestTrends:
    def test_slem_trend_matches_per_window_cold(self):
        temporal = _temporal_stream(seed=31, windows=4)
        trend = slem_trend(temporal)
        assert len(trend) == len(temporal.times())
        assert trend.times == temporal.times()
        for i, t in enumerate(trend.times):
            cold = transition_spectrum_extremes(temporal.at(t))
            assert abs(trend.slem[i] - cold.slem) <= WARM_SLEM_ATOL
        assert not trend.warm_started[0]
        assert trend.warm_started[1:].all()

    def test_slem_trend_warm_false_is_all_cold(self):
        temporal = _temporal_stream(seed=31, windows=3)
        trend = slem_trend(temporal, warm=False)
        assert not trend.warm_started.any()

    def test_slem_trend_deterministic(self):
        temporal = _temporal_stream(seed=41, windows=3)
        a = slem_trend(temporal)
        b = slem_trend(temporal)
        assert a.slem.tobytes() == b.slem.tobytes()
        assert a.matvecs.tolist() == b.matvecs.tolist()

    def test_mixing_trend_shapes_and_determinism(self):
        temporal = _temporal_stream(seed=13, windows=3)
        walks = (1, 4, 8)
        a = mixing_trend(temporal, walks, num_sources=6, seed=2)
        b = mixing_trend(temporal, walks, num_sources=6, seed=2)
        T, S, W = len(temporal.times()), 6, len(walks)
        assert a.distances.shape == (T, S, W)
        assert a.worst_case().shape == (T, W)
        assert a.average_case().shape == (T, W)
        assert a.sources == b.sources
        assert a.distances.tobytes() == b.distances.tobytes()
        # TVD is monotone non-increasing in expectation; at least check
        # the worst case never exceeds 1 and the longest walk beats w=1.
        assert (a.distances <= 1.0 + 1e-12).all()
        assert (a.worst_case()[:, -1] <= a.worst_case()[:, 0]).all()

    def test_mixing_trend_fixed_sources_reused(self):
        temporal = _temporal_stream(seed=17, windows=2)
        trend = mixing_trend(temporal, [2, 4], sources=[0, 5, 9])
        assert trend.sources == (0, 5, 9)

    def test_times_validation(self):
        temporal = _temporal_stream(seed=19, windows=2)
        with pytest.raises(ConfigurationError, match="non-empty"):
            slem_trend(temporal, times=[])
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            slem_trend(temporal, times=[10, 10])
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            mixing_trend(temporal, [1, 2], times=[20, 10])
