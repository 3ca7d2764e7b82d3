"""Route-engine kernel contracts: blocked == reference == parallel.

The rewritten route engine (blocked multi-instance advancement, fast
permutation kernel, pool fan-out) promises **bit-for-bit** equality with
the historical per-instance ``np.lexsort`` loop at every seed, block
size and worker count.  This suite pins that promise, plus the edge
cases around block boundaries, the table cache, and isolated nodes.

Parallel comparisons are skipped where the fork + shared-memory backend
is unavailable (the runtime falls back to serial there).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parallel_backend_available
from repro.core.parallel import maybe_parallel_route_hits, maybe_parallel_route_tails
from repro.core.runtime import ExecutionPolicy
from repro.graph import Graph
from repro.sybil import RouteInstances, SybilGuard, SybilLimit, SybilLimitParams, no_attack_scenario
from repro.sybil import routes as routes_module
from repro.sybil.routes import (
    _permutation_order,
    _stable_node_argsort,
    arc_sources,
    lazy_selection_pays,
    resolve_route_block_size,
    reverse_slots,
    select_segment_exits,
)

needs_pool = pytest.mark.skipif(
    not parallel_backend_available(),
    reason="fork + shared-memory backend unavailable; runtime is serial here",
)

LENGTHS = np.asarray([1, 3, 7, 12], dtype=np.int64)


def _nodes(graph):
    return np.arange(graph.num_nodes, dtype=np.int64)


# ----------------------------------------------------------------------
# Blocked serial kernel vs the historical per-instance reference
# ----------------------------------------------------------------------
class TestBlockedEqualsReference:
    @pytest.mark.parametrize("r", [1, 5, 16])
    def test_tails_at_lengths_matches_reference(self, bridge_graph, r):
        ri = RouteInstances(bridge_graph, r, seed=21)
        nodes = _nodes(bridge_graph)
        got = ri.tails_at_lengths(nodes, LENGTHS, seed=2)
        want = ri._tails_at_lengths_reference(nodes, LENGTHS, seed=2)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("block_size", [1, 3, 5, 16, 1000, None])
    def test_block_size_never_changes_output(self, petersen, block_size):
        """Every blocking — including block == r and block > r — is inert."""
        ri = RouteInstances(petersen, 5, seed=8)
        nodes = _nodes(petersen)
        baseline = ri._tails_at_lengths_reference(nodes, LENGTHS, seed=4)
        got = ri.tails_at_lengths(
            nodes, LENGTHS, seed=4, policy=ExecutionPolicy(block_size=block_size)
        )
        assert np.array_equal(got, baseline)

    def test_single_length_checkpoint(self, petersen):
        """A one-element sweep equals both `tails` and the reference."""
        ri = RouteInstances(petersen, 4, seed=13)
        nodes = _nodes(petersen)
        sweep = ri.tails_at_lengths(nodes, [6], seed=5)
        assert sweep.shape == (petersen.num_nodes, 4, 1)
        assert np.array_equal(sweep[:, :, 0], ri.tails(nodes, 6, seed=5))
        assert np.array_equal(
            sweep, ri._tails_at_lengths_reference(nodes, [6], seed=5)
        )

    def test_tails_contiguous(self, petersen):
        ri = RouteInstances(petersen, 3, seed=1)
        assert ri.tails(_nodes(petersen), 4, seed=0).flags["C_CONTIGUOUS"]

    def test_fast_table_build_matches_lexsort(self, er_medium):
        ri = RouteInstances(er_medium, 6, seed=33)
        for i in range(ri.num_instances):
            assert np.array_equal(
                ri.single_instance(i), ri._build_instance_reference(i)
            )


class TestTableCache:
    def test_cache_tables_false_regenerates_identically(self, bridge_graph):
        cold = RouteInstances(bridge_graph, 4, seed=17, cache_tables=False)
        warm = RouteInstances(bridge_graph, 4, seed=17, cache_tables=True)
        nodes = _nodes(bridge_graph)
        first = cold.tails_at_lengths(nodes, LENGTHS, seed=3)
        assert np.array_equal(first, warm.tails_at_lengths(nodes, LENGTHS, seed=3))
        # Tables were not retained, yet every rebuild is byte-identical.
        assert cold._cache == {}
        assert np.array_equal(cold.single_instance(2), warm.single_instance(2))
        assert 2 not in cold._cache and 2 in warm._cache

    def test_memoised_arc_helpers_are_shared_and_readonly(self, petersen):
        src = arc_sources(petersen)
        rev = reverse_slots(petersen)
        assert arc_sources(petersen) is src
        assert reverse_slots(petersen) is rev
        assert not src.flags.writeable and not rev.flags.writeable
        with pytest.raises(ValueError):
            src[0] = 99


class TestEdgeCases:
    def test_isolated_node_raises_under_blocked_path(self):
        graph = Graph.from_edges([(0, 1), (1, 2)], num_nodes=4)  # node 3 isolated
        ri = RouteInstances(graph, 3, seed=2)
        with pytest.raises(ValueError, match="isolated"):
            ri.tails_at_lengths(np.arange(4), LENGTHS, seed=1)
        # Routes from non-isolated nodes still work.
        ri.tails_at_lengths(np.arange(3), LENGTHS, seed=1)

    def test_length_validation(self, petersen):
        ri = RouteInstances(petersen, 2, seed=3)
        nodes = _nodes(petersen)
        for bad in ([], [0], [3, 3], [5, 2]):
            with pytest.raises(ValueError):
                ri.tails_at_lengths(nodes, bad, seed=0)
        with pytest.raises(ValueError):
            ri.tails(nodes, 0, seed=0)

    def test_resolve_route_block_size(self):
        # Budget-driven default, clamped to the instance count.
        assert resolve_route_block_size(10, 4) == 4
        assert resolve_route_block_size(94_942, 654) == 44
        assert resolve_route_block_size(10, 654, 7) == 7
        assert resolve_route_block_size(10, 3, 7) == 3
        for bad in (0, -1, 2.5):
            with pytest.raises((ValueError, TypeError)):
                resolve_route_block_size(10, 4, bad)


# ----------------------------------------------------------------------
# Exact lexsort replacement
# ----------------------------------------------------------------------
class TestPermutationKernel:
    @given(
        n=st.integers(min_value=1, max_value=50),
        dup=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_lexsort(self, n, dup, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 20))
        src = np.sort(rng.integers(0, num_nodes, size=n)).astype(np.int64)
        keys = rng.random(n)
        if dup and n > 1:  # force ties to exercise the stable fallback
            keys[rng.integers(0, n)] = keys[0]
        got = _permutation_order(keys, src, num_nodes)
        assert np.array_equal(got, np.lexsort((keys, src)))

    def test_stable_node_argsort_wide_range(self):
        """> 2**16 node ids exercises the multi-pass LSD radix branch."""
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, 200_000, size=5000).astype(np.int64)
        got = _stable_node_argsort(nodes, 200_000)
        assert np.array_equal(got, np.argsort(nodes, kind="stable"))

    def test_stable_node_argsort_narrow_range(self):
        rng = np.random.default_rng(1)
        nodes = rng.integers(0, 50, size=4000).astype(np.int64)
        got = _stable_node_argsort(nodes, 50)
        assert np.array_equal(got, np.argsort(nodes, kind="stable"))


# ----------------------------------------------------------------------
# Lazy route selection == full tables == reference
# ----------------------------------------------------------------------
ADMISSION_LENGTHS = ([1], [10], [1, 3, 7, 12])


def _forced(monkeypatch, path):
    """Pin the cost model's choice: ``"lazy"`` always, ``"full"`` never."""
    fraction = float("inf") if path == "lazy" else 0.0
    monkeypatch.setattr(routes_module, "LAZY_WORK_FRACTION", fraction)


class TestLazySelection:
    @pytest.mark.parametrize("num_nodes", [1, 2, 5, 9])
    @pytest.mark.parametrize("lengths", ADMISSION_LENGTHS)
    @pytest.mark.parametrize("block_size", [None, 1, 4, 7])
    def test_lazy_equals_full_equals_reference(
        self, er_medium, monkeypatch, num_nodes, lengths, block_size
    ):
        """Admission shapes: a few suspects, short routes, many instances."""
        ri = RouteInstances(er_medium, 11, seed=23)
        nodes = np.random.default_rng(num_nodes).choice(
            er_medium.num_nodes, num_nodes, replace=False
        )
        policy = ExecutionPolicy(block_size=block_size)
        reference = ri._tails_at_lengths_reference(nodes, lengths, seed=8)
        for path in ("lazy", "full"):
            _forced(monkeypatch, path)
            got = ri.tails_at_lengths(nodes, lengths, seed=8, policy=policy)
            assert np.array_equal(got, reference), path

    def test_partial_table_cache_on_either_path(self, bridge_graph, monkeypatch):
        """Full tables reuse the cached instances; lazy selection ignores them."""
        ri = RouteInstances(bridge_graph, 6, seed=4)
        for i in (1, 4):
            ri.single_instance(i)
        nodes = np.asarray([0, 7, 150], dtype=np.int64)
        reference = ri._tails_at_lengths_reference(nodes, LENGTHS, seed=2)
        for path in ("lazy", "full"):
            _forced(monkeypatch, path)
            assert np.array_equal(ri.tails_at_lengths(nodes, LENGTHS, seed=2), reference)

    @needs_pool
    @pytest.mark.parametrize("lengths", ADMISSION_LENGTHS)
    def test_lazy_pool_equals_reference(self, er_medium, lengths):
        ri = RouteInstances(er_medium, 9, seed=37)
        nodes = np.asarray([3, 40, 41, 200], dtype=np.int64)
        reference = ri._tails_at_lengths_reference(nodes, lengths, seed=1)
        got = ri.tails_at_lengths(
            nodes, lengths, seed=1, policy=ExecutionPolicy(workers=2, block_size=2)
        )
        assert np.array_equal(got, reference)

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        ties=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_selection_matches_lexsort(self, seed, ties):
        """Forced key ties take the exact fallback; the exits still equal
        the full ``np.lexsort`` table's, ties broken by slot index."""
        rng = np.random.default_rng(seed)
        graph = Graph.from_edges(
            rng.integers(0, 12, size=(30, 2)).tolist(), num_nodes=12
        )
        if graph.num_edges == 0:
            return
        src, rev = arc_sources(graph), reverse_slots(graph)
        instances = 3
        keys = rng.random((instances, src.size))
        # Coarse keys collide within segments; copied keys collide exactly.
        keys[:, : ties % src.size] = np.floor(keys[:, : ties % src.size] * 3) / 3
        keys[rng.integers(instances), rng.integers(src.size)] = keys[0, 0]
        arcs = rng.integers(0, src.size, size=(instances, 5))
        key_offsets = np.repeat(np.arange(instances) * src.size, 5)
        got, sorted_slots = select_segment_exits(
            arcs.ravel(), key_offsets, keys.ravel(), src, rev, graph.indptr.astype(np.int64)
        )
        for i in range(instances):
            table = np.lexsort((keys[i], src))[rev]
            assert np.array_equal(got.reshape(instances, 5)[i], table[arcs[i]])
        assert sorted_slots == int(graph.degrees[graph.indices[arcs]].sum())


class TestLazyCostModel:
    """The decision, not the timing, on physics1 at SybilLimit's own
    r = r0·√m: Figure 8's all-node sweeps keep full tables, and the
    service's admission (verifier + 8 suspects, w = 10) selects lazily."""

    @pytest.fixture
    def physics1_shape(self):
        from repro.datasets import load_cached

        graph = load_cached("physics1")
        deg = graph.degrees.astype(np.int64)
        r = SybilLimitParams(route_length=10).resolve_instances(graph.num_edges)
        return graph.num_nodes, r, float(deg @ deg) / deg.sum(), int(deg.sum())

    def test_figure8_all_node_sweep_builds_tables(self, physics1_shape):
        n, r, visited, slots = physics1_shape
        for max_len in (10, 40, 320):
            assert not lazy_selection_pays(r * n, max_len - 1, visited, slots, r)

    def test_admission_shape_selects_lazily(self, physics1_shape):
        _, r, visited, slots = physics1_shape
        assert lazy_selection_pays(r * 9, 9, visited, slots, r)

    def test_cached_tables_are_never_rebuilt_lazily(self, physics1_shape):
        _, r, visited, slots = physics1_shape
        assert not lazy_selection_pays(r * 9, 9, visited, slots, 0)


# ----------------------------------------------------------------------
# Pool fan-out == serial, bit-for-bit
# ----------------------------------------------------------------------
class TestParallelRoutes:
    def test_workers_none_or_one_is_serial(self, petersen):
        ri = RouteInstances(petersen, 3, seed=5)
        starts = np.tile(petersen.indptr[:-1], (3, 1)).astype(np.int64)
        for workers in (None, 0, 1):
            assert (
                maybe_parallel_route_tails(
                    ri, starts, LENGTHS, policy=ExecutionPolicy(workers=workers)
                )
                is None
            )

    @needs_pool
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_tails_bit_equal(self, bridge_graph, workers):
        ri = RouteInstances(bridge_graph, 9, seed=29)
        nodes = _nodes(bridge_graph)
        serial = ri.tails_at_lengths(nodes, LENGTHS, seed=6)
        parallel = ri.tails_at_lengths(
            nodes, LENGTHS, seed=6, policy=ExecutionPolicy(workers=workers)
        )
        assert np.array_equal(serial, parallel)

    @needs_pool
    def test_parallel_tails_with_block_size(self, petersen):
        ri = RouteInstances(petersen, 7, seed=31)
        nodes = _nodes(petersen)
        serial = ri.tails_at_lengths(nodes, LENGTHS, seed=7, policy=ExecutionPolicy(block_size=2))
        parallel = ri.tails_at_lengths(
            nodes, LENGTHS, seed=7, policy=ExecutionPolicy(workers=2, block_size=2)
        )
        assert np.array_equal(serial, parallel)

    @needs_pool
    def test_parallel_route_hits_bit_equal(self, bridge_graph):
        ri = RouteInstances(bridge_graph, 1, seed=3)
        table = ri.single_instance(0)
        src = arc_sources(bridge_graph)
        mask = np.zeros(bridge_graph.num_nodes, dtype=bool)
        mask[::7] = True
        from repro.sybil.sybilguard import route_hit_scan

        serial = route_hit_scan(
            table, bridge_graph.indices, src, mask, 0, table.size, 9
        )
        parallel = maybe_parallel_route_hits(
            table, bridge_graph.indices, src, mask, 9, policy=ExecutionPolicy(workers=2)
        )
        assert parallel is not None
        assert np.array_equal(serial, parallel)


class TestParallelProtocols:
    @needs_pool
    def test_sybilguard_workers_bit_equal(self, bridge_graph):
        scenario = no_attack_scenario(bridge_graph)
        guard = SybilGuard(scenario, 12, seed=41)
        serial = guard.run(0)
        parallel = guard.run(0, policy=ExecutionPolicy(workers=2))
        assert np.array_equal(serial.accepted, parallel.accepted)
        assert np.array_equal(serial.suspects, parallel.suspects)

    @needs_pool
    def test_sybillimit_sweep_workers_bit_equal(self, bridge_graph):
        scenario = no_attack_scenario(bridge_graph)
        protocol = SybilLimit(
            scenario, SybilLimitParams(route_length=10), seed=43
        )
        walks = [2, 5, 10]
        serial = protocol.admission_sweep(0, walks, seed=9)
        parallel = protocol.admission_sweep(0, walks, seed=9, policy=ExecutionPolicy(workers=2))
        for a, b in zip(serial, parallel):
            assert a.route_length == b.route_length
            assert np.array_equal(a.accepted, b.accepted)
            assert np.array_equal(a.intersected, b.intersected)
