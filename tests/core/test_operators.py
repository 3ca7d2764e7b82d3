"""Tests for the unified Markov-operator layer (`repro.core.operators`).

Two families:

* **Property tests** (hypothesis): the block API is a pure speed
  transform — ``step_block`` on an ``(s, n)`` block must equal ``s``
  sequential ``step`` calls *bit-for-bit*, for every operator flavour
  (plain, lazy, directed pure, directed teleporting, weighted), and the
  chunked batch measurements must be invariant to ``block_size``
  (including the boundary chunkings 1, s−1 and s).
* **Regression tests** for the historical validation drift: all three
  operator classes now share one shape/probability gate, one cached
  ``stationary()``, and one evolution code path.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_BLOCK_BYTES,
    DirectedTransitionOperator,
    ExecutionPolicy,
    MarkovOperator,
    TransitionOperator,
    WeightedTransitionOperator,
    jaccard_arc_weights,
    measure_mixing,
    mixing_time_from_source,
    resolve_block_size,
    total_variation_distance,
    total_variation_to_reference,
)
from repro.core.operators import HittingTimes
from repro.errors import ConvergenceError
from repro.generators import erdos_renyi_gnm, two_community_bridge
from repro.graph import DiGraph, largest_connected_component


# ----------------------------------------------------------------------
# Shared operator zoo (graphs are immutable; operators are stateless
# apart from the stationary cache, so module-level sharing is safe).
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _er_graph():
    g = erdos_renyi_gnm(90, 330, seed=5)
    g, _ = largest_connected_component(g)
    return g


@functools.lru_cache(maxsize=None)
def _digraph():
    n = 40
    arcs = [(i, (i + 1) % n) for i in range(n)]
    arcs += [(i, (i + 2) % n) for i in range(n)]
    arcs += [(i, (i + 9) % n) for i in range(n)]
    return DiGraph.from_edges(arcs)


@functools.lru_cache(maxsize=None)
def _dangling_digraph():
    # Node 4 has no out-arcs: exercises the dangling-teleport branch.
    return DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4)])


@functools.lru_cache(maxsize=None)
def make_operator(kind: str) -> MarkovOperator:
    if kind == "plain":
        return TransitionOperator(_er_graph())
    if kind == "lazy":
        return TransitionOperator(_er_graph(), laziness=0.35)
    if kind == "directed":
        return DirectedTransitionOperator(_digraph())
    if kind == "teleport":
        return DirectedTransitionOperator(_digraph(), damping=0.85)
    if kind == "dangling":
        return DirectedTransitionOperator(_dangling_digraph(), damping=0.9)
    if kind == "weighted":
        g = _er_graph()
        return WeightedTransitionOperator(g, jaccard_arc_weights(g))
    raise KeyError(kind)


ALL_KINDS = ["plain", "lazy", "directed", "teleport", "dangling", "weighted"]


# ----------------------------------------------------------------------
# Property: block evolution == sequential evolution, bit-for-bit
# ----------------------------------------------------------------------
class TestBlockEqualsSequential:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_step_block_matches_sequential_steps(self, kind, data):
        op = make_operator(kind)
        n = op.num_states
        sources = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=7), label="sources"
        )
        steps = data.draw(st.integers(0, 5), label="steps")
        block = op.point_mass_block(sources)
        for _ in range(steps):
            block = op.step_block(block)
        for i, src in enumerate(sources):
            x = op.point_mass(src)
            for _ in range(steps):
                x = op.step(x)
            assert np.array_equal(block[i], x), (
                f"{kind}: block row {i} diverged from sequential evolution"
            )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_evolve_block_matches_evolve(self, kind):
        op = make_operator(kind)
        sources = [0, 1, 2, 0]
        block = op.evolve_block(op.point_mass_block(sources), 6)
        for i, src in enumerate(sources):
            assert np.array_equal(block[i], op.evolve(op.point_mass(src), 6))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("block_size", [1, None, "s-1", "s"])
    def test_variation_curves_invariant_to_chunking(self, kind, block_size):
        """Chunk boundaries (1, s−1, s, auto) never change the numbers."""
        op = make_operator(kind)
        sources = np.arange(6) % op.num_states
        walks = [0, 1, 3, 7]
        if block_size == "s-1":
            block_size = sources.size - 1
        elif block_size == "s":
            block_size = sources.size
        got = op.variation_curves(sources, walks, policy=ExecutionPolicy(block_size=block_size))
        want = np.stack(
            [op.variation_curve(int(s), 7)[walks] for s in sources]
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("block_size", [1, 2, 3, None])
    def test_hitting_times_invariant_to_chunking(self, block_size):
        op = make_operator("plain")
        sources = [0, 1, 2, 3]
        base = op.hitting_times(sources, 0.1, max_steps=500)
        got = op.hitting_times(
            sources, 0.1, max_steps=500, policy=ExecutionPolicy(block_size=block_size)
        )
        assert np.array_equal(base.times, got.times)
        assert np.array_equal(base.final_distances, got.final_distances)

    def test_lazy_operator_block_at_chunk_boundaries(self):
        """The ISSUE's explicit case: laziness > 0 with s ∈ {1, s−1, s}."""
        op = make_operator("lazy")
        sources = [3, 1, 4, 1, 5]
        for bs in (1, len(sources) - 1, len(sources)):
            got = op.variation_curves(sources, [2, 5], policy=ExecutionPolicy(block_size=bs))
            want = np.stack([op.variation_curve(s, 5)[[2, 5]] for s in sources])
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Point-mass blocks
# ----------------------------------------------------------------------
class TestPointMassBlock:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_stacked_point_masses(self, kind):
        op = make_operator(kind)
        sources = [0, 2, 1, 2]
        block = op.point_mass_block(sources)
        assert block.shape == (4, op.num_states)
        for i, src in enumerate(sources):
            assert np.array_equal(block[i], op.point_mass(src))

    def test_rejects_empty_and_out_of_range(self):
        op = make_operator("plain")
        with pytest.raises(ValueError):
            op.point_mass_block([])
        with pytest.raises(IndexError):
            op.point_mass_block([0, op.num_states])
        with pytest.raises(IndexError):
            op.point_mass_block([-1])


# ----------------------------------------------------------------------
# Unified validation (regression for the historical drift)
# ----------------------------------------------------------------------
class TestUnifiedValidation:
    """Pre-refactor, the directed/weighted operators accepted inputs the
    undirected one rejected (and vice versa).  Now all three share the
    base-class gates; these tests pin the contract for each class."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_step_rejects_wrong_length(self, kind):
        op = make_operator(kind)
        with pytest.raises(ValueError, match="shape"):
            op.step(np.ones(op.num_states + 1))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_step_rejects_2d_input(self, kind):
        op = make_operator(kind)
        with pytest.raises(ValueError, match="shape"):
            op.step(op.point_mass_block([0, 1]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_step_block_rejects_1d_input(self, kind):
        op = make_operator(kind)
        with pytest.raises(ValueError, match="shape"):
            op.step_block(op.point_mass(0))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_step_block_rejects_wrong_width(self, kind):
        op = make_operator(kind)
        with pytest.raises(ValueError, match="shape"):
            op.step_block(np.ones((2, op.num_states + 3)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_evolve_rejects_negative_steps(self, kind):
        op = make_operator(kind)
        with pytest.raises(ValueError, match="nonnegative"):
            op.evolve(op.point_mass(0), -1)
        with pytest.raises(ValueError, match="nonnegative"):
            op.evolve_block(op.point_mass_block([0]), -2)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_evolve_validates_probability_vector(self, kind):
        op = make_operator(kind)
        not_a_distribution = np.full(op.num_states, 0.5)
        with pytest.raises(ValueError, match="sum"):
            op.evolve(not_a_distribution, 1)
        # validate=False admits arbitrary vectors (linear operator).
        out = op.evolve(not_a_distribution, 1, validate=False)
        assert out.shape == (op.num_states,)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_trajectory_available_on_all_operators(self, kind):
        """`trajectory` used to exist only on the undirected operator."""
        op = make_operator(kind)
        traj = op.trajectory(op.point_mass(0), 3)
        assert traj.shape == (4, op.num_states)
        assert np.array_equal(traj[3], op.evolve(op.point_mass(0), 3))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_variation_curve_rejects_negative(self, kind):
        op = make_operator(kind)
        with pytest.raises(ValueError):
            op.variation_curve(0, -1)


# ----------------------------------------------------------------------
# Stationary caching
# ----------------------------------------------------------------------
class TestStationaryCache:
    @pytest.mark.parametrize("kind", ["plain", "lazy", "weighted"])
    def test_memoised_and_read_only(self, kind):
        op = make_operator(kind)
        pi = op.stationary()
        assert op.stationary() is pi  # cached, not recomputed
        with pytest.raises(ValueError):
            pi[0] = 0.5  # cache cannot be corrupted through the reference

    def test_directed_power_iteration_runs_once(self, monkeypatch):
        calls = []
        original = DirectedTransitionOperator._power_stationary

        def spy(self, **kwargs):
            calls.append(kwargs)
            return original(self, **kwargs)

        monkeypatch.setattr(DirectedTransitionOperator, "_power_stationary", spy)
        op = DirectedTransitionOperator(_digraph())
        pi = op.stationary()
        assert op.stationary() is pi
        op.variation_curve(0, 3)
        op.hitting_times([0, 1], 0.5, max_steps=10)
        assert len(calls) == 1  # memoised across every measurement entry point

    def test_directed_cache_is_per_parameterisation(self):
        op = DirectedTransitionOperator(_digraph())
        a = op.stationary()
        b = op.stationary(tol=1e-10, max_iter=50_000)
        assert np.allclose(a, b, atol=1e-9)
        assert op.stationary(tol=1e-10, max_iter=50_000) is b


# ----------------------------------------------------------------------
# Hitting times (early-exit masking)
# ----------------------------------------------------------------------
class TestHittingTimes:
    def test_matches_manual_per_source_loop(self):
        op = make_operator("plain")
        pi = op.stationary()
        sources = [0, 3, 7]
        result = op.hitting_times(sources, 0.1, max_steps=400)
        assert isinstance(result, HittingTimes)
        for i, src in enumerate(sources):
            x = op.point_mass(src)
            expected = -1
            for t in range(401):
                if total_variation_distance(x, pi, validate=False) < 0.1:
                    expected = t
                    break
                x = op.step(x)
            assert result.times[i] == expected

    def test_agrees_with_mixing_time_from_source(self):
        op = make_operator("plain")
        result = op.hitting_times([0, 5], 0.15, max_steps=500)
        for i, src in enumerate([0, 5]):
            assert result.times[i] == mixing_time_from_source(op, src, 0.15, max_steps=500)

    def test_unconverged_rows_get_minus_one(self):
        g, _ = two_community_bridge(40, 6, 1, seed=2)
        op = TransitionOperator(g)
        result = op.hitting_times([0, 1], 1e-6, max_steps=3)
        assert np.all(result.times == -1)
        assert np.all(result.final_distances >= 1e-6)

    def test_epsilon_validation(self):
        op = make_operator("plain")
        with pytest.raises(ValueError):
            op.hitting_times([0], 0.0)
        with pytest.raises(ValueError):
            op.hitting_times([0], 1.5)

    def test_mixing_time_from_source_error_carries_distance(self):
        g, _ = two_community_bridge(40, 6, 1, seed=2)
        op = TransitionOperator(g)
        with pytest.raises(ConvergenceError) as err:
            mixing_time_from_source(op, 0, 1e-5, max_steps=3)
        assert err.value.partial is not None
        assert err.value.partial >= 1e-5


# ----------------------------------------------------------------------
# Batched distance + block sizing helpers
# ----------------------------------------------------------------------
class TestBatchedDistance:
    def test_rows_match_scalar_tvd(self):
        rng = np.random.default_rng(3)
        block = rng.dirichlet(np.ones(30), size=6)
        ref = rng.dirichlet(np.ones(30))
        out = total_variation_to_reference(block, ref, validate=False)
        for i in range(6):
            assert out[i] == total_variation_distance(block[i], ref, validate=False)

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            total_variation_to_reference(np.ones(4) / 4, np.ones(4) / 4)
        with pytest.raises(ValueError, match="column"):
            total_variation_to_reference(
                np.ones((2, 4)) / 4, np.ones(5) / 5, validate=False
            )
        with pytest.raises(ValueError):
            total_variation_to_reference(np.ones((2, 4)), np.ones(4) / 4)


class TestResolveBlockSize:
    def test_explicit_wins(self):
        assert resolve_block_size(10_000, 7) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_block_size(100, 0)
        with pytest.raises(ValueError):
            resolve_block_size(100, block_size=None, memory_budget_bytes=0)

    def test_budget_sizing(self):
        # 1000 states * 8 bytes = 8 kB per row; 80 kB budget → 10 rows.
        assert resolve_block_size(1000, None, memory_budget_bytes=80_000) == 10
        # Tiny budget floors at one row.
        assert resolve_block_size(10**9, None) == 1
        # Small graphs cap at 1024 rows regardless of budget.
        assert resolve_block_size(10, None, memory_budget_bytes=DEFAULT_BLOCK_BYTES) == 1024

    @pytest.mark.parametrize("bad_states", [0, -1, -100])
    def test_rejects_degenerate_state_counts(self, bad_states):
        """A chain with no states has no rows to chunk — fail loudly
        instead of emitting a zero-row block shape."""
        with pytest.raises(ValueError):
            resolve_block_size(bad_states, None)
        with pytest.raises(ValueError):
            resolve_block_size(bad_states, 4)

    def test_rejects_non_integral_override(self):
        with pytest.raises(ValueError):
            resolve_block_size(100, 2.5)

    def test_integral_float_override_accepted(self):
        # np.int64 / integral floats normalise; only true fractions raise.
        assert resolve_block_size(100, 8.0) == 8
        assert resolve_block_size(100, np.int64(8)) == 8

    @pytest.mark.parametrize("bad", [-1, -7])
    def test_rejects_negative_override(self, bad):
        with pytest.raises(ValueError):
            resolve_block_size(100, bad)

    def test_budget_smaller_than_one_row_clamps_to_one(self):
        # One row needs 8*n bytes; any positive budget below that still
        # yields a single-row chunk, never zero.
        assert resolve_block_size(1000, None, memory_budget_bytes=1) == 1
        assert resolve_block_size(1000, None, memory_budget_bytes=7999) == 1


# ----------------------------------------------------------------------
# Integration: measure_mixing block_size pass-through
# ----------------------------------------------------------------------
class TestMeasureMixingBlockSize:
    def test_block_size_does_not_change_results(self):
        g = _er_graph()
        base = measure_mixing(g, [1, 4, 9], sources=12, seed=8)
        for bs in (1, 5, 12, 64):
            m = measure_mixing(
                g, [1, 4, 9], sources=12, seed=8, policy=ExecutionPolicy(block_size=bs)
            )
            assert np.array_equal(m.distances, base.distances)
