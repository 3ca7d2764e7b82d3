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

import collections
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
from repro.core import operators
from repro.core.operators import HittingTimes
from repro.errors import ConvergenceError
from repro.generators import erdos_renyi_gnm, two_community_bridge
from repro.graph import DiGraph, Graph, largest_connected_component, open_csr, save_csr
from repro.obs import OBS


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

    def test_non_integral_max_steps_rejected(self):
        op = make_operator("plain")
        with pytest.raises(ValueError, match="integer"):
            op.hitting_times([0], 0.1, max_steps=2.5)
        with pytest.raises(ValueError, match="integer"):
            op.distribution_hitting_times(op.point_mass_block([0]), 0.1, max_steps=2.5)

    def test_integral_max_steps_accepted(self):
        op = make_operator("plain")
        base = op.hitting_times([0, 4], 0.1, max_steps=30)
        for steps in (np.int64(30), 30.0):
            got = op.hitting_times([0, 4], 0.1, max_steps=steps)
            assert np.array_equal(got.times, base.times)
            assert np.array_equal(got.final_distances, base.final_distances)


class TestWalkLengthValidation:
    @pytest.mark.parametrize("lengths", [[1.5, 2.7], [0.2, 0.9], [0, 1, 2.5]])
    def test_non_integral_walk_lengths_rejected(self, lengths):
        op = make_operator("plain")
        with pytest.raises(ValueError, match="integers"):
            op.variation_curves([0], lengths)
        with pytest.raises(ValueError, match="integers"):
            op.distribution_variation_curves(op.point_mass_block([0]), lengths)

    def test_non_integral_curve_length_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            make_operator("plain").variation_curve(0, 2.5)

    def test_integral_walk_lengths_accepted(self):
        op = make_operator("plain")
        base = op.variation_curves([0, 3], [1, 2, 5])
        for lengths in (np.array([1, 2, 5], dtype=np.int32), [1.0, 2.0, 5.0]):
            assert np.array_equal(op.variation_curves([0, 3], lengths), base)


# ----------------------------------------------------------------------
# Certified K-step checks on the ε-hitting path
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _bipartite_operator():
    """Non-lazy walk on a bipartite graph: periodic, never mixes."""
    n = 24
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 5) % n) for i in range(0, n, 2)]
    return TransitionOperator(Graph.from_edges(edges, num_nodes=n), check_aperiodic=False)


def _near_stationary(op):
    """A caller reference a little off ``pi``: the checks still apply."""
    rng = np.random.default_rng(11)
    ref = op.stationary() * (1.0 + 1e-4 * rng.random(op.num_states))
    return ref / ref.sum()


def _far_reference(op):
    """A point-mass reference: its drift forces a check at every step."""
    return op.point_mass(0)


def _with_pi_rows(op, sources):
    """Start rows whose first row is ``pi`` itself (below ε at t=0)."""
    return np.vstack([op.stationary(), op.point_mass_block(sources)])


#: name -> (operator factory, run(op, sources, epsilon, max_steps)).
_CHECK_SCENARIOS = {
    **{
        kind: (functools.partial(make_operator, kind), None)
        for kind in ALL_KINDS
    },
    "bipartite": (_bipartite_operator, None),
    "pi-start": (
        functools.partial(make_operator, "plain"),
        lambda op, src, eps, steps: op.distribution_hitting_times(
            _with_pi_rows(op, src), eps, max_steps=steps
        ),
    ),
    "near-reference": (
        functools.partial(make_operator, "lazy"),
        lambda op, src, eps, steps: op.hitting_times(
            src, eps, max_steps=steps, reference=_near_stationary(op)
        ),
    ),
    "far-reference": (
        functools.partial(make_operator, "plain"),
        lambda op, src, eps, steps: op.hitting_times(
            src, eps, max_steps=steps, reference=_far_reference(op)
        ),
    ),
    # No factory: the ``mapped_plain`` fixture's operator, which streams
    # stripes planned for the budget.
    "streaming": (
        None,
        lambda op, src, eps, steps: op.hitting_times(
            src, eps, max_steps=steps, policy=ExecutionPolicy(memory_budget=4096)
        ),
    ),
}


@pytest.fixture(scope="module")
def mapped_plain(tmp_path_factory):
    """The plain walk over ``_er_graph()`` opened memory-mapped."""
    path = tmp_path_factory.mktemp("mapped") / "er.csr"
    save_csr(_er_graph(), path)
    return TransitionOperator(open_csr(path))


def _hitting_with_check_every(every, run, op, sources, epsilon, max_steps):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_CHECK_EVERY", every)
        if run is None:
            return op.hitting_times(sources, epsilon, max_steps=max_steps)
        return run(op, sources, epsilon, max_steps)


class TestCertifiedChecks:
    """Checking the distance every K steps (and replaying the rows that
    may have crossed) is a pure speed transform: any K gives the per-step
    loop's ``HittingTimes``, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_check_interval_never_changes_hitting_times(self, data, mapped_plain):
        name = data.draw(st.sampled_from(sorted(_CHECK_SCENARIOS)), label="scenario")
        make, run = _CHECK_SCENARIOS[name]
        op = mapped_plain if make is None else make()
        sources = data.draw(
            st.lists(st.integers(0, op.num_states - 1), min_size=1, max_size=9),
            label="sources",
        )
        epsilon = data.draw(
            st.sampled_from([0.02, 0.1, 0.25, 0.55]) | st.floats(0.01, 0.9),
            label="epsilon",
        )
        max_steps = data.draw(
            st.sampled_from([0, 1, 2, 3, 5, 9, 13, 200]) | st.integers(0, 60),
            label="max_steps",
        )
        every = data.draw(st.integers(1, 8), label="K")
        want = _hitting_with_check_every(1, run, op, sources, epsilon, max_steps)
        got = _hitting_with_check_every(every, run, op, sources, epsilon, max_steps)
        assert np.array_equal(got.times, want.times), name
        assert np.array_equal(got.final_distances, want.final_distances), name

    def test_pi_row_retires_at_step_zero(self):
        op = make_operator("plain")
        got = op.distribution_hitting_times(_with_pi_rows(op, [0, 5]), 0.1, max_steps=50)
        assert got.times[0] == 0
        assert np.all(got.times[1:] > 0)

    def test_threshold_for_stationary_reference_is_tight(self):
        op = make_operator("plain")
        step = operators._rowless(op._apply_block)
        threshold = operators._replay_threshold(step, op.stationary(), 0.1, 4)
        assert 0.1 < threshold < 0.1 + 1e-9

    def test_far_reference_checks_every_step(self):
        op = make_operator("plain")
        step = operators._rowless(op._apply_block)
        assert operators._replay_threshold(step, _far_reference(op), 0.1, 4) is None

    def test_retirement_events_carry_true_hitting_steps(self):
        op = make_operator("plain")
        was_enabled = OBS.enabled
        OBS.reset()
        OBS.enable()
        try:
            with OBS.span("probe") as span:
                got = op.distribution_hitting_times(
                    op.point_mass_block(np.arange(30)), 0.05, max_steps=200
                )
        finally:
            OBS.disable()
            OBS.reset()
            OBS.enabled = was_enabled
        retired = collections.Counter()
        for event in span.events:
            if event["name"] == "rows_retired":
                retired[event["step"]] += event["retired"]
        assert any(t % operators._CHECK_EVERY for t in got.times)
        assert retired == collections.Counter(int(t) for t in got.times if t > 0)

    def test_checks_cut_distance_reductions(self, monkeypatch):
        """On walks of a few dozen steps the default interval reduces less
        than half the TVD rows a check at every step does."""
        op = make_operator("plain")
        sources = np.arange(op.num_states)
        counts = {}
        reduce = operators.total_variation_to_reference

        def counting(block, reference, **kwargs):
            counts["rows"] = counts.get("rows", 0) + block.shape[0]
            return reduce(block, reference, **kwargs)

        monkeypatch.setattr(operators, "total_variation_to_reference", counting)
        seen = []
        for every in (1, operators._CHECK_EVERY):
            counts.clear()
            monkeypatch.setattr(operators, "_CHECK_EVERY", every)
            seen.append((op.hitting_times(sources, 1e-3, max_steps=500), counts["rows"]))
        (want, per_step), (got, checked) = seen
        assert np.array_equal(got.times, want.times)
        assert 2 * checked < per_step


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
