"""Kernel-identity harness: the operand picks the SpMM kernel.

An in-memory operator steps with scipy's ``block @ csr``; the same
graph opened as a :class:`~repro.graph.storage.MemmapGraph` steps with
the streaming stripe kernel of
:class:`~repro.core.outofcore.StripedTransitionMatrix`.  Every case is
parametrised by ``kernel``: ``"numpy"`` runs on the in-memory graph,
``"streaming"`` on the mapped copy (``save_csr``/``open_csr`` under
``tmp_path``) with a small memory budget so the stripe plan has many
stripes.  Both must give the same bits, through the same gates:

* **Golden suite** — the committed ``tests/data/golden_values.json``
  TVD curves and hitting-time estimates, re-measured per kernel.
* **Serial equivalence** — chunk boundaries, worker pools and pools
  entered from caller threads never change a kernel's answer.
* **Fault tolerance** — checkpointed sweeps resume bit-identically.
* **Operator zoo coverage** — every undirected kind over a mapped
  graph equals its in-memory twin; custom dynamics (teleport,
  dangling) keep their own kernel under a memory budget.

The non-backtracking operator is pinned against a naive dense
edge-walk reference with hypothesis property tests, and the
uniform-start estimator against hard-coded golden values.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecutionPolicy,
    MarkovOperator,
    NonBacktrackingOperator,
    TransitionOperator,
    WeightedTransitionOperator,
    estimate_mixing_time,
    measure_mixing,
    non_backtracking_curves,
    non_backtracking_hitting_times,
    non_backtracking_slem,
)
from repro.core.trust import jaccard_arc_weights
from repro.errors import ConfigurationError
from repro.generators import erdos_renyi_gnm, ring_lattice
from repro.graph import largest_connected_component, open_csr, save_csr
from repro.sybil.routes import arc_sources, reverse_slots

from tests.core.test_golden_values import (
    CURVE_ATOL,
    GOLDEN_SOURCES,
    GOLDEN_WALKS,
    build_golden_graphs,
    load_fixture,
)
from tests.core.test_operators import ALL_KINDS, _er_graph, make_operator

KERNELS = ["numpy", "streaming"]

#: Memory budget of the streaming cases: small enough that the test
#: graphs stream in many stripes.
STREAM_BUDGET = 2048

#: Undirected kinds, which run over a mapped graph as well.  The
#: directed kinds (custom dynamics) have no mapped form.
SEAM_KINDS = ["plain", "lazy", "weighted"]
CUSTOM_KINDS = [
    k
    for k in ALL_KINDS
    if type(make_operator(k))._apply_block is not MarkovOperator._apply_block
]

WALKS = [1, 2, 5, 10, 20]
SOURCES = list(range(24))


@pytest.fixture
def on_kernel(tmp_path):
    """``on_kernel(graph, kernel)``: the graph itself for ``"numpy"``,
    a memory-mapped copy of it for ``"streaming"``."""
    names = itertools.count()

    def convert(graph, kernel):
        if kernel == "numpy":
            return graph
        path = tmp_path / f"g{next(names)}.csr"
        save_csr(graph, path)
        return open_csr(path)

    return convert


def policy_for(kernel: str, **policy_kwargs) -> ExecutionPolicy:
    if kernel == "streaming":
        policy_kwargs.setdefault("memory_budget", STREAM_BUDGET)
    return ExecutionPolicy(**policy_kwargs)


def build_operator(kind: str, graph):
    if kind == "plain":
        return TransitionOperator(graph)
    if kind == "lazy":
        return TransitionOperator(graph, laziness=0.35)
    if kind == "weighted":
        return WeightedTransitionOperator(graph, jaccard_arc_weights(graph))
    raise KeyError(kind)


def _sources_for(op) -> list:
    return SOURCES[: min(len(SOURCES), op._num_states)]


def sweep_curves(on_kernel, kind: str, kernel: str, **policy_kwargs) -> np.ndarray:
    op = build_operator(kind, on_kernel(_er_graph(), kernel))
    policy = policy_for(kernel, **policy_kwargs)
    return op.variation_curves(_sources_for(op), WALKS, policy=policy)


def sweep_hitting(on_kernel, kind: str, kernel: str, **policy_kwargs):
    op = build_operator(kind, on_kernel(_er_graph(), kernel))
    policy = policy_for(kernel, **policy_kwargs)
    return op.hitting_times(_sources_for(op), 0.1, max_steps=500, policy=policy)


def in_memory_curves(kind: str) -> np.ndarray:
    op = build_operator(kind, _er_graph())
    return op.variation_curves(_sources_for(op), WALKS)


# ----------------------------------------------------------------------
# Golden suite under every kernel
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_graphs():
    return build_golden_graphs()


@pytest.fixture(scope="module")
def golden_fixture():
    return load_fixture()


class TestGoldenDifferential:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", ["karate", "petersen", "bridge", "er80"])
    def test_tvd_curves_against_committed_goldens(
        self, golden_graphs, golden_fixture, on_kernel, name, kernel
    ):
        golden = golden_fixture["graphs"][name]["tvd_curves"]
        want = np.asarray(golden["distances"], dtype=np.float64)
        got = measure_mixing(
            on_kernel(golden_graphs[name], kernel),
            golden["walk_lengths"],
            sources=golden["sources"],
            policy=policy_for(kernel),
        ).distances
        worst = np.abs(got - want).max()
        assert worst <= CURVE_ATOL, (
            f"{name}/{kernel}: drifted {worst:.3e} from golden (> {CURVE_ATOL})"
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", ["karate", "petersen", "bridge", "er80"])
    def test_float64_backends_bit_identical_to_oracle(
        self, golden_graphs, on_kernel, name, kernel
    ):
        graph = golden_graphs[name]
        oracle = measure_mixing(graph, GOLDEN_WALKS, sources=GOLDEN_SOURCES)
        got = measure_mixing(
            on_kernel(graph, kernel),
            GOLDEN_WALKS,
            sources=GOLDEN_SOURCES,
            policy=policy_for(kernel),
        )
        assert np.array_equal(got.distances, oracle.distances)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", ["karate", "er80"])
    def test_hitting_estimates_against_goldens(
        self, golden_graphs, golden_fixture, on_kernel, name, kernel
    ):
        golden = golden_fixture["graphs"][name]["estimate"]
        estimate = estimate_mixing_time(
            on_kernel(golden_graphs[name], kernel),
            golden["epsilon"],
            sources=GOLDEN_SOURCES,
            max_steps=500,
            policy=policy_for(kernel),
        )
        want = np.asarray(golden["per_source"], dtype=np.int64)
        assert np.array_equal(estimate.per_source, want)
        assert estimate.walk_length == golden["walk_length"]

    @pytest.mark.parametrize("kernel", ["streaming"])
    @pytest.mark.parametrize("kind", SEAM_KINDS)
    def test_operator_zoo_seam_kinds(self, on_kernel, kind, kernel):
        got = sweep_curves(on_kernel, kind, kernel)
        assert np.array_equal(got, in_memory_curves(kind))

    @pytest.mark.parametrize("kind", CUSTOM_KINDS)
    def test_operator_zoo_custom_kinds_bypass_seam(self, kind):
        # Custom dynamics (teleport, dangling mass) keep their own
        # kernel under a memory budget — bit-identical.
        op = make_operator(kind)
        sources = _sources_for(op)
        oracle = op.variation_curves(sources, WALKS)
        got = op.variation_curves(
            sources, WALKS, policy=ExecutionPolicy(memory_budget=STREAM_BUDGET)
        )
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("kernel", ["streaming"])
    @pytest.mark.parametrize("kind", SEAM_KINDS)
    def test_hitting_times_envelope(self, on_kernel, kind, kernel):
        oracle = sweep_hitting(on_kernel, kind, "numpy")
        got = sweep_hitting(on_kernel, kind, kernel)
        assert np.array_equal(got.times, oracle.times)
        assert np.array_equal(got.final_distances, oracle.final_distances)


# ----------------------------------------------------------------------
# Serial equivalence: the worker count never changes answers
# ----------------------------------------------------------------------
needs_pool = pytest.mark.skipif(
    not __import__("repro.core.parallel", fromlist=["parallel_backend_available"])
    .parallel_backend_available(),
    reason="process pool unavailable",
)


class TestSerialEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_chunk_boundaries_neutral(self, on_kernel, kernel):
        whole = sweep_curves(on_kernel, "plain", kernel)
        chunked = sweep_curves(on_kernel, "plain", kernel, block_size=5)
        assert np.array_equal(whole, chunked)

    @needs_pool
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_process_pool_identity(self, on_kernel, kernel):
        serial = sweep_curves(on_kernel, "plain", kernel)
        pooled = sweep_curves(on_kernel, "plain", kernel, workers=2)
        assert np.array_equal(serial, pooled)

    @needs_pool
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_thread_pool_identity(self, on_kernel, kernel):
        # Two caller threads fan out on the process pool at once, as the
        # threaded HTTP service's request handlers do.
        serial = sweep_curves(on_kernel, "plain", kernel)
        callers = ThreadPoolExecutor(max_workers=2)
        try:
            futures = [
                callers.submit(sweep_curves, on_kernel, "plain", kernel, workers=2)
                for _ in range(2)
            ]
            pooled = [future.result(timeout=120) for future in futures]
        finally:
            callers.shutdown(wait=False)  # a deadlock fails, not hangs, the test
        for got in pooled:
            assert np.array_equal(serial, got)

    @needs_pool
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_process_pool_hitting_identity(self, on_kernel, kernel):
        serial = sweep_hitting(on_kernel, "plain", kernel)
        pooled = sweep_hitting(on_kernel, "plain", kernel, workers=2)
        assert np.array_equal(serial.times, pooled.times)
        assert np.array_equal(serial.final_distances, pooled.final_distances)

    @needs_pool
    @pytest.mark.parametrize("kind", ["weighted", "lazy"])
    def test_process_pool_identity_other_operators(self, on_kernel, kind):
        serial = sweep_curves(on_kernel, kind, "streaming")
        pooled = sweep_curves(on_kernel, kind, "streaming", workers=2)
        assert np.array_equal(serial, pooled)
        assert np.array_equal(serial, in_memory_curves(kind))


# ----------------------------------------------------------------------
# Fault tolerance: checkpoints compose with either kernel
# ----------------------------------------------------------------------
class TestFaultTolerance:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_checkpoint_resume_identity(self, on_kernel, kernel, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first = sweep_curves(on_kernel, "plain", kernel, checkpoint_dir=ckpt, block_size=5)
        # Second run resumes from completed shards — identical output.
        second = sweep_curves(on_kernel, "plain", kernel, checkpoint_dir=ckpt, block_size=5)
        assert np.array_equal(first, second)
        assert np.array_equal(first, in_memory_curves("plain"))


# ----------------------------------------------------------------------
# Uniform-start estimator: pinned values
# ----------------------------------------------------------------------
class TestUniformStart:
    def test_uniform_start_equals_manual_distribution_sweep(self, golden_graphs):
        graph = golden_graphs["er80"]
        op = TransitionOperator(graph)
        uniform = np.full((1, graph.num_nodes), 1.0 / graph.num_nodes)
        manual = op.distribution_variation_curves(uniform, GOLDEN_WALKS)
        measured = measure_mixing(graph, GOLDEN_WALKS, mode="uniform_start")
        assert np.array_equal(measured.distances, manual)
        assert measured.sources.tolist() == [-1]

    def test_uniform_start_pinned_karate(self, golden_graphs):
        # Hard-pinned values: the uniform start on karate at the golden
        # walk checkpoints (deterministic float64 evolution).
        measured = measure_mixing(
            golden_graphs["karate"], [1, 2, 5, 10], mode="uniform_start"
        )
        want = np.array(
            [[0.17748110933664568, 0.13283416326560796,
              0.046782112960445384, 0.009145457865596094]]
        )
        assert np.allclose(measured.distances, want, atol=1e-12, rtol=0.0)

    def test_uniform_start_below_point_mass_worst_case(self, golden_graphs):
        # The uniform start is a convex mixture of point masses, so its
        # TVD curve can never exceed the worst-case point-mass curve.
        graph = golden_graphs["er80"]
        pm = measure_mixing(graph, GOLDEN_WALKS, sources=None)
        us = measure_mixing(graph, GOLDEN_WALKS, mode="uniform_start")
        assert np.all(us.distances[0] <= pm.worst_case() + 1e-15)

    def test_uniform_start_estimate_and_backends(self, golden_graphs, on_kernel):
        graph = golden_graphs["er80"]
        est = estimate_mixing_time(graph, 0.1, mode="uniform_start")
        assert est.sources.tolist() == [-1]
        assert est.per_source.shape == (1,)
        assert est.walk_length >= 0
        again = estimate_mixing_time(
            on_kernel(graph, "streaming"), 0.1, mode="uniform_start",
            policy=policy_for("streaming"),
        )
        assert again.walk_length == est.walk_length

    def test_unknown_mode_rejected(self, golden_graphs):
        with pytest.raises(ConfigurationError, match="unknown measurement mode"):
            measure_mixing(golden_graphs["karate"], [1, 2], mode="warp")
        with pytest.raises(ConfigurationError):
            estimate_mixing_time(golden_graphs["karate"], 0.1, mode="warp")


# ----------------------------------------------------------------------
# Non-backtracking operator: hypothesis vs naive edge-walk reference
# ----------------------------------------------------------------------
def _naive_hashimoto(graph) -> np.ndarray:
    """Dense reference built arc by arc straight from the definition."""
    src = arc_sources(graph)
    dst = graph.indices
    rev = reverse_slots(graph)
    num_slots = src.size
    out = np.zeros((num_slots, num_slots))
    for e in range(num_slots):
        v = int(dst[e])
        slots = list(range(int(graph.indptr[v]), int(graph.indptr[v + 1])))
        allowed = [f for f in slots if f != rev[e]]
        if not allowed:  # leaf: forced backtrack
            allowed = [int(rev[e])]
        for f in allowed:
            out[e, f] = 1.0 / len(allowed)
    return out


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    extra = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    g = erdos_renyi_gnm(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
    g, _ = largest_connected_component(g)
    return g


class TestNonBacktrackingProperties:
    @settings(max_examples=25, deadline=None)
    @given(connected_graphs())
    def test_matrix_matches_naive_reference(self, graph):
        op = NonBacktrackingOperator(graph)
        assert np.array_equal(op._matrix.toarray(), _naive_hashimoto(graph))

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs())
    def test_doubly_stochastic(self, graph):
        m = NonBacktrackingOperator(graph)._matrix
        assert np.allclose(np.asarray(m.sum(axis=1)).ravel(), 1.0)
        assert np.allclose(np.asarray(m.sum(axis=0)).ravel(), 1.0)

    @settings(max_examples=15, deadline=None)
    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_step_matches_dense_walk(self, graph, seed):
        op = NonBacktrackingOperator(graph)
        dense = _naive_hashimoto(graph)
        rng = np.random.default_rng(seed)
        x = rng.random((3, op.num_arcs))
        x /= x.sum(axis=1, keepdims=True)
        for _ in range(3):
            want = x @ dense
            x = op._apply_block(x)
            assert np.allclose(x, want, atol=1e-12, rtol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs())
    def test_uniform_arc_law_projects_to_degree_distribution(self, graph):
        op = NonBacktrackingOperator(graph)
        uniform = np.full((1, op.num_arcs), 1.0 / op.num_arcs)
        node = op.project_to_nodes(uniform)[0]
        assert np.allclose(node, op.node_stationary(), atol=1e-14)
        # Stationarity: one step preserves the uniform arc law.
        stepped = op._apply_block(uniform)
        assert np.allclose(stepped, uniform, atol=1e-14)

    @settings(max_examples=10, deadline=None)
    @given(connected_graphs())
    def test_start_block_rows_are_distributions(self, graph):
        op = NonBacktrackingOperator(graph)
        sources = np.arange(min(5, graph.num_nodes))
        block = op.start_block(sources)
        assert np.allclose(block.sum(axis=1), 1.0)
        assert op.project_to_nodes(block).shape == (sources.size, graph.num_nodes)


class TestNonBacktrackingPinned:
    def test_pinned_karate_curves(self, golden_graphs):
        got = non_backtracking_curves(golden_graphs["karate"], [0, 33], [1, 2, 5, 10])
        want = np.array([
            [0.38727297008547007, 0.2776939567955193,
             0.11634867738398583, 0.03608320964059247],
            [0.4740367475661593, 0.23808821624998094,
             0.1286280040586777, 0.03091567886173582],
        ])
        assert np.allclose(got, want, atol=1e-12, rtol=0.0)

    def test_pinned_karate_hitting_times(self, golden_graphs):
        ht = non_backtracking_hitting_times(
            golden_graphs["karate"], GOLDEN_SOURCES, 0.2, max_steps=500
        )
        assert ht.times.tolist() == [3, 3, 2, 3, 7, 2]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_backends_apply_to_arc_space(self, golden_graphs, on_kernel, kernel):
        graph = golden_graphs["er80"]
        oracle = non_backtracking_curves(graph, GOLDEN_SOURCES, GOLDEN_WALKS)
        got = non_backtracking_curves(
            on_kernel(graph, kernel), GOLDEN_SOURCES, GOLDEN_WALKS,
            policy=policy_for(kernel),
        )
        assert np.array_equal(got, oracle)

    def test_mode_plumbing_through_measure_mixing(self, golden_graphs):
        graph = golden_graphs["er80"]
        direct = non_backtracking_curves(graph, GOLDEN_SOURCES, GOLDEN_WALKS)
        measured = measure_mixing(
            graph, GOLDEN_WALKS, sources=GOLDEN_SOURCES, mode="non_backtracking"
        )
        assert np.array_equal(measured.distances, direct)
        est = estimate_mixing_time(
            graph, 0.2, sources=GOLDEN_SOURCES, max_steps=500,
            mode="non_backtracking",
        )
        direct_ht = non_backtracking_hitting_times(
            graph, GOLDEN_SOURCES, 0.2, max_steps=500
        )
        assert np.array_equal(est.per_source, direct_ht.times)

    def test_laziness_rejected(self, golden_graphs):
        with pytest.raises(ConfigurationError, match="laziness"):
            measure_mixing(
                golden_graphs["karate"], [1, 2],
                mode="non_backtracking", laziness=0.5,
            )

    def test_cycle_never_mixes(self):
        # On a pure cycle the Hashimoto chain is a rotation: nothing
        # converges and the NB SLEM saturates at 1.
        cycle = ring_lattice(12, 2)
        ht = non_backtracking_hitting_times(cycle, [0], 0.2, max_steps=50)
        assert ht.times.tolist() == [-1]
        assert non_backtracking_slem(cycle, method="dense") == pytest.approx(1.0)

    def test_nb_slem_sparse_matches_dense(self, golden_graphs):
        graph = golden_graphs["er80"]
        sparse = non_backtracking_slem(graph)
        dense = non_backtracking_slem(graph, method="dense")
        assert sparse == pytest.approx(dense, abs=1e-6)
        assert 0.0 <= sparse <= 1.0

    def test_nb_beats_simple_walk_on_expander(self, golden_graphs):
        # The acceptance headline in miniature: on the ER golden graph
        # the non-backtracking estimator converges no slower than the
        # simple walk for every golden source.
        graph = golden_graphs["er80"]
        nb = non_backtracking_hitting_times(
            graph, GOLDEN_SOURCES, 0.2, max_steps=500
        )
        sw = TransitionOperator(graph).hitting_times(
            GOLDEN_SOURCES, 0.2, max_steps=500
        )
        assert nb.times.mean() <= sw.times.mean()
