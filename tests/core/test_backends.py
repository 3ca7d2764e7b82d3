"""Differential-testing harness for the SpMM backend seam.

Every registered backend is driven through the same gates:

* **Golden suite** — the committed ``tests/data/golden_values.json``
  TVD curves and hitting-time estimates, re-measured under each
  backend.  Float64 backends must be *bit-for-bit* the numpy oracle
  (and hence match the goldens at ``CURVE_ATOL``); ``float32`` must
  stay inside the pinned envelope (``FLOAT32_CURVE_ATOL`` on curves,
  ``FLOAT32_TIME_SLACK`` steps on hitting times).
* **Serial equivalence** — workers 1 vs 2, processes vs threads, chunk
  boundaries: execution shape never changes a backend's answer.
* **Fault tolerance** — checkpointed sweeps resume under float64
  backends (shared fingerprints) and never serve float64 shards to a
  float32 sweep (disjoint fingerprints).
* **Operator zoo coverage** — operators with custom dynamics
  (teleport, dangling) bypass the seam by contract and are asserted
  bit-identical under *every* backend.

The non-backtracking operator is pinned against a naive dense
edge-walk reference with hypothesis property tests, and the
uniform-start estimator against hard-coded golden values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.backends as backends_mod
from repro.core import (
    DEFAULT_BACKEND,
    FLOAT32_CURVE_ATOL,
    FLOAT32_TIME_SLACK,
    ExecutionPolicy,
    MarkovOperator,
    NonBacktrackingOperator,
    SpmmBackend,
    TransitionOperator,
    available_backends,
    backend_numeric,
    estimate_mixing_time,
    get_backend,
    measure_mixing,
    non_backtracking_curves,
    non_backtracking_hitting_times,
    non_backtracking_slem,
    register_backend,
    validate_backend,
)
from repro.errors import ConfigurationError
from repro.generators import erdos_renyi_gnm, ring_lattice
from repro.graph import largest_connected_component
from repro.sybil.routes import arc_sources, reverse_slots

from tests.core.test_golden_values import (
    CURVE_ATOL,
    GOLDEN_SOURCES,
    GOLDEN_WALKS,
    build_golden_graphs,
    load_fixture,
)
from tests.core.test_operators import ALL_KINDS, make_operator

ALL_BACKENDS = list(available_backends())
FLOAT64_BACKENDS = [b for b in ALL_BACKENDS if backend_numeric(b) == "float64"]
NON_DEFAULT_BACKENDS = [b for b in ALL_BACKENDS if b != DEFAULT_BACKEND]

#: Operator kinds whose step is a plain ``X @ P`` over ``_matrix`` —
#: the kinds the backend seam actually rewires.  Custom-dynamics kinds
#: (directed teleport/dangling) fall back to their own kernel.
SEAM_KINDS = [
    k
    for k in ALL_KINDS
    if type(make_operator(k))._apply_block is MarkovOperator._apply_block
]
CUSTOM_KINDS = [k for k in ALL_KINDS if k not in SEAM_KINDS]

WALKS = [1, 2, 5, 10, 20]
SOURCES = list(range(24))


def _sources_for(op) -> list:
    return SOURCES[: min(len(SOURCES), op._num_states)]


def sweep_curves(kind: str, backend: str, **policy_kwargs) -> np.ndarray:
    op = make_operator(kind)
    policy = ExecutionPolicy(backend=backend, **policy_kwargs)
    return op.variation_curves(_sources_for(op), WALKS, policy=policy)


def sweep_hitting(kind: str, backend: str, **policy_kwargs):
    op = make_operator(kind)
    policy = ExecutionPolicy(backend=backend, **policy_kwargs)
    return op.hitting_times(_sources_for(op), 0.1, max_steps=500, policy=policy)


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert DEFAULT_BACKEND == "numpy"
        assert set(ALL_BACKENDS) >= {"numpy", "float32", "streaming"}

    def test_numerics(self):
        assert backend_numeric("numpy") == "float64"
        assert backend_numeric("streaming") == "float64"
        assert backend_numeric("float32") == "float32"

    def test_get_backend_unknown_raises_with_listing(self):
        with pytest.raises(ConfigurationError, match="numpy"):
            get_backend("does-not-exist")

    def test_validate_backend_rejects_non_strings(self):
        with pytest.raises(ConfigurationError):
            validate_backend(42)

    def test_register_rejects_duplicates_and_bad_numeric(self):
        numpy_backend = get_backend("numpy")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(numpy_backend)
        with pytest.raises(ConfigurationError):
            register_backend(
                SpmmBackend(
                    name="bad-numeric",
                    numeric="float16",
                    factory=numpy_backend.factory,
                    description="",
                )
            )
        with pytest.raises(ConfigurationError):
            register_backend("not a backend")

    def test_register_and_replace_roundtrip(self):
        numpy_backend = get_backend("numpy")
        probe = SpmmBackend(
            name="_harness_probe",
            numeric="float64",
            factory=numpy_backend.factory,
            description="test-only clone of numpy",
        )
        try:
            register_backend(probe)
            assert "_harness_probe" in available_backends()
            # replace=True allows re-registration under the same name.
            register_backend(probe, replace=True)
            op = make_operator("plain")
            got = op.variation_curves(
                SOURCES, WALKS, policy=ExecutionPolicy(backend="_harness_probe")
            )
            want = op.variation_curves(SOURCES, WALKS)
            assert np.array_equal(got, want)
        finally:
            backends_mod._REGISTRY.pop("_harness_probe", None)

    def test_policy_accepts_registered_rejects_unknown(self):
        for name in ALL_BACKENDS:
            assert ExecutionPolicy(backend=name).backend == name
        with pytest.raises(ConfigurationError, match="unknown SpMM backend"):
            ExecutionPolicy(backend="bogus")


# ----------------------------------------------------------------------
# Golden suite under every backend
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_graphs():
    return build_golden_graphs()


@pytest.fixture(scope="module")
def golden_fixture():
    return load_fixture()


class TestGoldenDifferential:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("name", ["karate", "petersen", "bridge", "er80"])
    def test_tvd_curves_against_committed_goldens(
        self, golden_graphs, golden_fixture, name, backend
    ):
        golden = golden_fixture["graphs"][name]["tvd_curves"]
        want = np.asarray(golden["distances"], dtype=np.float64)
        got = measure_mixing(
            golden_graphs[name],
            golden["walk_lengths"],
            sources=golden["sources"],
            policy=ExecutionPolicy(backend=backend),
        ).distances
        atol = (
            CURVE_ATOL
            if backend_numeric(backend) == "float64"
            else FLOAT32_CURVE_ATOL
        )
        worst = np.abs(got - want).max()
        assert worst <= atol, (
            f"{name}/{backend}: drifted {worst:.3e} from golden (> {atol})"
        )

    @pytest.mark.parametrize("backend", FLOAT64_BACKENDS)
    @pytest.mark.parametrize("name", ["karate", "petersen", "bridge", "er80"])
    def test_float64_backends_bit_identical_to_oracle(
        self, golden_graphs, name, backend
    ):
        graph = golden_graphs[name]
        oracle = measure_mixing(graph, GOLDEN_WALKS, sources=GOLDEN_SOURCES)
        got = measure_mixing(
            graph,
            GOLDEN_WALKS,
            sources=GOLDEN_SOURCES,
            policy=ExecutionPolicy(backend=backend),
        )
        assert np.array_equal(got.distances, oracle.distances)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("name", ["karate", "er80"])
    def test_hitting_estimates_against_goldens(
        self, golden_graphs, golden_fixture, name, backend
    ):
        golden = golden_fixture["graphs"][name]["estimate"]
        estimate = estimate_mixing_time(
            golden_graphs[name],
            golden["epsilon"],
            sources=GOLDEN_SOURCES,
            max_steps=500,
            policy=ExecutionPolicy(backend=backend),
        )
        want = np.asarray(golden["per_source"], dtype=np.int64)
        got = estimate.per_source
        if backend_numeric(backend) == "float64":
            assert np.array_equal(got, want)
            assert estimate.walk_length == golden["walk_length"]
        else:
            assert np.all(np.abs(got - want) <= FLOAT32_TIME_SLACK)

    @pytest.mark.parametrize("backend", NON_DEFAULT_BACKENDS)
    @pytest.mark.parametrize("kind", SEAM_KINDS)
    def test_operator_zoo_seam_kinds(self, kind, backend):
        oracle = sweep_curves(kind, "numpy")
        got = sweep_curves(kind, backend)
        if backend_numeric(backend) == "float64":
            assert np.array_equal(got, oracle)
        else:
            worst = np.abs(got - oracle).max()
            assert worst <= FLOAT32_CURVE_ATOL, (
                f"{kind}/{backend}: float32 envelope violated ({worst:.3e})"
            )

    @pytest.mark.parametrize("backend", NON_DEFAULT_BACKENDS)
    @pytest.mark.parametrize("kind", CUSTOM_KINDS)
    def test_operator_zoo_custom_kinds_bypass_seam(self, kind, backend):
        # Custom dynamics (teleport, dangling mass) keep their own
        # kernel under every backend — bit-identical, even float32.
        oracle = sweep_curves(kind, "numpy")
        got = sweep_curves(kind, backend)
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("backend", NON_DEFAULT_BACKENDS)
    @pytest.mark.parametrize("kind", SEAM_KINDS)
    def test_hitting_times_envelope(self, kind, backend):
        oracle = sweep_hitting(kind, "numpy")
        got = sweep_hitting(kind, backend)
        if backend_numeric(backend) == "float64":
            assert np.array_equal(got.times, oracle.times)
            assert np.array_equal(got.final_distances, oracle.final_distances)
        else:
            assert np.all(np.abs(got.times - oracle.times) <= FLOAT32_TIME_SLACK)
            converged_same = (got.times >= 0) == (oracle.times >= 0)
            assert np.all(converged_same)


# ----------------------------------------------------------------------
# Serial equivalence: the worker count never changes answers
# ----------------------------------------------------------------------
needs_pool = pytest.mark.skipif(
    not __import__("repro.core.parallel", fromlist=["parallel_backend_available"])
    .parallel_backend_available(),
    reason="process pool unavailable",
)


class TestSerialEquivalence:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_chunk_boundaries_neutral(self, backend):
        whole = sweep_curves("plain", backend)
        chunked = sweep_curves("plain", backend, block_size=5)
        assert np.array_equal(whole, chunked)

    @needs_pool
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_process_pool_identity(self, backend):
        serial = sweep_curves("plain", backend)
        pooled = sweep_curves("plain", backend, workers=2)
        assert np.array_equal(serial, pooled)

    @needs_pool
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_thread_pool_identity(self, backend):
        # Two caller threads fan out on the process pool at once, as the
        # threaded HTTP service's request handlers do.
        serial = sweep_curves("plain", backend)
        callers = ThreadPoolExecutor(max_workers=2)
        try:
            futures = [
                callers.submit(sweep_curves, "plain", backend, workers=2)
                for _ in range(2)
            ]
            pooled = [future.result(timeout=120) for future in futures]
        finally:
            callers.shutdown(wait=False)  # a deadlock fails, not hangs, the test
        for got in pooled:
            assert np.array_equal(serial, got)

    @needs_pool
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_process_pool_hitting_identity(self, backend):
        serial = sweep_hitting("plain", backend)
        pooled = sweep_hitting("plain", backend, workers=2)
        assert np.array_equal(serial.times, pooled.times)
        assert np.array_equal(serial.final_distances, pooled.final_distances)

    @needs_pool
    @pytest.mark.parametrize("kind", ["weighted", "lazy"])
    def test_process_pool_identity_other_operators(self, kind):
        serial = sweep_curves(kind, "streaming")
        pooled = sweep_curves(kind, "streaming", workers=2)
        assert np.array_equal(serial, pooled)


# ----------------------------------------------------------------------
# Fault tolerance: checkpoints compose with the backend seam
# ----------------------------------------------------------------------
class TestFaultTolerance:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_checkpoint_resume_identity(self, backend, tmp_path):
        policy = ExecutionPolicy(
            backend=backend, checkpoint_dir=str(tmp_path), block_size=5
        )
        first = sweep_curves("plain", backend, checkpoint_dir=str(tmp_path), block_size=5)
        # Second run resumes from completed shards — identical output.
        second = sweep_curves("plain", backend, checkpoint_dir=str(tmp_path), block_size=5)
        assert np.array_equal(first, second)
        assert policy.checkpoint_dir is not None  # sanity: resumable path taken

    def test_float64_backends_share_sweep_fingerprints(self):
        from repro.core.parallel import _operator_fingerprint

        op = make_operator("plain")
        ref = op.stationary()
        args = (
            "curves", "plain", op._matrix, {}, ref,
            np.asarray(SOURCES), np.asarray(WALKS),
        )
        base = _operator_fingerprint(*args, backend="numpy")
        assert _operator_fingerprint(*args, backend="streaming") == base
        assert _operator_fingerprint(*args, backend="float32") != base

    def test_float32_checkpoints_not_served_to_each_other(self, tmp_path):
        # A float64 sweep leaves shards behind; a float32 sweep over the
        # same checkpoint dir must recompute (different fingerprint) and
        # land inside its envelope rather than replaying float64 rows.
        f64 = sweep_curves("plain", "numpy", checkpoint_dir=str(tmp_path))
        f32 = sweep_curves("plain", "float32", checkpoint_dir=str(tmp_path))
        f32_clean = sweep_curves("plain", "float32")
        assert np.array_equal(f32, f32_clean)
        assert np.abs(f32 - f64).max() <= FLOAT32_CURVE_ATOL


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

    def test_uniform_start_estimate_and_backends(self, golden_graphs):
        graph = golden_graphs["er80"]
        est = estimate_mixing_time(graph, 0.1, mode="uniform_start")
        assert est.sources.tolist() == [-1]
        assert est.per_source.shape == (1,)
        assert est.walk_length >= 0
        for backend in FLOAT64_BACKENDS:
            again = estimate_mixing_time(
                graph, 0.1, mode="uniform_start",
                policy=ExecutionPolicy(backend=backend),
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

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_backends_apply_to_arc_space(self, golden_graphs, backend):
        graph = golden_graphs["er80"]
        oracle = non_backtracking_curves(graph, GOLDEN_SOURCES, GOLDEN_WALKS)
        got = non_backtracking_curves(
            graph, GOLDEN_SOURCES, GOLDEN_WALKS,
            policy=ExecutionPolicy(backend=backend),
        )
        if backend_numeric(backend) == "float64":
            assert np.array_equal(got, oracle)
        else:
            assert np.abs(got - oracle).max() <= FLOAT32_CURVE_ATOL

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
