"""Out-of-core operator path: bit-identity against the in-memory oracle.

The contract pinned here is the strongest the repo makes: the striped
transition matrix and the ``streaming`` backend must reproduce the
scipy-constructed operator **bit for bit** — across laziness, stripe
budgets, workers, and checkpoint resume.  Tolerances
would hide accumulation-order drift, so every comparison is
``np.array_equal``.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.backends import get_backend, stripe_bounds
from repro.core.outofcore import StripedTransitionMatrix
from repro.core.parallel import describe_operator, parallel_backend_available
from repro.core.runtime import ExecutionPolicy
from repro.core.walks import TransitionOperator
from repro.graph import open_csr, save_csr

needs_pool = pytest.mark.skipif(
    not parallel_backend_available(),
    reason="fork + shared-memory backend unavailable",
)


@pytest.fixture()
def mapped_pair(er_medium, tmp_path):
    """The same graph twice: in memory and as a mapped container."""
    path = tmp_path / "g.csr"
    save_csr(er_medium, path)
    return er_medium, open_csr(path)


@pytest.mark.parametrize("laziness", [0.0, 0.25])
class TestStripeIdentity:
    def test_stripes_match_scipy_csc(self, mapped_pair, laziness):
        """Every stripe equals the same slice of scipy's ``tocsc()``."""
        graph, mapped = mapped_pair
        striped = StripedTransitionMatrix(mapped, laziness=laziness)
        reference = TransitionOperator(graph, laziness=laziness).matrix().tocsc()
        n = graph.num_nodes
        for budget in (256, 4096, 1 << 20):
            bounds = stripe_bounds(striped.csc_indptr, budget)
            assert bounds[0] == 0 and bounds[-1] == n
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                local_indptr, rows, vals = striped.csc_stripe(lo, hi)
                ref_indptr = reference.indptr[lo:hi + 1] - reference.indptr[lo]
                s0, s1 = reference.indptr[lo], reference.indptr[hi]
                assert np.array_equal(local_indptr, ref_indptr)
                assert np.array_equal(rows, reference.indices[s0:s1])
                # Bit-for-bit, not approx: the values must be the very
                # float64 numbers scipy stores.
                assert np.array_equal(vals, reference.data[s0:s1])

    def test_rmatmul_matches_scipy(self, mapped_pair, laziness):
        graph, mapped = mapped_pair
        striped = StripedTransitionMatrix(mapped, laziness=laziness)
        scipy_matrix = TransitionOperator(graph, laziness=laziness).matrix()
        rng = np.random.default_rng(11)
        block = rng.random((5, graph.num_nodes))
        assert np.array_equal(block @ striped, block @ scipy_matrix)
        vec = rng.random(graph.num_nodes)
        assert np.array_equal(vec @ striped, vec @ scipy_matrix)


@pytest.mark.parametrize("laziness", [0.0, 0.25])
@pytest.mark.parametrize("budget", [None, 2048, 1 << 20])
def test_streaming_backend_bit_identical(mapped_pair, laziness, budget):
    """Streaming sweeps equal the numpy oracle at every stripe budget —
    on the in-memory operator and on the mapped one."""
    graph, mapped = mapped_pair
    sources = np.arange(0, graph.num_nodes, 3, dtype=np.int64)
    walks = [1, 2, 5, 9]
    oracle = TransitionOperator(graph, laziness=laziness).variation_curves(
        sources, walks
    )
    policy = ExecutionPolicy(backend="streaming", memory_budget=budget)
    for operand in mapped_pair:
        op = TransitionOperator(operand, laziness=laziness)
        assert np.array_equal(op.variation_curves(sources, walks, policy=policy), oracle)


def test_hitting_times_bit_identical(mapped_pair):
    graph, mapped = mapped_pair
    sources = np.arange(0, graph.num_nodes, 5, dtype=np.int64)
    oracle = TransitionOperator(graph).hitting_times(sources, 0.2, max_steps=40)
    got = TransitionOperator(mapped).hitting_times(
        sources,
        0.2,
        max_steps=40,
        policy=ExecutionPolicy(backend="streaming", memory_budget=2048),
    )
    assert np.array_equal(oracle.times, got.times)
    assert np.array_equal(oracle.final_distances, got.final_distances)


def test_streaming_prepare_rejects_nothing_small(mapped_pair):
    """The backend handles a single-stripe matrix (budget >= nnz)."""
    _graph, mapped = mapped_pair
    striped = StripedTransitionMatrix(mapped)
    step = get_backend("streaming").prepare(striped, memory_budget=1 << 30)
    x = np.eye(3, mapped.num_nodes)
    assert np.array_equal(step(x), x @ striped)


class TestDescribeAndPublish:
    def test_mmap_kind(self, mapped_pair):
        _graph, mapped = mapped_pair
        op = TransitionOperator(mapped, laziness=0.1)
        described = describe_operator(op)
        assert described is not None
        kind, matrix, extras = described
        assert kind == "mmap"
        assert matrix.path is not None and extras == {}

    def test_anonymous_striped_not_published(self, er_medium):
        """A striped matrix without a backing container stays serial."""
        op = TransitionOperator(er_medium)
        op._matrix = StripedTransitionMatrix(er_medium)
        assert describe_operator(op) is None

    @needs_pool
    def test_worker_rebuild_bit_identical(self, mapped_pair):
        from repro.core.parallel import _worker_operator, publish_operator

        graph, mapped = mapped_pair
        op = TransitionOperator(mapped)
        oracle_op = TransitionOperator(graph)
        reference = oracle_op.stationary()
        sources = np.arange(0, graph.num_nodes, 4, dtype=np.int64)
        walks = [1, 3, 7]
        kind, matrix, _extras = describe_operator(op)
        with publish_operator(kind, matrix, reference) as handle:
            worker_op, worker_ref = _worker_operator(handle.payload)
            assert np.array_equal(worker_ref, reference)
            got = worker_op.variation_curves(
                sources,
                walks,
                reference=worker_ref,
                policy=ExecutionPolicy(backend="streaming", memory_budget=4096),
            )
        assert np.array_equal(got, oracle_op.variation_curves(sources, walks))


@needs_pool
@pytest.mark.parametrize("caller", ["processes", "threads"])
def test_parallel_sweep_bit_identical(mapped_pair, caller):
    # Both cases fan out on the process pool; "threads" starts the sweep
    # from a caller thread, as the threaded HTTP service does.
    graph, mapped = mapped_pair
    sources = np.arange(0, graph.num_nodes, 2, dtype=np.int64)
    walks = [1, 2, 6]
    oracle = TransitionOperator(graph).variation_curves(sources, walks)
    policy = ExecutionPolicy(workers=2, backend="streaming", memory_budget=4096)
    op = TransitionOperator(mapped)
    if caller == "threads":
        callers = ThreadPoolExecutor(max_workers=1)
        try:
            future = callers.submit(op.variation_curves, sources, walks, policy=policy)
            got = future.result(timeout=120)
        finally:
            callers.shutdown(wait=False)  # a deadlock fails, not hangs, the test
    else:
        got = op.variation_curves(sources, walks, policy=policy)
    assert np.array_equal(got, oracle)


def test_checkpoint_resume_bit_identical(mapped_pair, tmp_path):
    """A streaming sweep checkpointed, interrupted, and resumed equals
    the uninterrupted oracle bit for bit."""
    graph, mapped = mapped_pair
    sources = np.arange(0, graph.num_nodes, 2, dtype=np.int64)
    walks = [1, 2, 6]
    oracle = TransitionOperator(graph).variation_curves(sources, walks)
    ckpt = tmp_path / "ckpt"
    first = TransitionOperator(mapped).variation_curves(
        sources,
        walks,
        policy=ExecutionPolicy(
            checkpoint_dir=ckpt, backend="streaming", memory_budget=4096
        ),
    )
    resumed = TransitionOperator(mapped).variation_curves(
        sources,
        walks,
        policy=ExecutionPolicy(
            checkpoint_dir=ckpt, resume=True, backend="streaming", memory_budget=4096
        ),
    )
    assert np.array_equal(first, oracle)
    assert np.array_equal(resumed, oracle)


def test_fingerprint_covers_graph_and_laziness(mapped_pair):
    _graph, mapped = mapped_pair
    a = StripedTransitionMatrix(mapped, laziness=0.0).fingerprint
    b = StripedTransitionMatrix(mapped, laziness=0.1).fingerprint
    c = StripedTransitionMatrix(mapped, laziness=0.0).fingerprint
    assert a == c and a != b


def test_memory_budget_policy_validation():
    with pytest.raises(Exception):
        ExecutionPolicy(memory_budget=0)
    with pytest.raises(Exception):
        ExecutionPolicy(memory_budget=-5)
    assert ExecutionPolicy(memory_budget=4096).memory_budget == 4096
