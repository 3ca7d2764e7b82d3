"""Out-of-core operator path: bit-identity against the in-memory oracle.

The contract pinned here is the strongest the repo makes: the striped
transition matrix and its streaming stripe kernel must reproduce the
scipy-constructed operator **bit for bit** — across laziness, stripe
budgets, workers, and checkpoint resume.  Tolerances
would hide accumulation-order drift, so every comparison is
``np.array_equal``.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.outofcore import StripedTransitionMatrix, stripe_bounds
from repro.core.parallel import (
    _operator_fingerprint,
    describe_operator,
    parallel_backend_available,
)
from repro.core.runtime import ExecutionPolicy
from repro.core.walks import TransitionOperator
from repro.generators.chunked import chunked_community_csr
from repro.graph import open_csr, save_csr

needs_pool = pytest.mark.skipif(
    not parallel_backend_available(),
    reason="fork pool unavailable",
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
    """Sweeps under any memory budget equal the unbudgeted in-memory
    oracle — on the in-memory operator and on the mapped one, which
    streams stripes planned for the budget."""
    graph, mapped = mapped_pair
    sources = np.arange(0, graph.num_nodes, 3, dtype=np.int64)
    walks = [1, 2, 5, 9]
    oracle = TransitionOperator(graph, laziness=laziness).variation_curves(
        sources, walks
    )
    policy = ExecutionPolicy(memory_budget=budget)
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
        policy=ExecutionPolicy(memory_budget=2048),
    )
    assert np.array_equal(oracle.times, got.times)
    assert np.array_equal(oracle.final_distances, got.final_distances)


def test_streaming_prepare_rejects_nothing_small(mapped_pair):
    """The stripe kernel handles a single-stripe matrix (budget >= nnz)."""
    _graph, mapped = mapped_pair
    striped = StripedTransitionMatrix(mapped)
    step = striped.budgeted_step(1 << 30)
    assert striped.budgeted_step(1 << 30) is step  # memoised per budget
    x = np.eye(3, mapped.num_nodes)
    assert np.array_equal(step(x), x @ striped)


def test_memory_budget_alone_stripes_mapped_graph(tmp_path, monkeypatch):
    """``memory_budget`` by itself plans a mapped operand's stripes: no
    stripe loaded exceeds the budget's plan, and the curves and hitting
    times are the materialised operator's bit for bit."""
    mapped = chunked_community_csr(
        tmp_path / "c.csr", 3000, num_communities=6, mu_frac=0.05, seed=7,
        chunk_nodes=1024,
    )
    budget = 64 << 10
    original = StripedTransitionMatrix.csc_stripe
    plan = stripe_bounds(StripedTransitionMatrix(mapped).csc_indptr, budget)
    planned = max(
        sum(a.nbytes for a in original(StripedTransitionMatrix(mapped), lo, hi))
        for lo, hi in zip(plan[:-1], plan[1:])
    )
    assert len(plan) > 2 and planned <= budget

    loaded = []

    def recording(self, lo, hi):
        out = original(self, lo, hi)
        loaded.append(sum(a.nbytes for a in out))
        return out

    monkeypatch.setattr(StripedTransitionMatrix, "csc_stripe", recording)
    sources = np.arange(0, mapped.num_nodes, 150, dtype=np.int64)
    walks = [1, 3, 6]
    policy = ExecutionPolicy(memory_budget=budget)
    op = TransitionOperator(mapped)
    curves = op.variation_curves(sources, walks, policy=policy)
    hitting = op.hitting_times(sources, 0.3, max_steps=12, policy=policy)
    assert loaded and max(loaded) <= planned

    oracle = TransitionOperator(mapped.materialize())
    assert np.array_equal(curves, oracle.variation_curves(sources, walks))
    want = oracle.hitting_times(sources, 0.3, max_steps=12)
    assert np.array_equal(hitting.times, want.times)
    assert np.array_equal(hitting.final_distances, want.final_distances)


class TestDescribeAndPublish:
    def test_mmap_kind(self, mapped_pair):
        """A mapped base-kernel operator is described as the in-memory
        ``"csr"`` kind, over its striped matrix (nothing materialised)."""
        _graph, mapped = mapped_pair
        op = TransitionOperator(mapped, laziness=0.1)
        described = describe_operator(op)
        assert described is not None
        kind, matrix, extras = described
        assert kind == "csr"
        assert matrix is op._matrix and extras == {}

    def test_anonymous_striped_not_published(self, er_medium):
        """A striped matrix without a backing container is keyed by its
        content like a mapped one: nothing is published either way."""
        op = TransitionOperator(er_medium)
        op._matrix = StripedTransitionMatrix(er_medium)
        assert describe_operator(op)[0] == "csr"


def _curves_key(operator, sources, walks):
    reference = operator.stationary()
    return _operator_fingerprint(
        "curves", *describe_operator(operator), reference, sources, walks
    )


@pytest.mark.parametrize("laziness", [0.0, 0.25])
class TestMappedCheckpointKey:
    """The same graph gets the same checkpoint key in memory and mapped."""

    def test_key_equals_in_memory_key(self, mapped_pair, laziness):
        graph, mapped = mapped_pair
        sources = np.arange(0, graph.num_nodes, 3, dtype=np.int64)
        walks = np.asarray([1, 2, 6])
        mapped_op = TransitionOperator(mapped, laziness=laziness)
        want = _curves_key(TransitionOperator(graph, laziness=laziness), sources, walks)
        assert _curves_key(mapped_op, sources, walks) == want
        assert _curves_key(mapped_op, sources, walks) == want  # memoised prefix

    @pytest.mark.parametrize("first", ["memory", "mapped"])
    @pytest.mark.parametrize("sweep", ["curves", "hitting"])
    def test_each_resumes_the_other(self, mapped_pair, tmp_path, laziness, first, sweep):
        from repro.obs import OBS

        graph, mapped = mapped_pair
        sources = np.arange(0, graph.num_nodes, 2, dtype=np.int64)
        ckpt = tmp_path / "ckpt"
        policy = ExecutionPolicy(checkpoint_dir=ckpt, block_size=8, memory_budget=4096)

        def run(g):
            op = TransitionOperator(g, laziness=laziness)
            if sweep == "curves":
                return op.variation_curves(sources, [1, 2, 6], policy=policy)
            return op.hitting_times(sources, 0.2, max_steps=40, policy=policy).times

        graphs = {"memory": graph, "mapped": mapped}
        second = "mapped" if first == "memory" else "memory"
        written = run(graphs[first])
        OBS.reset()
        OBS.enable()
        try:
            resumed = run(graphs[second])
            counters = OBS.snapshot()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
        assert np.array_equal(resumed, written)
        assert len(list(ckpt.iterdir())) == 1
        assert counters["runtime.checkpoint.loaded_rows"] == sources.size
        assert "runtime.checkpoint.saved_shards" not in counters  # none recomputed

    def test_mapped_checkpoint_never_materialises(
        self, mapped_pair, tmp_path, laziness, monkeypatch
    ):
        graph, mapped = mapped_pair

        def refuse(self):
            raise AssertionError("mapped checkpointing materialised the matrix")

        monkeypatch.setattr(StripedTransitionMatrix, "tocsr", refuse)
        sources = np.arange(0, graph.num_nodes, 2, dtype=np.int64)
        ckpt = tmp_path / "ckpt"
        policy = ExecutionPolicy(checkpoint_dir=ckpt)
        got = TransitionOperator(mapped, laziness=laziness).variation_curves(
            sources, [1, 2, 6], policy=policy
        )
        oracle = TransitionOperator(graph, laziness=laziness)
        assert np.array_equal(got, oracle.variation_curves(sources, [1, 2, 6]))
        (key_dir,) = ckpt.iterdir()
        assert key_dir.name == "curves-" + _curves_key(oracle, sources, np.asarray([1, 2, 6]))[:32]


@needs_pool
@pytest.mark.parametrize("caller", ["processes", "threads"])
def test_parallel_sweep_bit_identical(mapped_pair, caller):
    # Both cases fan out on the process pool; "threads" starts the sweep
    # from a caller thread, as the threaded HTTP service does.
    graph, mapped = mapped_pair
    sources = np.arange(0, graph.num_nodes, 2, dtype=np.int64)
    walks = [1, 2, 6]
    oracle = TransitionOperator(graph).variation_curves(sources, walks)
    policy = ExecutionPolicy(workers=2, memory_budget=4096)
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
    """A mapped sweep checkpointed, interrupted, and resumed equals
    the uninterrupted oracle bit for bit."""
    graph, mapped = mapped_pair
    sources = np.arange(0, graph.num_nodes, 2, dtype=np.int64)
    walks = [1, 2, 6]
    oracle = TransitionOperator(graph).variation_curves(sources, walks)
    ckpt = tmp_path / "ckpt"
    first = TransitionOperator(mapped).variation_curves(
        sources,
        walks,
        policy=ExecutionPolicy(checkpoint_dir=ckpt, memory_budget=4096),
    )
    resumed = TransitionOperator(mapped).variation_curves(
        sources,
        walks,
        policy=ExecutionPolicy(checkpoint_dir=ckpt, resume=True, memory_budget=4096),
    )
    assert np.array_equal(first, oracle)
    assert np.array_equal(resumed, oracle)


def test_fingerprint_covers_graph_and_laziness(mapped_pair, petersen, tmp_path):
    _graph, mapped = mapped_pair
    save_csr(petersen, tmp_path / "other.csr")
    other = open_csr(tmp_path / "other.csr")
    sources, walks = np.asarray([0, 1, 2]), np.asarray([1, 2])
    a = _curves_key(TransitionOperator(mapped, laziness=0.0), sources, walks)
    b = _curves_key(TransitionOperator(mapped, laziness=0.1), sources, walks)
    c = _curves_key(TransitionOperator(mapped, laziness=0.0), sources, walks)
    d = _curves_key(TransitionOperator(other, laziness=0.0), sources, walks)
    assert a == c and len({a, b, d}) == 3


def test_memory_budget_policy_validation():
    with pytest.raises(Exception):
        ExecutionPolicy(memory_budget=0)
    with pytest.raises(Exception):
        ExecutionPolicy(memory_budget=-5)
    assert ExecutionPolicy(memory_budget=4096).memory_budget == 4096
