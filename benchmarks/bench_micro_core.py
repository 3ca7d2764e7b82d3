"""Micro-benchmarks of the measurement pipeline's hot operations.

Unlike the table/figure benches (single-round experiment reproductions),
these time the primitives with pytest-benchmark's statistical repetition
so performance regressions in the substrate are visible:

* SLEM via the sparse Lanczos back-end,
* one block distribution-evolution step (the Figure 3-7 inner loop),
* batched multi-source evolution (block API) vs the historical
  one-source-at-a-time loop, at s ∈ {32, 256, 1000} sources,
* one full-system random-route advancement step (the Figure 8 inner loop),
* BFS sampling,
* graph construction from an edge array.
"""

import time

import numpy as np
import pytest

from repro.core import (
    ExecutionPolicy,
    TransitionOperator,
    slem,
    total_variation_distance,
)
from repro.datasets import load_cached
from repro.graph import Graph, open_csr, save_csr
from repro.sampling import bfs_sample
from repro.sybil import RouteInstances

#: Walk length for the batched-evolution micro-bench: long enough that the
#: SpMM dominates, short enough to keep the looped baseline affordable.
_EVOLUTION_STEPS = 10


@pytest.fixture(scope="module")
def medium_graph():
    return load_cached("physics1")


@pytest.fixture(scope="module")
def large_graph():
    return load_cached("facebook_a")


def test_micro_slem_sparse(benchmark, medium_graph):
    result = benchmark(lambda: slem(medium_graph))
    assert 0.99 < result < 1.0


def test_micro_block_evolution_step(benchmark, large_graph):
    operator = TransitionOperator(large_graph)
    matrix = operator.matrix()
    n = large_graph.num_nodes
    block = np.zeros((64, n))
    block[np.arange(64), np.arange(64)] = 1.0

    out = benchmark(lambda: block @ matrix)
    assert out.shape == (64, n)
    assert np.allclose(out.sum(axis=1), 1.0)


def _looped_evolution(operator, sources, steps):
    """The pre-refactor measurement loop: one 1-D mat-vec per source/step."""
    pi = operator.stationary()
    out = np.empty(len(sources), dtype=np.float64)
    for i, src in enumerate(sources):
        x = operator.point_mass(int(src))
        for _ in range(steps):
            x = operator.step(x)
        out[i] = total_variation_distance(x, pi, validate=False)
    return out


def _block_evolution(operator, sources, steps):
    """The MarkovOperator block API: chunked SpMM for all sources.

    Uses `variation_curves` (not a raw `evolve_block`) so the bench times
    the shipped hot path, memory-aware chunking included — an unchunked
    (1000, n) block is *slower* than the loop on the larger stand-ins.
    """
    return operator.variation_curves(sources, [steps])[:, 0]


@pytest.mark.parametrize("num_sources", [32, 256, 1000])
@pytest.mark.parametrize("mode", ["looped", "block"])
def test_micro_batched_evolution(benchmark, medium_graph, mode, num_sources):
    """Looped vs block multi-source evolution (the Figure 3-7 hot path)."""
    operator = TransitionOperator(medium_graph)
    operator.stationary()  # pre-warm the cache so only evolution is timed
    sources = np.arange(num_sources) % medium_graph.num_nodes
    run = _looped_evolution if mode == "looped" else _block_evolution

    out = benchmark(lambda: run(operator, sources, _EVOLUTION_STEPS))
    assert out.shape == (num_sources,)
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_micro_batched_evolution_speedup(medium_graph):
    """The block API must beat the looped baseline ≥3x at 1000 sources.

    This is the acceptance bar for the batched-evolution refactor; the
    parametrised benchmark above records the absolute numbers, this test
    pins the ratio (interleaved best-of-5 so background load hits both
    sides equally) and checks bit-for-bit result equality while it is at
    it.
    """
    operator = TransitionOperator(medium_graph)
    operator.stationary()
    sources = np.arange(1000) % medium_graph.num_nodes

    def timed(fn):
        t0 = time.perf_counter()
        result = fn(operator, sources, _EVOLUTION_STEPS)
        return time.perf_counter() - t0, result

    t_block = t_loop = float("inf")
    d_block = d_loop = None
    for _ in range(5):
        t, d_block = timed(_block_evolution)
        t_block = min(t_block, t)
        t, d_loop = timed(_looped_evolution)
        t_loop = min(t_loop, t)

    assert np.array_equal(d_block, d_loop)  # batching never changes results
    speedup = t_loop / t_block
    assert speedup >= 3.0, f"block API only {speedup:.1f}x faster than loop"


@pytest.mark.parametrize("kernel", ["numpy", "streaming"])
def test_micro_backend_evolution(benchmark, medium_graph, kernel, tmp_path):
    """The batched-evolution hot path per SpMM kernel, with identity
    asserted on the timed output.  The operand picks the kernel:
    ``numpy`` is the in-memory graph (scipy ``block @ csr``),
    ``streaming`` the same graph opened memory-mapped under a 4 MiB
    budget (column-stripe kernel); both must give the same bits.
    """
    graph, policy = medium_graph, ExecutionPolicy()
    if kernel == "streaming":
        save_csr(medium_graph, tmp_path / "medium.csr")
        graph = open_csr(tmp_path / "medium.csr")
        policy = ExecutionPolicy(memory_budget=4 << 20)
    operator = TransitionOperator(graph)
    sources = np.arange(256) % medium_graph.num_nodes
    oracle = TransitionOperator(medium_graph).variation_curves(
        sources, [_EVOLUTION_STEPS]
    )

    out = benchmark(
        lambda: operator.variation_curves(
            sources, [_EVOLUTION_STEPS], policy=policy
        )
    )
    assert np.array_equal(out, oracle)


def test_micro_route_advancement(benchmark, medium_graph):
    routes = RouteInstances(medium_graph, 1, seed=3)
    table = routes.single_instance(0)
    slots = np.arange(table.size)

    out = benchmark(lambda: table[slots])
    assert np.unique(out).size == slots.size


def test_micro_bfs_sample(benchmark, large_graph):
    sub, _map = benchmark(lambda: bfs_sample(large_graph, 2000, seed=11))
    assert sub.num_nodes <= 2000


def test_micro_graph_construction(benchmark, medium_graph):
    edges = medium_graph.edges()
    n = medium_graph.num_nodes
    g = benchmark(lambda: Graph.from_edges(edges, num_nodes=n))
    assert g == medium_graph


def test_micro_slem_power_backend(benchmark, medium_graph):
    from repro.core import transition_spectrum_extremes

    result = benchmark(
        lambda: transition_spectrum_extremes(medium_graph, method="power")
    )
    assert 0.99 < result.slem < 1.0


def test_micro_escape_probability(benchmark, medium_graph):
    from repro.sybil import attach_sybil_region, escape_probability, random_sybil_region

    scen = attach_sybil_region(
        medium_graph, random_sybil_region(200, seed=5), 5, seed=6
    )
    esc = benchmark(lambda: escape_probability(scen, [10, 40, 160]))
    assert np.all(np.diff(esc) > 0)


def test_micro_louvain(benchmark, medium_graph):
    from repro.community import louvain, modularity

    labels = benchmark(lambda: louvain(medium_graph, seed=9))
    assert modularity(medium_graph, labels) > 0.5
