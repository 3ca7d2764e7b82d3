"""Trust-aware random walks — the paper's second future-work direction.

Section 5/6: "This calls for considering the trust model resulting from
the underlying social network as a parameter, along with the mixing
time... Our work in [16, 15] is a preliminarily result in this
direction."  Those follow-ups modify the walk to *account for trust*,
which deliberately slows mixing on weak-trust graphs.  Two designs are
implemented:

* **Similarity-biased walk** — transition probability proportional to a
  per-edge weight (default: smoothed Jaccard similarity of the
  endpoints' neighbourhoods).  Strong ties are favoured; random weak
  ties (the edges that make OSNs fast mixing) are discounted.
* **Originator-biased walk** — at every step the walk returns to its
  originator with probability ``beta``, otherwise steps normally.  The
  walk stays anchored near its source, bounding how much an adversary
  far from the verifier can be reached.

Both are measured with the same total-variation machinery as the plain
walk; the headline (reproduced by ``benchmarks/bench_trust_models.py``)
is that each trust knob monotonically *increases* the effective mixing
time.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import NotConnectedError
from ..graph import Graph, is_connected
from .._util import check_node_index
from .operators import MarkovOperator, _check_walk_lengths, _sweep
from .runtime import ExecutionPolicy, as_policy
from .spectral import _symmetric_extremes
from .stationary import stationary_distribution, weighted_stationary_distribution

__all__ = [
    "jaccard_arc_weights",
    "WeightedTransitionOperator",
    "originator_biased_curve",
    "originator_biased_curves",
    "weighted_slem",
]


def jaccard_arc_weights(graph: Graph, *, smoothing: float = 0.1) -> np.ndarray:
    """Per-arc weights ``smoothing + jaccard(u, v)`` aligned with CSR slots.

    ``jaccard(u, v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|`` over neighbour
    sets.  ``smoothing > 0`` keeps every existing edge usable (a pure
    similarity weight would disconnect edges with no common neighbour,
    breaking ergodicity).
    """
    if smoothing <= 0:
        raise ValueError("smoothing must be positive (weights must stay > 0)")
    indptr, indices = graph.indptr, graph.indices
    weights = np.empty(indices.size, dtype=np.float64)
    degrees = graph.degrees
    for u in range(graph.num_nodes):
        row_u = indices[indptr[u]:indptr[u + 1]]
        for pos in range(indptr[u], indptr[u + 1]):
            v = indices[pos]
            row_v = indices[indptr[v]:indptr[v + 1]]
            inter = np.intersect1d(row_u, row_v, assume_unique=True).size
            union = degrees[u] + degrees[v] - inter
            weights[pos] = smoothing + (inter / union if union else 0.0)
    return weights


class WeightedTransitionOperator(MarkovOperator):
    """Random walk with symmetric positive edge weights.

    ``P_{uv} = w_{uv} / strength(u)`` where ``strength(u) = sum_v w_{uv}``.
    With symmetric weights the chain is reversible and its stationary
    distribution is strength-proportional — the weighted analogue of
    Theorem 1 (``pi_v = strength(v) / total``).
    """

    def __init__(self, graph: Graph, arc_weights: np.ndarray, *, check_connected: bool = True):
        arc_weights = np.asarray(arc_weights, dtype=np.float64)
        if arc_weights.shape != (graph.indices.size,):
            raise ValueError("arc_weights must align with the CSR indices array")
        if np.any(arc_weights <= 0):
            raise ValueError("arc weights must be strictly positive")
        self._check_symmetry(graph, arc_weights)
        if check_connected and not is_connected(graph):
            raise NotConnectedError("graph is disconnected")
        self._graph = graph
        self._weights = arc_weights
        self._init_operator(graph.num_nodes)
        strength = np.zeros(graph.num_nodes, dtype=np.float64)
        src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
        np.add.at(strength, src, arc_weights)
        self._strength = strength
        from scipy.sparse import csr_matrix

        data = arc_weights / strength[src]
        n = graph.num_nodes
        self._matrix = csr_matrix((data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n))

    @staticmethod
    def _check_symmetry(graph: Graph, weights: np.ndarray, *, atol: float = 1e-9) -> None:
        from ..sybil.routes import reverse_slots  # arc pairing utility

        rev = reverse_slots(graph)
        if not np.allclose(weights, weights[rev], atol=atol):
            raise ValueError("arc weights must be symmetric (w_uv == w_vu)")

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._graph

    def strength(self) -> np.ndarray:
        """Weighted degree of every node."""
        return self._strength

    def _compute_stationary(self) -> np.ndarray:
        """Strength-proportional stationary distribution (weighted
        Theorem 1: ``pi_v = strength(v) / total``)."""
        return weighted_stationary_distribution(self._strength)


def _originator_curves(
    plain,
    pi: np.ndarray,
    src: np.ndarray,
    beta: float,
    lengths: np.ndarray,
    policy: ExecutionPolicy,
) -> np.ndarray:
    """The originator-biased sweep over ``src`` on the plain CSR matrix.

    One function, two execution contexts: the serial path below calls it
    with the full source list, and :mod:`repro.core.parallel` calls it
    on each shard (in pool workers, on the CSR matrix and ``pi`` they
    inherit from the parent).  Rows are independent (each row's bias
    targets its *own* originator), so the split is bit-for-bit neutral.
    """

    def step(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        x = (1.0 - beta) * np.asarray(x @ plain)
        x[np.arange(rows.size), src[rows]] += beta
        return x

    def start(lo: int, hi: int) -> np.ndarray:
        x = np.zeros((hi - lo, plain.shape[0]), dtype=np.float64)
        x[np.arange(hi - lo), src[lo:hi]] = 1.0
        return x

    return _sweep(
        start, src.size, step, pi, plain.shape[0], policy, checkpoints=lengths
    )


def originator_biased_curves(
    graph: Graph,
    sources: Sequence[int],
    beta: float,
    walk_lengths: Sequence[int],
    *,
    policy: Optional["ExecutionPolicy"] = None,
) -> np.ndarray:
    """Batched originator-biased measurement: ``(s, w)`` distances.

    ``out[i, j]`` is the TVD between the *plain* stationary distribution
    and the biased walk of length ``walk_lengths[j]`` whose originator is
    ``sources[i]``.  Unlike the other chains, every source defines its
    own operator (``P'_i = beta * (jump to sources[i]) + (1 - beta) P``),
    so the per-row bias injection happens inside the block step — one
    SpMM per step still advances all sources at once.
    ``policy.workers > 1`` shards the sources across the fork process pool
    (:mod:`repro.core.parallel`) with identical results.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    policy = as_policy(policy)
    lengths = _check_walk_lengths(walk_lengths)
    src = np.asarray(
        [check_node_index(s, graph.num_nodes, name="source") for s in np.asarray(sources).ravel()],
        dtype=np.int64,
    )
    if src.size == 0:
        raise ValueError("sources must be non-empty")
    pi = stationary_distribution(graph)
    from scipy.sparse import csr_matrix

    inv_deg = 1.0 / graph.degrees.astype(np.float64)
    data = np.repeat(inv_deg, graph.degrees)
    n = graph.num_nodes
    plain = csr_matrix((data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n))

    if policy.workers is not None or policy.checkpoint_dir is not None:
        from .parallel import maybe_parallel_originator_curves

        out = maybe_parallel_originator_curves(
            plain, pi, src, beta, lengths, policy=policy
        )
        if out is not None:
            return out
    return _originator_curves(plain, pi, src, beta, lengths, policy)


def originator_biased_curve(
    graph: Graph,
    source: int,
    beta: float,
    max_steps: int,
) -> np.ndarray:
    """Variation distance of the originator-biased walk to the *plain*
    stationary distribution.

    The modified chain ``P' = beta * (jump to source) + (1 - beta) * P``
    has its own stationary distribution concentrated around the source;
    measuring against the unbiased ``pi`` quantifies how much of the
    graph the biased walk can actually cover — the utility/security
    trade-off of the trust design.  ``beta = 0`` recovers the plain
    curve.  (Single-source convenience wrapper over
    :func:`originator_biased_curves`.)
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    return originator_biased_curves(graph, [source], beta, np.arange(max_steps + 1))[0]


def weighted_slem(graph: Graph, arc_weights: np.ndarray) -> float:
    """SLEM of the weighted random walk (Theorem 2 for weighted chains).

    The weighted chain ``P_w = D_s^{-1} W`` (s = strengths) is similar to
    the symmetric ``D_s^{-1/2} W D_s^{-1/2}``, so the whole spectral
    machinery carries over; this returns ``max(|lambda_2|, |lambda_n|)``,
    from which :func:`~repro.core.bounds.mixing_time_lower_bound` gives
    trust-model mixing bounds directly.
    """
    operator = WeightedTransitionOperator(graph, arc_weights)  # validates
    from scipy.sparse import csr_matrix

    strength = operator.strength()
    inv_sqrt = 1.0 / np.sqrt(strength)
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    data = np.asarray(arc_weights, dtype=np.float64) * inv_sqrt[src] * inv_sqrt[graph.indices]
    n = graph.num_nodes
    matrix = csr_matrix((data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n))
    # The top eigenvector sqrt(strength) is the start vector.
    v0 = np.sqrt(strength)
    v0 /= np.linalg.norm(v0)
    lambda2, lambda_min, _, _, _ = _symmetric_extremes(matrix, v0)
    return float(min(max(abs(lambda2), abs(lambda_min)), 1.0))
