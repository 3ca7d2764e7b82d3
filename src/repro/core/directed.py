"""Mixing of *directed* random walks — the paper's future-work direction.

Section 4 converts directed datasets to undirected before measuring; the
natural follow-up (pursued by the same authors) is to measure the
directed graphs themselves.  Directed chains need different machinery:

* the stationary distribution has no closed form (it is not
  degree-proportional), so it is computed by power iteration;
* the transition matrix is not similar to a symmetric one, so Theorem 2
  does not apply; the SLEM generalises to the modulus of the second
  eigenvalue (complex in general), computed with ARPACK, and the
  definition-based measurement (equation (2)) carries over verbatim.

A *teleporting* variant (PageRank-style: with probability ``1 - damping``
jump to a uniformly random node) is provided because real directed
social graphs are rarely strongly aperiodic; teleporting guarantees
ergodicity at the cost of perturbing the chain.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConvergenceError, NotConnectedError
from ..graph.digraph import DiGraph, strongly_connected_components
from .operators import MarkovOperator
from .runtime import ExecutionPolicy
from .spectral import _second_modulus

__all__ = [
    "DirectedTransitionOperator",
    "directed_second_eigenvalue_modulus",
    "directed_variation_curve",
    "directed_variation_curves",
]


class DirectedTransitionOperator(MarkovOperator):
    """Row-stochastic operator of a directed random walk.

    Parameters
    ----------
    graph:
        A :class:`DiGraph`; must be strongly connected unless teleporting
        (``damping < 1``) repairs reachability.
    damping:
        Probability of following an out-arc; with probability
        ``1 - damping`` the walk teleports to a uniform node.  ``1.0``
        (default) is the pure walk.  Nodes without out-arcs (dangling)
        always teleport.
    """

    def __init__(self, graph: DiGraph, *, damping: float = 1.0, check_connected: bool = True):
        if not 0.0 < damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if graph.num_nodes == 0:
            raise NotConnectedError("empty digraph")
        self._graph = graph
        self._damping = float(damping)
        dangling = graph.out_degrees == 0
        if damping == 1.0:
            if np.any(dangling):
                raise NotConnectedError(
                    "digraph has dangling nodes (no out-arcs); use damping < 1"
                )
            if check_connected and len(strongly_connected_components(graph)) != 1:
                raise NotConnectedError(
                    "digraph is not strongly connected; the pure walk is reducible"
                )
        self._dangling = dangling
        self._teleporting = damping < 1.0 or bool(dangling.any())
        self._init_operator(graph.num_nodes)
        self._power_cache: Dict[Tuple[float, int], np.ndarray] = {}
        from scipy.sparse import csr_matrix

        out_deg = np.maximum(graph.out_degrees, 1).astype(np.float64)
        data = np.repeat(1.0 / out_deg, graph.out_degrees)
        n = graph.num_nodes
        self._matrix = csr_matrix(
            (data, graph.out_indices.copy(), graph.out_indptr.copy()), shape=(n, n)
        )

    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        return self._graph

    @property
    def damping(self) -> float:
        return self._damping

    def _apply_block(self, block: np.ndarray) -> np.ndarray:
        """One step of the (possibly teleporting) directed walk, batched.

        Each row is treated independently; row ``i`` of the result is
        bit-for-bit the single-vector step of row ``i``.
        """
        moved = np.asarray(block @ self._matrix)
        if self._teleporting:
            dangling_mass = block[:, self._dangling].sum(axis=1)
            teleport_mass = (1.0 - self._damping) * (1.0 - dangling_mass)
            teleport_mass = teleport_mass + dangling_mass  # dangling always jumps
            moved = self._damping * moved
            # Remove the damped contribution of dangling rows (their
            # matrix rows are zero anyway) and spread teleports uniformly.
            return moved + (teleport_mass / self.num_states)[:, np.newaxis]
        return moved

    def _compute_stationary(self) -> np.ndarray:
        return self._power_stationary(tol=1e-12, max_iter=100_000)

    def _power_stationary(self, *, tol: float, max_iter: int) -> np.ndarray:
        x = np.full(self.num_states, 1.0 / self.num_states)
        for _ in range(max_iter):
            nxt = self._apply_block(x[np.newaxis, :])[0]
            if np.abs(nxt - x).sum() < tol:
                return nxt
            x = nxt
        raise ConvergenceError(
            f"power iteration did not reach tol={tol}; chain may be periodic",
            partial=x,
        )

    def stationary(self, *, tol: float = 1e-12, max_iter: int = 100_000) -> np.ndarray:
        """The stationary distribution by power iteration (memoised).

        The result is cached per ``(tol, max_iter)`` so repeated curve
        measurements never re-run the iteration.  Raises
        :class:`ConvergenceError` when the chain fails to settle
        (periodic pure walks do exactly that — use ``damping < 1``).
        """
        key = (float(tol), int(max_iter))
        cached = self._power_cache.get(key)
        if cached is None:
            cached = self._power_stationary(tol=tol, max_iter=max_iter)
            cached.setflags(write=False)
            self._power_cache[key] = cached
            if self._stationary_cache is None and key == (1e-12, 100_000):
                self._stationary_cache = cached
        return cached


def directed_second_eigenvalue_modulus(graph: DiGraph, *, damping: float = 1.0) -> float:
    """``|lambda_2|`` of the directed transition matrix (ARPACK).

    For directed chains eigenvalues are complex; the modulus of the
    second-largest one plays the SLEM's role in convergence-rate
    heuristics, but Theorem 2's two-sided bound does *not* apply (the
    chain is not reversible) — treat this as descriptive.
    """
    op = DirectedTransitionOperator(graph, damping=damping, check_connected=True)
    n = graph.num_nodes
    if n < 3:
        raise ValueError("need at least 3 nodes")
    matrix = op._matrix
    if n <= 400:
        dense = damping * matrix.toarray() + (1.0 - damping) / n
        return min(_second_modulus(dense, k=3), 1.0)
    # Teleporting shrinks every non-Perron eigenvalue by ``damping``.
    return min(damping * _second_modulus(matrix.T.astype(np.float64), k=3, maxiter=5000), 1.0)


def directed_variation_curve(
    graph: DiGraph,
    source: int,
    max_steps: int,
    *,
    damping: float = 1.0,
    operator: Optional[DirectedTransitionOperator] = None,
) -> np.ndarray:
    """``curve[t]`` = TVD between the walk distribution after t steps and
    the stationary distribution (directed analogue of
    :func:`repro.core.mixing.variation_distance_curve`).

    Pass a prebuilt ``operator`` when measuring many sources on the same
    digraph — its power-iterated stationary distribution is memoised, so
    only the first call pays for it.
    """
    op = operator if operator is not None else DirectedTransitionOperator(graph, damping=damping)
    pi = op.stationary(max_iter=200_000) if op.damping == 1.0 else op.stationary()
    return op.variation_curve(source, max_steps, reference=pi)


def directed_variation_curves(
    graph: DiGraph,
    sources,
    walk_lengths,
    *,
    damping: float = 1.0,
    operator: Optional[DirectedTransitionOperator] = None,
    policy: Optional["ExecutionPolicy"] = None,
) -> np.ndarray:
    """Multi-source directed measurement: ``(s, w)`` TVD checkpoints.

    The batched companion of :func:`directed_variation_curve`: one
    power-iterated stationary solve, then every source evolved through
    the shared block API — with ``policy.workers > 1`` fanned out across the
    process-pool sweep runtime (:mod:`repro.core.parallel`; both the
    pure-CSR and the teleporting kernel are supported, dangling mask
    included).
    """
    op = operator if operator is not None else DirectedTransitionOperator(graph, damping=damping)
    pi = op.stationary(max_iter=200_000) if op.damping == 1.0 else op.stationary()
    return op.variation_curves(
        sources,
        walk_lengths,
        reference=pi,
        policy=policy,
    )
