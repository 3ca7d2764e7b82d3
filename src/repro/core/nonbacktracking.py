"""Non-backtracking (Hashimoto) walk measurement in arc space.

A non-backtracking walk never immediately reverses the edge it just
crossed: from the arc ``u -> v`` it steps to a uniformly random arc
``v -> w`` with ``w != u`` (when ``deg(v) = 1`` the walk has no choice
and backtracks).  Avena et al. (PAPERS.md) show these walks mix faster
than the simple random walk on sparse graphs — the backtracking terms
that dominate short-walk return probabilities vanish — which makes the
non-backtracking estimator a cheaper route to the paper's mixing-time
curves on the social graphs studied here.

State space.  The chain lives on the ``2m`` *directed edge slots* of the
CSR representation — exactly the arc tables the Sybil route engine
already memoises (:func:`repro.sybil.routes.arc_sources` /
:func:`repro.sybil.routes.reverse_slots`) — so the operator reuses those
read-only arrays instead of rebuilding arc indices.  The Hashimoto
transition matrix ``B`` has

    B[e, f] = 1 / (deg(dst(e)) - 1)   for arcs f leaving dst(e), f != rev(e)
    B[e, rev(e)] = 1                  when deg(dst(e)) = 1 (forced backtrack)

``B`` is doubly stochastic (every arc ``f = u -> v`` is entered from the
``deg(u) - 1`` arcs into ``u`` other than ``rev(f)``, each with
probability ``1/(deg(u)-1)`` — or from ``rev(f)`` alone when
``deg(u) = 1``), so its stationary distribution is uniform over arcs;
projecting arc mass onto arc *heads* recovers the familiar ``deg / 2m``
node stationary distribution of the simple walk.  Measurement therefore
happens in node space: evolve arc blocks with the same blocked SpMM as
every other operator (the backend seam applies unchanged — ``B`` is just
another CSR matrix), project each checkpoint onto nodes, and record TVD
against ``deg / 2m``.  A walk "started at node i" starts uniform over
the out-arcs of ``i``, matching the sampling definition of the walk.

Caveat: non-backtracking chains need cycles to mix — on a graph that is
exactly a cycle the chain is a deterministic rotation and never
converges.  :func:`non_backtracking_hitting_times` reports ``-1`` for
such sources exactly like the simple-walk path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..graph import Graph
from ..obs import OBS
from .operators import (
    HittingTimes,
    MarkovOperator,
    _check_hitting,
    _check_walk_lengths,
    _rowless,
    _sweep,
)
from .runtime import ExecutionPolicy, as_policy

__all__ = [
    "NonBacktrackingOperator",
    "non_backtracking_curves",
    "non_backtracking_hitting_times",
]


def _concatenated_aranges(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]-1, 0..counts[1]-1, ...]`` without a Python loop."""
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets


class NonBacktrackingOperator(MarkovOperator):
    """The Hashimoto edge-space operator of an undirected graph.

    A full :class:`~repro.core.operators.MarkovOperator` over the ``2m``
    arc slots: all block evolution machinery (and every registered SpMM
    backend) applies verbatim because the operator is an ordinary CSR
    matrix.  The node-space helpers (:meth:`start_block`,
    :meth:`project_to_nodes`, :meth:`node_stationary`) translate between
    arc space and the node distributions the mixing measurement reports.
    """

    def __init__(self, graph: Graph):
        from scipy.sparse import csr_matrix

        from ..sybil.routes import arc_sources, reverse_slots

        if graph.num_nodes < 2:
            raise ConfigurationError(
                "non-backtracking operator needs at least two nodes"
            )
        deg = graph.degrees
        if np.any(deg == 0):
            raise ConfigurationError(
                "non-backtracking operator undefined with isolated nodes"
            )
        num_slots = int(graph.indices.size)  # 2m
        dst = graph.indices
        rev = reverse_slots(graph)
        # Row e: the walk sits on arc e = src -> dst and chooses among the
        # arcs leaving dst, excluding the reversal — unless dst is a leaf,
        # where reversal is forced.
        head_deg = deg[dst].astype(np.int64)
        counts = np.where(head_deg == 1, 1, head_deg - 1)
        candidates = (
            np.repeat(graph.indptr[dst].astype(np.int64), head_deg)
            + _concatenated_aranges(head_deg)
        )
        keep = (candidates != np.repeat(rev, head_deg)) | np.repeat(
            head_deg == 1, head_deg
        )
        indices = candidates[keep]
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        data = np.repeat(1.0 / counts.astype(np.float64), counts)
        self._graph = graph
        self._arc_dst = dst
        self._arc_src = arc_sources(graph)
        self._matrix = csr_matrix(
            (data, indices, indptr), shape=(num_slots, num_slots)
        )
        self._projection = csr_matrix(
            (
                np.ones(num_slots, dtype=np.float64),
                dst.astype(np.int64),
                np.arange(num_slots + 1, dtype=np.int64),
            ),
            shape=(num_slots, graph.num_nodes),
        )
        self._init_operator(num_slots)
        if OBS.enabled:
            OBS.add("core.nonbacktracking.built")
            OBS.add("core.nonbacktracking.arcs", num_slots)

    # -- MarkovOperator surface -----------------------------------------
    def _compute_stationary(self) -> np.ndarray:
        # B is doubly stochastic: uniform over arcs.
        return np.full(self._num_states, 1.0 / self._num_states)

    # -- arc/node translation -------------------------------------------
    @property
    def graph(self) -> Graph:
        """The underlying undirected graph."""
        return self._graph

    @property
    def num_arcs(self) -> int:
        """Number of directed edge slots (``2m``)."""
        return self._num_states

    def start_block(self, sources: Sequence[int]) -> np.ndarray:
        """``(s, 2m)`` block: row ``i`` uniform over out-arcs of source i.

        The arc-space image of "start a non-backtracking walk at node
        ``sources[i]``" — the first step is a uniformly random incident
        edge, with no reversal to exclude yet.
        """
        src = np.asarray(sources, dtype=np.int64).ravel()
        if src.size == 0:
            raise ValueError("sources must be non-empty")
        n = self._graph.num_nodes
        if np.any(src < 0) or np.any(src >= n):
            raise IndexError(f"sources out of range for graph with {n} nodes")
        deg = self._graph.degrees
        indptr = self._graph.indptr
        block = np.zeros((src.size, self._num_states), dtype=np.float64)
        for i, node in enumerate(src):
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            block[i, lo:hi] = 1.0 / deg[node]
        return block

    def project_to_nodes(self, block: np.ndarray) -> np.ndarray:
        """Collapse ``(s, 2m)`` arc mass onto arc heads: ``(s, n)``.

        ``out[i, v]`` is the probability the walk of row ``i`` currently
        *occupies* node ``v`` (the head of its current arc).
        """
        x = self._check_block(block)
        return np.asarray(x @ self._projection)

    def node_stationary(self) -> np.ndarray:
        """``deg / 2m`` — the node-space image of the uniform arc law."""
        deg = self._graph.degrees.astype(np.float64)
        return deg / deg.sum()


def _node_reference(
    operator: NonBacktrackingOperator, reference: Optional[np.ndarray]
) -> np.ndarray:
    if reference is None:
        return operator.node_stationary()
    ref = np.asarray(reference, dtype=np.float64)
    n = operator.graph.num_nodes
    if ref.shape != (n,):
        raise ValueError(f"reference must have shape ({n},), got {ref.shape}")
    return ref


def _node_space_sweep(graph, sources, reference, operator, policy, **stop):
    """Arc blocks stepped by the core sweep, measured on node occupancy."""
    policy = as_policy(policy)
    op = operator if operator is not None else NonBacktrackingOperator(graph)
    src = np.asarray(sources, dtype=np.int64).ravel()
    return _sweep(
        lambda lo, hi: op.start_block(src[lo:hi]),
        src.size,
        _rowless(op._resolve_step(policy)),
        _node_reference(op, reference),
        op.num_arcs,
        policy,
        measure=op.project_to_nodes,
        **stop,
    )


def non_backtracking_curves(
    graph: Graph,
    sources: Sequence[int],
    walk_lengths: Sequence[int],
    *,
    reference: Optional[np.ndarray] = None,
    operator: Optional[NonBacktrackingOperator] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> np.ndarray:
    """Node-space TVD checkpoints for non-backtracking walks.

    The non-backtracking analogue of
    :meth:`~repro.core.operators.MarkovOperator.variation_curves`:
    ``out[i, j]`` is the TVD between ``deg/2m`` (or ``reference``) and
    the *node occupancy* of a non-backtracking walk of length
    ``walk_lengths[j]`` started at ``sources[i]``.  Arc blocks are
    chunked against the policy's memory budget (a row is ``2m`` arcs
    wide) and stepped with the policy-selected SpMM backend.
    """
    lengths = _check_walk_lengths(walk_lengths)
    return _node_space_sweep(
        graph, sources, reference, operator, policy, checkpoints=lengths
    )


def non_backtracking_hitting_times(
    graph: Graph,
    sources: Sequence[int],
    epsilon: float,
    *,
    max_steps: int = 10_000,
    reference: Optional[np.ndarray] = None,
    operator: Optional[NonBacktrackingOperator] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> HittingTimes:
    """Per-source node-space eps-hitting times of non-backtracking walks.

    Mirrors :meth:`~repro.core.operators.MarkovOperator.hitting_times`
    including early-exit masking (converged arc rows retire from the
    block); distances are measured on node occupancies against
    ``deg/2m``.  Sources whose walk never converges — e.g. on graphs
    that are close to pure cycles, where the non-backtracking chain is
    (nearly) periodic — get time ``-1``.
    """
    max_steps = _check_hitting(epsilon, max_steps)
    return _node_space_sweep(
        graph, sources, reference, operator, policy,
        epsilon=epsilon, max_steps=max_steps,
    )
