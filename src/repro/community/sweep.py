"""Spectral sweep cut: find a low-conductance cut from the Fiedler-like
eigenvector.

Section 3.2 ties mixing to conductance (``Phi >= 1 - mu``); Cheeger's
inequality makes the other direction algorithmic: sorting nodes by the
second eigenvector of the normalised adjacency and sweeping prefixes
finds a cut with ``Phi <= sqrt(2 (1 - lambda_2))``.  On the slow-mixing
dataset stand-ins this recovers the planted community bottleneck, which
is how the benches *explain* the measured mixing times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.spectral import _normalized_matrix, _symmetric_extremes
from ..errors import NotConnectedError
from ..graph import Graph, is_connected

__all__ = ["SweepCut", "spectral_sweep_cut", "second_eigenvector"]


def second_eigenvector(graph: Graph) -> np.ndarray:
    """The eigenvector of ``D^{-1/2} A D^{-1/2}`` for lambda_2, mapped back
    to the random-walk eigenvector (divided by sqrt(deg))."""
    if not is_connected(graph):
        raise NotConnectedError("sweep cut needs a connected graph")
    _, _, vec, _, _ = _symmetric_extremes(
        _normalized_matrix(graph), k=2, vectors=True, bottom=False
    )
    return vec / np.sqrt(graph.degrees.astype(np.float64))


@dataclass(frozen=True)
class SweepCut:
    """A cut found by the spectral sweep.

    ``side`` holds the node ids of the smaller-volume side.
    """

    side: np.ndarray
    conductance: float
    cut_edges: int

    @property
    def size(self) -> int:
        return self.side.size


def spectral_sweep_cut(graph: Graph) -> SweepCut:
    """The best prefix cut of the second-eigenvector ordering.

    Runs the sweep in O(m) after sorting: maintains the prefix volume and
    cut size incrementally while adding nodes in eigenvector order.
    """
    order = np.argsort(second_eigenvector(graph))
    n = graph.num_nodes
    total_vol = 2 * graph.num_edges
    in_prefix = np.zeros(n, dtype=bool)
    vol = 0
    cut = 0
    best = (np.inf, 0)  # (conductance, prefix length)
    degrees = graph.degrees
    indptr, indices = graph.indptr, graph.indices
    for k, v in enumerate(order[:-1]):
        in_prefix[v] = True
        vol += int(degrees[v])
        internal = int(in_prefix[indices[indptr[v]:indptr[v + 1]]].sum())
        # v's edges to the prefix stop being cut edges; the rest start.
        cut += int(degrees[v]) - 2 * internal
        denom = min(vol, total_vol - vol)
        if denom > 0:
            phi = cut / denom
            if phi < best[0]:
                best = (phi, k + 1)
    if not np.isfinite(best[0]):
        raise NotConnectedError("sweep found no valid cut (graph too small?)")
    side = np.sort(order[: best[1]])
    # Recompute the exact cut size for the reported side.
    mask = np.zeros(n, dtype=bool)
    mask[side] = True
    edges = graph.edges()
    cut_edges = int((mask[edges[:, 0]] != mask[edges[:, 1]]).sum()) if edges.size else 0
    return SweepCut(side=side, conductance=float(best[0]), cut_edges=cut_edges)
