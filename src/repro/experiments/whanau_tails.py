"""The Whānau tail-distribution methodology, done right (Section 2).

Lesniewski-Laas et al. justified fast mixing by sampling random-walk
*tail edges* and eyeballing their histogram against the uniform edge
distribution.  The paper's critique: "they provided raw measurements but
did not relate the distribution of the sampled tails to the stationary
distribution itself, in terms of the variation distance", and the
separation distance they used "does not require eps to be too small".

This experiment computes the tail-edge distribution *exactly* (no
sampling noise): pooling walks from a uniformly random start node, the
probability that a length-w walk's tail is the arc (u, v) is

    q_w(u -> v) = x_{w-1}(u) / deg(u),   x_0 = uniform over nodes,

so one distribution evolution per graph yields the whole curve.  Both
the total variation distance and Whānau's separation distance to the
uniform arc distribution are reported; the reproduced finding is that
walks that look "converged" to the eye (and to the loose separation
criterion at moderate eps) are still orders of magnitude away from the
eps = Theta(1/n) the security proofs assume.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from typing import Optional

from ..core import (
    TransitionOperator,
    separation_distance,
    total_variation_distance,
    uniform_distribution,
)
from ..core.runtime import ExecutionPolicy, as_policy
from ..datasets import load_cached
from ..graph import Graph
from ..sybil.routes import arc_sources
from .config import ExperimentConfig, FAST
from .harness import FigureResult, Series

__all__ = ["tail_arc_distribution", "tail_arc_distributions", "run_whanau_tails"]


def tail_arc_distributions(
    graph: Graph,
    walk_lengths: "Sequence[int]",
    *,
    policy: "Optional[ExecutionPolicy]" = None,
) -> "List[np.ndarray]":
    """Exact pooled tail-edge distributions at several walk lengths.

    Returns one vector over directed arc slots (length ``2m``, summing
    to 1) per requested length.  ``walk_lengths`` must be strictly
    increasing and >= 1: the node distribution is evolved
    *incrementally* between checkpoints, so the whole sweep costs
    ``max(w) - 1`` operator applications instead of ``sum(w - 1)`` —
    and, because the SpMV prefix is shared, each checkpoint equals the
    from-scratch evolution bit-for-bit.  ``policy`` is threaded to the
    operator's block API for parity with the other sweep entry points
    (a single pooled distribution is one row, so it falls back serial).
    """
    policy = as_policy(policy)
    lengths = [int(w) for w in walk_lengths]
    if not lengths or lengths[0] < 1 or any(
        b <= a for a, b in zip(lengths, lengths[1:])
    ):
        raise ValueError("walk_lengths must be strictly increasing and >= 1")
    operator = TransitionOperator(graph, check_aperiodic=False)
    x = uniform_distribution(graph.num_nodes)
    inv_deg = graph.degrees.astype(np.float64)
    src = arc_sources(graph)
    out: "List[np.ndarray]" = []
    reached = 0
    for w in lengths:
        steps = (w - 1) - reached
        if steps > 0:
            x = operator.evolve_block(x[None, :], steps, policy=policy)[0]
        reached = w - 1
        out.append((x / inv_deg)[src])
    return out


def tail_arc_distribution(graph: Graph, walk_length: int) -> np.ndarray:
    """Exact pooled tail-edge distribution of length-``walk_length`` walks.

    Returns a vector over directed arc slots (length ``2m``) summing to 1.
    Walk sources are uniform over nodes (Whānau's pooling).
    """
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    return tail_arc_distributions(graph, [walk_length])[0]


def run_whanau_tails(
    config: ExperimentConfig = FAST,
    *,
    datasets: Sequence[str] = ("physics1", "livejournal_a", "wiki_vote"),
    walk_lengths: Sequence[int] = (10, 20, 40, 80, 160, 320),
) -> FigureResult:
    """Tail-edge convergence curves per dataset.

    One panel per dataset with three series: TVD of the tail distribution
    to uniform-over-arcs, Whānau's separation distance, and the
    security-proof target ``eps = 1/n`` (a horizontal line).
    """
    walks = [w for w in walk_lengths if w <= config.max_walk + 20]
    figure = FigureResult(
        title="Whānau tail-edge distributions vs uniform (Section 2 critique)",
        xlabel="walk length w",
        ylabel="distance of pooled tail-edge distribution to uniform",
        notes="separation distance is the loose criterion Whānau used; "
        "the proofs need TVD ~ 1/n",
    )
    for name in datasets:
        graph = load_cached(name)
        uniform_arcs = np.full(2 * graph.num_edges, 1.0 / (2 * graph.num_edges))
        tvd: List[float] = []
        sep: List[float] = []
        for q in tail_arc_distributions(graph, walks, policy=config.execution_policy):
            tvd.append(total_variation_distance(q, uniform_arcs, validate=False))
            sep.append(separation_distance(q, uniform_arcs, validate=False))
        target = 1.0 / graph.num_nodes
        figure.panels[name] = [
            Series(label="TVD to uniform arcs", x=np.asarray(walks, float), y=np.asarray(tvd)),
            Series(label="separation distance", x=np.asarray(walks, float), y=np.asarray(sep)),
            Series(
                label="target eps = 1/n",
                x=np.asarray(walks, float),
                y=np.full(len(walks), target),
            ),
        ]
    return figure
