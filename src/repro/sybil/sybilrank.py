"""SybilRank (Cao, Sirivianos, Yang, Pregueiro — NSDI 2012).

The defense that turns the paper's subject on its head: where
SybilGuard/SybilLimit need walks *longer* than the mixing time,
SybilRank works by terminating a trust power-iteration *early* —
O(log n) iterations — precisely so that trust seeded at known-honest
nodes has mixed within the honest region but has **not yet** leaked
across the sparse attack cut.  Degree-normalised trust then ranks sybils
below honest nodes.

The mixing-time connection cuts both ways, which is why this belongs in
the reproduction:

* if the honest region itself mixes slower than O(log n) (the paper's
  finding for acquaintance graphs), early termination leaves honest
  communities far from the seeds under-trusted — false positives;
* if iterations run past the mixing time, trust equilibrates over the
  *whole* graph (stationary trust is degree-proportional everywhere) and
  the ranking collapses.

Both effects are measurable with :func:`ranking_quality` (AUC of honest
vs sybil ranking) as a function of the iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.runtime import ExecutionPolicy
from ..errors import ConfigurationError, ScenarioError
from .scenario import SybilScenario

__all__ = ["SybilRankResult", "sybilrank", "ranking_quality", "recommended_iterations"]


def recommended_iterations(num_nodes: int) -> int:
    """The protocol's O(log n) early-termination point (``ceil(log2 n)``)."""
    if num_nodes < 2:
        raise ScenarioError("need at least 2 nodes")
    return int(np.ceil(np.log2(num_nodes)))


@dataclass
class SybilRankResult:
    """Degree-normalised trust scores (higher = more trusted)."""

    scores: np.ndarray
    iterations: int
    seeds: np.ndarray

    def ranking(self) -> np.ndarray:
        """Node ids from most to least trusted."""
        return np.argsort(self.scores)[::-1]

    def accept_top(self, count: int) -> np.ndarray:
        """The ``count`` most trusted nodes (the admission rule)."""
        if count < 0:
            raise ConfigurationError("count must be nonnegative")
        return self.ranking()[:count]


def sybilrank(
    scenario: SybilScenario,
    seeds: Sequence[int],
    *,
    iterations: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> SybilRankResult:
    """Run SybilRank's early-terminated trust propagation.

    Parameters
    ----------
    seeds:
        Known-honest trust seeds (the verifier's circle).  Total trust
        ``n`` is split evenly among them.
    iterations:
        Power-iteration count; ``None`` → ``ceil(log2 n)``.
    policy:
        Routed to the process-pool sweep runtime
        (:meth:`~repro.core.operators.MarkovOperator.evolve_block`).
        The single aggregated trust vector is one block row, so it runs
        serially either way; multi-community deployments that propagate
        one trust vector *per seed group* (a ``(g, n)`` block) are where
        the pool pays off.  Results are identical in all cases.

    Returns
    -------
    :class:`SybilRankResult` with degree-normalised scores.
    """
    graph = scenario.graph
    n = graph.num_nodes
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if seeds.size == 0:
        raise ScenarioError("need at least one trust seed")
    if np.any(seeds < 0) or np.any(seeds >= n):
        raise ScenarioError("seeds out of range")
    if np.any(graph.degrees == 0):
        raise ScenarioError("sybilrank needs a graph without isolated nodes")
    if iterations is None:
        iterations = recommended_iterations(n)
    if iterations < 0:
        raise ConfigurationError("iterations must be nonnegative")

    # Trust propagation *is* distribution evolution under the shared
    # Markov-operator layer (the trust vector sums to n, not 1, but the
    # operator is linear, so evolve without probability validation).
    # Ergodicity checks are disabled: SybilRank deliberately runs on the
    # raw scenario graph, early-terminated.
    from ..core.walks import TransitionOperator

    operator = TransitionOperator(graph, check_connected=False, check_aperiodic=False)
    trust = np.zeros(n, dtype=np.float64)
    trust[seeds] = float(n) / seeds.size
    trust = operator.evolve_block(
        trust[np.newaxis, :], int(iterations), policy=policy
    )[0]
    scores = trust / graph.degrees.astype(np.float64)
    return SybilRankResult(scores=scores, iterations=int(iterations), seeds=seeds)


def ranking_quality(result: SybilRankResult, scenario: SybilScenario) -> float:
    """AUC of the honest-above-sybil ranking (1.0 = perfect separation).

    The probability that a uniformly random honest node outranks a
    uniformly random sybil (ties count half) — the metric the SybilRank
    paper reports.
    """
    honest = result.scores[: scenario.num_honest]
    sybil = result.scores[scenario.num_honest:]
    if honest.size == 0 or sybil.size == 0:
        raise ValueError("need both honest and sybil nodes for a ranking AUC")
    # Rank-sum (Mann-Whitney) formulation, O((n+m) log(n+m)).
    combined = np.concatenate([honest, sybil])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size, dtype=np.float64)
    # Average ranks for ties.
    sorted_vals = combined[order]
    i = 0
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    honest_rank_sum = ranks[: honest.size].sum()
    u_statistic = honest_rank_sum - honest.size * (honest.size + 1) / 2.0
    return float(u_statistic / (honest.size * sybil.size))
