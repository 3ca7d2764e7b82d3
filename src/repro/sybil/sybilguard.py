"""SybilGuard (Yu, Kaminsky, Gibbons, Flaxman — SIGCOMM 2006).

The predecessor of SybilLimit and the other protocol whose experimental
methodology Section 2 critiques.  One random-route instance; every node
runs a route of length ``w`` out of *each* of its ``d`` incident edges.
A verifier V accepts a suspect S when at least one of V's routes
intersects (shares a node with) at least one of S's routes — w is sized
Θ(sqrt(n log n)) in the original paper so that honest routes intersect
with high probability while routes crossing the small attack cut are
rare.

Intersection here is *node*-level, unlike SybilLimit's edge-tail
intersection.  The implementation never materialises the full
``(2m, w + 1)`` trajectory matrix the original version built (244 MB at
facebook-sample scale): the verifier's small ``d × (w + 1)`` trajectory
block fixes a node mask, and every other route is tested against it by
a stepwise OR-accumulation over the shared ``next_slot`` table — O(2m)
live state per step, one gather per step, and shardable across the
fork pool (``policy.workers``) with bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.runtime import ExecutionPolicy, as_policy
from ..errors import RouteError, ScenarioError
from ..obs import OBS
from .routes import RouteInstances, arc_sources
from .scenario import SybilScenario

__all__ = [
    "SybilGuardOutcome",
    "SybilGuard",
    "recommended_route_length",
    "route_hit_scan",
]


def route_hit_scan(
    table: np.ndarray,
    indices: np.ndarray,
    src: np.ndarray,
    mask: np.ndarray,
    slot_lo: int,
    slot_hi: int,
    length: int,
) -> np.ndarray:
    """Whether each route out of slots ``[slot_lo, slot_hi)`` hits ``mask``.

    Equivalent to building the trajectory rows for those slots and
    testing ``mask[row].any()`` per row, but with O(shard) live state:
    ``hit`` starts as "source or first-hop node is masked" and each of
    the remaining ``length - 1`` steps advances the slot cursor through
    ``table`` and ORs in the node entered.  Pure and module-level so the
    serial scan and every pool worker execute the same kernel.
    """
    lo, hi = int(slot_lo), int(slot_hi)
    hit = mask[src[lo:hi]] | mask[indices[lo:hi]]
    if length >= 2:
        cur = table[lo:hi]
        hit |= mask[indices[cur]]
        for _step in range(3, int(length) + 1):
            cur = table[cur]
            hit |= mask[indices[cur]]
    return hit


def recommended_route_length(num_nodes: int, *, constant: float = 2.0) -> int:
    """The Θ(sqrt(n log n)) route length from the SybilGuard analysis."""
    if num_nodes < 2:
        raise ScenarioError("need at least two nodes")
    return max(1, int(round(constant * np.sqrt(num_nodes * np.log(num_nodes)))))


@dataclass
class SybilGuardOutcome:
    """Admission verdicts of one verifier (node-intersection test)."""

    verifier: int
    suspects: np.ndarray
    accepted: np.ndarray
    route_length: int

    @property
    def admission_rate(self) -> float:
        if self.suspects.size == 0:
            return float("nan")
        return float(self.accepted.mean())

    def accepted_nodes(self) -> np.ndarray:
        return self.suspects[self.accepted]


class SybilGuard:
    """A SybilGuard deployment over a :class:`SybilScenario`."""

    def __init__(self, scenario: SybilScenario, route_length: int, *, seed=None):
        if route_length < 1:
            raise RouteError("route_length must be >= 1")
        self._scenario = scenario
        self._w = int(route_length)
        self._routes = RouteInstances(scenario.graph, 1, seed=seed)

    @property
    def route_length(self) -> int:
        return self._w

    def _route_nodes(self, node: int) -> np.ndarray:
        """The set of nodes touched by any of ``node``'s d routes."""
        graph = self._scenario.graph
        lo, hi = int(graph.indptr[node]), int(graph.indptr[node + 1])
        slots = np.arange(lo, hi, dtype=np.int64)
        if slots.size == 0:
            return slots  # isolated node: no routes, no nodes
        return np.unique(self._routes.trajectories(slots, self._w, instance=0))

    def run(
        self,
        verifier: int,
        suspects: Optional[Sequence[int]] = None,
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> SybilGuardOutcome:
        """Admit ``suspects`` (default: all other nodes) for one verifier.

        ``policy.workers`` shards the per-slot intersection scan across the
        fork pool; serial and parallel verdicts are
        bit-for-bit identical (boolean ORs, positional reassembly).
        """
        policy = as_policy(policy)
        graph = self._scenario.graph
        if suspects is None:
            suspects = np.setdiff1d(
                np.arange(graph.num_nodes, dtype=np.int64), [int(verifier)]
            )
        else:
            suspects = np.asarray(list(suspects), dtype=np.int64)
        with OBS.span(
            "sybil.sybilguard.run",
            route_length=self._w,
            suspects=int(suspects.size),
            num_slots=int(graph.indices.size),
        ):
            verifier_nodes = self._route_nodes(int(verifier))
            mask = np.zeros(graph.num_nodes, dtype=bool)
            mask[verifier_nodes] = True
            table = self._routes.single_instance(0)
            src = arc_sources(graph)
            hit = self._maybe_parallel_hits(table, src, mask, policy)
            if hit is None:
                hit = route_hit_scan(
                    table, graph.indices, src, mask, 0, table.size, self._w
                )
            # Per-node OR over each node's d slot routes, vectorised as a
            # masked count: a node is accepted iff >= 1 of its routes hit.
            hits_per_node = np.bincount(
                src, weights=hit.astype(np.float64), minlength=graph.num_nodes
            )
            accepted = hits_per_node[suspects] > 0.0
            if OBS.enabled:
                OBS.add("sybil.sybilguard.slots_scanned", int(table.size))
                OBS.add("sybil.sybilguard.admitted", int(accepted.sum()))
        return SybilGuardOutcome(
            verifier=int(verifier),
            suspects=suspects,
            accepted=accepted,
            route_length=self._w,
        )

    def _maybe_parallel_hits(
        self,
        table: np.ndarray,
        src: np.ndarray,
        mask: np.ndarray,
        policy: ExecutionPolicy,
    ) -> Optional[np.ndarray]:
        from ..core.parallel import maybe_parallel_route_hits

        return maybe_parallel_route_hits(
            table, self._scenario.graph.indices, src, mask, self._w, policy=policy
        )
