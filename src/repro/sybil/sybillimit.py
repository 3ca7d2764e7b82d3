"""SybilLimit (Yu, Gibbons, Kaminsky, Xiao — Oakland 2008).

The defense the paper implements and measures (Section 5, Figure 8).
Every node runs ``r = r0 * sqrt(m)`` random-route instances of length
``w``; the *tail* of a route is its last (undirected) edge.  A verifier V
accepts a suspect S when

* **intersection** — some tail of S equals some tail of V, and
* **balance** — crediting S to the least-loaded intersecting V-tail does
  not push that tail's load above ``b = max(b0, a * (A + 1) / r)``, where
  A counts suspects accepted so far.

Correctness rests on tails being distributed ≈ stationarily over edges,
which holds only when ``w`` reaches the graph's mixing time — exactly the
assumption the paper falsifies.  The experiment: with no attacker, sweep
``w`` and record the fraction of honest suspects a verifier admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .._util import as_rng
from ..core.runtime import ExecutionPolicy, as_policy
from ..errors import ScenarioError
from ..obs import OBS
from .routes import RouteInstances
from .scenario import SybilScenario

__all__ = ["SybilLimitParams", "SybilLimitOutcome", "SybilLimit", "default_num_instances"]


def default_num_instances(num_edges: int, r0: float = 3.0) -> int:
    """``r = r0 * sqrt(m)`` — the birthday-paradox sizing from the paper.

    With both V's and S's tails ~uniform over the m undirected edges, the
    probability that two r-sized samples intersect is ≈ 1 - exp(-r0²), so
    r0 = 3 gives ≈ 99.99% (the paper: "r0 is computed from the birthday
    paradox to guarantee a given intersection probability").
    """
    if num_edges < 1:
        raise ScenarioError("num_edges must be positive")
    return max(1, int(round(r0 * np.sqrt(num_edges))))


@dataclass(frozen=True)
class SybilLimitParams:
    """Protocol parameters.

    Attributes
    ----------
    route_length:
        w — the random-route length (the knob Figure 8 sweeps).
    num_instances:
        r — number of independent instances (``None`` → r0·sqrt(m)).
    r0:
        Birthday-paradox multiplier used when ``num_instances`` is None.
    balance_base:
        b0 — the floor of the balance bound (SybilLimit uses Θ(log r)).
    balance_factor:
        a — multiplicative slack of the balance bound (paper uses 4).
    enforce_balance:
        Disable to measure the intersection condition alone.
    """

    route_length: int
    num_instances: Optional[int] = None
    r0: float = 3.0
    balance_base: Optional[float] = None
    balance_factor: float = 4.0
    enforce_balance: bool = True

    def resolve_instances(self, num_edges: int) -> int:
        if self.num_instances is not None:
            if self.num_instances < 1:
                raise ScenarioError("num_instances must be >= 1")
            return int(self.num_instances)
        return default_num_instances(num_edges, self.r0)

    def resolve_balance_base(self, r: int) -> float:
        if self.balance_base is not None:
            return float(self.balance_base)
        return float(max(1.0, np.log(max(r, 2))))


@dataclass
class SybilLimitOutcome:
    """Result of one verifier's admission pass.

    ``accepted[i]`` says whether ``suspects[i]`` was admitted;
    ``intersected[i]`` whether the tail sets even intersected (accepted
    implies intersected; the gap is the balance condition's rejections).
    """

    verifier: int
    suspects: np.ndarray
    accepted: np.ndarray
    intersected: np.ndarray
    route_length: int
    num_instances: int

    @property
    def admission_rate(self) -> float:
        """Fraction of suspects accepted."""
        if self.suspects.size == 0:
            return float("nan")
        return float(self.accepted.mean())

    def accepted_nodes(self) -> np.ndarray:
        return self.suspects[self.accepted]


class SybilLimit:
    """A SybilLimit deployment over a :class:`SybilScenario`.

    All nodes (honest and sybil) participate in the same route instances
    — exactly as in a real deployment, where the attacker's region is
    simply part of the graph.
    """

    def __init__(
        self,
        scenario: SybilScenario,
        params: SybilLimitParams,
        *,
        seed=None,
    ):
        self._scenario = scenario
        self._params = params
        graph = scenario.graph
        self._r = params.resolve_instances(graph.num_edges)
        rng = as_rng(seed)
        self._route_seed = int(rng.integers(2**63))
        self._tail_seed = int(rng.integers(2**63))
        self._routes = RouteInstances(graph, self._r, seed=self._route_seed)

    @property
    def scenario(self) -> SybilScenario:
        return self._scenario

    @property
    def num_instances(self) -> int:
        return self._r

    @property
    def params(self) -> SybilLimitParams:
        return self._params

    # ------------------------------------------------------------------
    def _tail_edge_sets(
        self,
        nodes: np.ndarray,
        lengths: np.ndarray,
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """Undirected tail-edge ids for each node/instance/length."""
        slots = self._routes.tails_at_lengths(
            nodes, lengths, seed=self._tail_seed, policy=policy
        )
        return self._routes.undirected_edge_ids(slots)

    def _admit(
        self,
        verifier_tails: np.ndarray,
        suspect_tails: np.ndarray,
        suspects: np.ndarray,
        *,
        order_seed,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Run intersection + balance for one verifier at one length.

        The intersection screen and the edge → verifier-tail join are
        fully vectorised (a sort-based ``searchsorted`` join against the
        sorted unique verifier edges, plus a CSR-style map from each
        edge to the verifier tail indices that ended on it); only the
        balance-bound update remains a sequential loop — it is
        *inherently* order-dependent (each admission changes the loads
        the next decision sees) — and that loop now touches only the
        suspects that actually intersect, with their candidate edges
        pre-extracted.  With ``enforce_balance=False`` admission is the
        intersection screen itself and the path is loop-free.

        Admission order, candidate enumeration order and the
        least-loaded tie-break replicate the historical implementation
        exactly, so verdicts are bit-for-bit unchanged.
        """
        r = self._r
        params = self._params
        telemetry = OBS.enabled

        # The admission permutation must be drawn unconditionally: the
        # sweep hands one rng down through every length, so skipping the
        # draw on any path would shift every later length's stream.
        order = as_rng(order_seed).permutation(suspects.size)

        # --- Phase 1: sorted join of suspect tails vs verifier tails --
        with OBS.span("sybil.admission.join", suspects=int(suspects.size), r=r):
            # Verifier tails grouped by edge: a stable argsort yields, for
            # each distinct edge, its tail indices in ascending order —
            # the same enumeration order the old dict-of-lists produced.
            by_edge = np.argsort(verifier_tails, kind="stable")
            unique_edges, edge_counts = np.unique(
                verifier_tails, return_counts=True
            )
            edge_ptr = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(edge_counts)]
            )
            # Intersection screen: binary-search every suspect tail
            # against the sorted unique verifier edges.
            found = np.searchsorted(unique_edges, suspect_tails)
            found = np.minimum(found, unique_edges.size - 1)
            hit_mask = unique_edges[found] == suspect_tails
            intersected = hit_mask.any(axis=1)
            if telemetry:
                OBS.add("sybil.admission.tail_comparisons", int(suspect_tails.size))
                OBS.add("sybil.admission.intersecting", int(intersected.sum()))

        accepted = np.zeros(suspects.size, dtype=bool)
        if not params.enforce_balance:
            # Fast path: admission *is* intersection; nothing sequential
            # remains and no per-suspect work happens at all.
            accepted[intersected] = True
            return accepted, intersected.copy()

        # --- Phase 2: sequential balance updates over intersecting rows
        with OBS.span(
            "sybil.admission.balance", intersecting=int(intersected.sum())
        ):
            # Pre-extract every suspect's hit tails once (row-major order
            # matches the old per-suspect boolean masking) as a CSR over
            # suspects, so the loop below does array slicing, not O(r)
            # masking per suspect.
            rows, cols = np.nonzero(hit_mask)
            row_counts = np.bincount(rows, minlength=suspects.size)
            row_ptr = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(row_counts)]
            )
            hit_edges = suspect_tails[rows, cols]
            # Candidate enumeration order must replicate the historical
            # per-suspect ``set`` iteration (it fixes the least-loaded
            # tie-break), so the loop builds the same small set from the
            # same values in the same insertion order.
            edge_slice = {
                int(edge): (int(edge_ptr[k]), int(edge_ptr[k + 1]))
                for k, edge in enumerate(unique_edges)
            }
            loads = np.zeros(r, dtype=np.int64)
            b0 = params.resolve_balance_base(r)
            a = params.balance_factor
            accepted_count = 0
            for pos in order:
                if not intersected[pos]:
                    continue
                chunks = []
                for edge in set(
                    int(e) for e in hit_edges[row_ptr[pos]:row_ptr[pos + 1]]
                ):
                    lo, hi = edge_slice[edge]
                    chunks.append(by_edge[lo:hi])
                candidates = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                # First minimum — the same tie-break as min(key=loads).
                best = candidates[np.argmin(loads[candidates])]
                bound = max(b0, a * (accepted_count + 1) / r)
                if loads[best] + 1 > bound:
                    continue
                loads[best] += 1
                accepted[pos] = True
                accepted_count += 1
            if telemetry:
                OBS.add("sybil.admission.balance_updates", accepted_count)
        return accepted, intersected

    # ------------------------------------------------------------------
    def run(
        self,
        verifier: int,
        suspects: Optional[Sequence[int]] = None,
        *,
        seed=None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> SybilLimitOutcome:
        """Admit ``suspects`` (default: every other node) against one verifier."""
        outcomes = self.admission_sweep(
            verifier,
            [self._params.route_length],
            suspects=suspects,
            seed=seed,
            policy=policy,
        )
        return outcomes[0]

    def admission_sweep(
        self,
        verifier: int,
        walk_lengths: Sequence[int],
        suspects: Optional[Sequence[int]] = None,
        *,
        seed=None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> List[SybilLimitOutcome]:
        """Admission outcomes at several route lengths (Figure 8's sweep).

        Routes are advanced incrementally, so the sweep costs one pass to
        ``max(walk_lengths)`` regardless of how many checkpoints it has.
        ``policy.workers`` fans the route-tail computation (the dominant cost)
        out across the fork pool; verdicts are bit-for-bit
        identical to the serial sweep at any worker count.
        """
        policy = as_policy(policy)
        graph = self._scenario.graph
        if suspects is None:
            suspects = np.setdiff1d(
                np.arange(graph.num_nodes, dtype=np.int64), [int(verifier)]
            )
        else:
            suspects = np.asarray(list(suspects), dtype=np.int64)
        lengths = np.asarray(sorted(set(int(w) for w in walk_lengths)), dtype=np.int64)
        rng = as_rng(seed)

        with OBS.span(
            "sybil.admission_sweep",
            suspects=int(suspects.size),
            lengths=int(lengths.size),
            instances=self._r,
            enforce_balance=bool(self._params.enforce_balance),
        ):
            all_nodes = np.concatenate([[int(verifier)], suspects])
            tails = self._tail_edge_sets(all_nodes, lengths, policy=policy)
            outcomes: List[SybilLimitOutcome] = []
            for li, w in enumerate(lengths):
                verifier_tails = tails[0, :, li]
                suspect_tails = tails[1:, :, li]
                accepted, intersected = self._admit(
                    verifier_tails,
                    suspect_tails,
                    suspects,
                    order_seed=rng,
                )
                if OBS.enabled:
                    OBS.event(
                        "admission_checkpoint",
                        route_length=int(w),
                        accepted=int(accepted.sum()),
                        intersected=int(intersected.sum()),
                    )
                outcomes.append(
                    SybilLimitOutcome(
                        verifier=int(verifier),
                        suspects=suspects,
                        accepted=accepted,
                        intersected=intersected,
                        route_length=int(w),
                        num_instances=self._r,
                    )
                )
        return outcomes
