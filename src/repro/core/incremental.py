"""Incremental stationary/SLEM maintenance over temporal graphs.

When a graph evolves by small edge deltas, its spectrum moves a little;
recomputing the SLEM from scratch on every window throws that locality
away.  This module maintains the two extreme eigenpairs of the
normalised adjacency ``N = D^{-1/2} A D^{-1/2}`` *incrementally*:

**Warm start.**  The previous window's eigenvectors seed the next
window's Lanczos solves (``eigsh`` with an explicit ``v0``) run at the
loose-but-certified tolerance :data:`WARM_RESIDUAL_TOL` instead of the
cold path's machine-precision ``tol=0``.  The certification is the
symmetric residual bound: every Ritz pair obeys
``|theta - lambda| <= ||N x - theta x||_2``, and ``|lambda| <= 1`` for
the normalised adjacency, so an eigsh exit at relative tolerance
``1e-7`` pins the eigenvalue error an order of magnitude below the
:data:`WARM_SLEM_ATOL` contract.  An explicit residual certificate is
still evaluated after each warm solve — if it ever exceeds the safe
threshold the window silently recomputes cold.

**Agreement contract.**  Warm results must match cold recomputation
(:func:`repro.core.spectral.transition_spectrum_extremes`) to within
:data:`WARM_SLEM_ATOL` on every window — the residual bound guarantees
it analytically and the test suite pins it empirically.

**Cold fallback.**  Warm seeding is refused automatically when there is
no previous state, the node count changed, or the delta touches more
than :data:`MAX_WARM_DELTA_FRACTION` of the edges — perturbation
locality is no longer trustworthy, so the solver falls back to the
deterministic cold path (and says so in ``SpectralState.warm_started``).

Stationary maintenance is exact rather than approximate: the stationary
distribution is degree-proportional (Theorem 1), so
:class:`StationaryTracker` folds deltas into an integer degree vector
and reproduces :func:`repro.core.stationary.stationary_distribution`
bit-for-bit.

Matvecs are scipy's native CSR product over the normalised adjacency,
wrapped in a counted ``LinearOperator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, NotConnectedError
from ..graph import Graph
from ..graph.temporal import EdgeDelta, TemporalGraph
from ..obs import OBS
from .mixing import measure_mixing, sample_sources
from .runtime import ExecutionPolicy, as_policy
from .spectral import SpectralSummary, normalized_adjacency

__all__ = [
    "WARM_SLEM_ATOL",
    "WARM_RESIDUAL_TOL",
    "MAX_WARM_DELTA_FRACTION",
    "SpectralState",
    "StationaryTracker",
    "warm_spectral_extremes",
    "SlemTrend",
    "MixingTrend",
    "slem_trend",
    "mixing_trend",
]

#: Pinned warm-vs-cold agreement tolerance on SLEM / lambda_2 /
#: lambda_min.  See DESIGN.md §7 for the derivation:
#: residual-norm stopping at :data:`WARM_RESIDUAL_TOL` bounds the
#: eigenvalue error two orders of magnitude below this contract.
WARM_SLEM_ATOL = 1e-6

#: Relative tolerance for the warm Lanczos solves *and* the absolute
#: residual certificate threshold.  For a symmetric operator
#: ``|theta - lambda| <= ||r||_2`` and ``|lambda| <= 1`` here, so this
#: bounds the warm eigenvalue error at WARM_SLEM_ATOL / 10.
WARM_RESIDUAL_TOL = 1e-7

#: Warm seeding is refused when a delta touches more than this fraction
#: of the current edge set — first-order perturbation locality is gone,
#: so a cold solve is both safer and barely slower.
MAX_WARM_DELTA_FRACTION = 0.25

#: Warm seeding needs headroom for the Lanczos basis (ncv = 20
#: vectors); below this the cold dense solve is cheaper anyway.
_MIN_WARM_NODES = 64


@dataclass(frozen=True)
class SpectralState:
    """One maintained spectral snapshot: eigenvalues plus their vectors.

    The vectors are what make the *next* window cheap — they seed the
    warm polish.  ``warm_started`` and ``matvecs`` record how this state
    was obtained (benchmarks and OBS read them).
    """

    lambda2: float
    lambda_min: float
    slem: float
    vec2: np.ndarray
    vec_min: np.ndarray
    n: int
    warm_started: bool
    matvecs: int

    def summary(self) -> SpectralSummary:
        """The static-analysis view of this state (method ``"warm"``)."""
        return SpectralSummary(
            lambda2=self.lambda2,
            lambda_min=self.lambda_min,
            slem=self.slem,
            gap=1.0 - self.slem,
            method="warm" if self.warm_started else "cold",
        )


class StationaryTracker:
    """Exact incremental maintenance of the stationary distribution.

    Theorem 1 makes this trivial: ``pi_v = deg(v) / 2m``, and a delta
    changes degrees by integer amounts.  The tracker keeps the integer
    degree vector and edge count, so :meth:`distribution` reproduces
    :func:`stationary_distribution` of the updated graph **bit-for-bit**
    (same float64 division, same operand order).
    """

    __slots__ = ("_degrees", "_num_edges")

    def __init__(self, degrees: np.ndarray, num_edges: int):
        self._degrees = np.asarray(degrees, dtype=np.int64).copy()
        self._num_edges = int(num_edges)

    @classmethod
    def from_graph(cls, graph: Graph) -> "StationaryTracker":
        return cls(graph.degrees, graph.num_edges)

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def apply(self, delta: EdgeDelta) -> "StationaryTracker":
        """Fold one delta into a new tracker (the original is unchanged)."""
        n = len(self._degrees)
        if delta.insert.size:
            n = max(n, int(delta.insert.max()) + 1)
        deg = np.zeros(n, dtype=np.int64)
        deg[: len(self._degrees)] = self._degrees
        for pairs, sign in ((delta.insert, 1), (delta.delete, -1)):
            if pairs.size:
                np.add.at(deg, pairs[:, 0], sign)
                np.add.at(deg, pairs[:, 1], sign)
        if np.any(deg < 0):
            raise ConfigurationError("delta deletes more incident edges than a node has")
        m = self._num_edges + int(delta.insert.shape[0]) - int(delta.delete.shape[0])
        return StationaryTracker(deg, m)

    def distribution(self) -> np.ndarray:
        """``pi = deg / 2m``, byte-identical to the cold computation."""
        if self._num_edges == 0:
            raise NotConnectedError("stationary distribution undefined: graph has no edges")
        deg = self._degrees.astype(np.float64)
        if np.any(deg == 0):
            raise NotConnectedError("stationary distribution undefined: graph has isolated nodes")
        return deg / (2.0 * self._num_edges)

    def __repr__(self) -> str:
        return f"StationaryTracker(n={len(self._degrees)}, m={self._num_edges})"


def _counted_operator(graph: Graph):
    """``(op, counter, matrix)`` — a counted ``v -> N v`` LinearOperator."""
    import scipy.sparse.linalg as spla

    matrix = normalized_adjacency(graph)
    n = graph.num_nodes
    counter = {"matvecs": 0}

    def matvec(v):
        counter["matvecs"] += 1
        return matrix @ v

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    return op, counter, matrix


def _cold_state(graph: Graph) -> SpectralState:
    """Deterministic cold solve that also yields the extreme eigenvectors.

    Mirrors :func:`transition_spectrum_extremes`'s sparse path (same
    deterministic ``v0``, ``tol=0``) but keeps the vectors so the next
    window can warm-start.  Tiny graphs use a dense solve — Lanczos
    needs ``k < n`` plus basis headroom.
    """
    import scipy.sparse.linalg as spla

    n = graph.num_nodes
    op, counter, matrix = _counted_operator(graph)
    if n <= _MIN_WARM_NODES:
        dense = matrix.toarray()
        vals, vecs = np.linalg.eigh(dense)
        lambda2, vec2 = float(vals[-2]), vecs[:, -2]
        lambda_min, vec_min = float(vals[0]), vecs[:, 0]
    else:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        vals_hi, vecs_hi = spla.eigsh(op, k=3, which="LA", v0=v0, tol=0)
        order = np.argsort(vals_hi)
        lambda2, vec2 = float(vals_hi[order[-2]]), vecs_hi[:, order[-2]]
        vals_lo, vecs_lo = spla.eigsh(op, k=1, which="SA", v0=v0, tol=0)
        lambda_min, vec_min = float(vals_lo[0]), vecs_lo[:, 0]
    slem = min(max(abs(lambda2), abs(lambda_min)), 1.0)
    if OBS.enabled:
        OBS.add("core.incremental.cold_starts")
        OBS.add("core.incremental.matvecs", counter["matvecs"])
    return SpectralState(
        lambda2=lambda2,
        lambda_min=lambda_min,
        slem=slem,
        vec2=np.ascontiguousarray(vec2, dtype=np.float64),
        vec_min=np.ascontiguousarray(vec_min, dtype=np.float64),
        n=n,
        warm_started=False,
        matvecs=counter["matvecs"],
    )


def warm_spectral_extremes(
    graph: Graph,
    state: Optional[SpectralState] = None,
    *,
    changed_edges: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
    residual_tol: float = WARM_RESIDUAL_TOL,
    max_delta_fraction: float = MAX_WARM_DELTA_FRACTION,
) -> SpectralState:
    """Maintain the extreme eigenpairs of ``N``, warm-starting when safe.

    Parameters
    ----------
    graph:
        The *current* snapshot.
    state:
        The previous window's :class:`SpectralState` (or ``None`` for a
        cold start).
    changed_edges:
        Edges touched since ``state`` was computed; when it exceeds
        ``max_delta_fraction * graph.num_edges`` the warm seed is
        rejected and the solver recomputes cold.  ``None`` means
        "unknown but small" (warm is attempted when ``state`` fits).
    policy:
        Execution policy, validated and accepted for symmetry with the
        other sweeps; no execution knob changes a Lanczos matvec.

    The returned state satisfies the pinned agreement contract
    (:data:`WARM_SLEM_ATOL` against a cold solve) whichever path ran.
    """
    import scipy.sparse.linalg as spla

    as_policy(policy)
    warm_ok = (
        state is not None
        and state.n == graph.num_nodes
        and graph.num_nodes > _MIN_WARM_NODES
        and (
            changed_edges is None
            or changed_edges <= max_delta_fraction * max(graph.num_edges, 1)
        )
    )
    if not warm_ok:
        return _cold_state(graph)

    with OBS.span("incremental.warm", n=graph.num_nodes):
        op, counter, matrix = _counted_operator(graph)
        # The previous eigenvectors seed loose-tolerance Lanczos solves;
        # k=2 "LA" resolves (lambda_1 = 1, lambda_2) together, which is
        # cheaper than deflating lambda_1 out by hand.
        vals_hi, vecs_hi = spla.eigsh(
            op, k=2, which="LA", v0=state.vec2, tol=residual_tol
        )
        order = np.argsort(vals_hi)
        lambda2, vec2 = float(vals_hi[order[-2]]), vecs_hi[:, order[-2]]
        vals_lo, vecs_lo = spla.eigsh(
            op, k=1, which="SA", v0=state.vec_min, tol=residual_tol
        )
        lambda_min, vec_min = float(vals_lo[0]), vecs_lo[:, 0]
        # Explicit residual certificate: |theta - lambda| <= ||r||_2 for
        # symmetric N.  eigsh already guarantees it at exit, but a cold
        # recompute on violation costs little and removes all trust in
        # ARPACK's stopping rule from the agreement contract.
        res2 = float(np.linalg.norm(matrix @ vec2 - lambda2 * vec2))
        res_min = float(np.linalg.norm(matrix @ vec_min - lambda_min * vec_min))
        counter["matvecs"] += 2
    if max(res2, res_min) > 2.0 * residual_tol:
        return _cold_state(graph)
    slem = min(max(abs(lambda2), abs(lambda_min)), 1.0)
    if OBS.enabled:
        OBS.add("core.incremental.warm_starts")
        OBS.add("core.incremental.matvecs", counter["matvecs"])
    return SpectralState(
        lambda2=lambda2,
        lambda_min=lambda_min,
        slem=slem,
        vec2=np.ascontiguousarray(vec2, dtype=np.float64),
        vec_min=np.ascontiguousarray(vec_min, dtype=np.float64),
        n=graph.num_nodes,
        warm_started=True,
        matvecs=counter["matvecs"],
    )


@dataclass(frozen=True)
class SlemTrend:
    """SLEM (and friends) sampled across a temporal graph's windows."""

    times: Tuple[int, ...]
    slem: np.ndarray
    lambda2: np.ndarray
    lambda_min: np.ndarray
    warm_started: np.ndarray
    matvecs: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class MixingTrend:
    """Per-source TVD curves sampled across windows.

    ``distances`` has shape ``(num_times, num_sources, num_walks)``;
    :meth:`worst_case` collapses the source axis the same way
    :meth:`repro.core.mixing.PerSourceMixing.worst_case` does, so trend
    curves are directly comparable to static Figure 3 curves.
    """

    times: Tuple[int, ...]
    walk_lengths: Tuple[int, ...]
    sources: Tuple[int, ...]
    distances: np.ndarray

    def worst_case(self) -> np.ndarray:
        """``(num_times, num_walks)`` max-over-sources TVD."""
        return self.distances.max(axis=1)

    def average_case(self) -> np.ndarray:
        """``(num_times, num_walks)`` mean-over-sources TVD."""
        return self.distances.mean(axis=1)

    def __len__(self) -> int:
        return len(self.times)


def _resolve_times(temporal: TemporalGraph, times: Optional[Sequence[int]]) -> Tuple[int, ...]:
    if times is None:
        return temporal.times()
    resolved = tuple(int(t) for t in times)
    if not resolved:
        raise ConfigurationError("times must be non-empty")
    if any(b <= a for a, b in zip(resolved, resolved[1:])):
        raise ConfigurationError("times must be strictly increasing")
    return resolved


def slem_trend(
    temporal: TemporalGraph,
    times: Optional[Sequence[int]] = None,
    *,
    warm: bool = True,
    policy: Optional[ExecutionPolicy] = None,
) -> SlemTrend:
    """Track the SLEM across windows, warm-starting between them.

    With ``warm=False`` every window is solved cold — that is the
    baseline the temporal benchmark gates the warm path against.
    """
    resolved = _resolve_times(temporal, times)
    states = []
    state: Optional[SpectralState] = None
    prev_t: Optional[int] = None
    for t in resolved:
        graph = temporal.at(t)
        changed = temporal.changes_between(prev_t, t) if prev_t is not None else None
        state = warm_spectral_extremes(
            graph,
            state if warm else None,
            changed_edges=changed,
            policy=policy,
        )
        states.append(state)
        prev_t = t
    return SlemTrend(
        times=resolved,
        slem=np.array([s.slem for s in states]),
        lambda2=np.array([s.lambda2 for s in states]),
        lambda_min=np.array([s.lambda_min for s in states]),
        warm_started=np.array([s.warm_started for s in states]),
        matvecs=np.array([s.matvecs for s in states], dtype=np.int64),
    )


def mixing_trend(
    temporal: TemporalGraph,
    walk_lengths: Sequence[int],
    *,
    sources: Optional[Sequence[int]] = None,
    num_sources: int = 25,
    seed: int = 0,
    times: Optional[Sequence[int]] = None,
    laziness: float = 0.0,
    policy: Optional[ExecutionPolicy] = None,
) -> MixingTrend:
    """Measure TVD curves on every window with one fixed source set.

    Sources are sampled once (from the *base* snapshot, so they are
    valid nodes in every window) and reused, which makes drift across
    windows attributable to the graph rather than to resampling.
    """
    resolved = _resolve_times(temporal, times)
    base = temporal.at(resolved[0])
    if sources is None:
        chosen = sample_sources(base, min(num_sources, base.num_nodes), seed=seed)
    else:
        chosen = tuple(int(s) for s in sources)
    walks = tuple(int(w) for w in walk_lengths)
    rows = []
    for t in resolved:
        result = measure_mixing(
            temporal.at(t),
            walks,
            sources=chosen,
            laziness=laziness,
            policy=policy,
        )
        rows.append(result.distances)
    return MixingTrend(
        times=resolved,
        walk_lengths=walks,
        sources=tuple(chosen),
        distances=np.stack(rows, axis=0),
    )
