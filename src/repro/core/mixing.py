"""Definition-based mixing-time measurement (equation (2)).

    T(eps) = max_i min { t : || pi - pi^{(i)} P^t ||_1 < eps }

The measurement machinery follows Section 3.3 exactly:

* start from a point-mass distribution at a source node,
* evolve it step by step with sparse vector–matrix products,
* record the total variation distance to the stationary distribution at
  every step,
* either brute-force over *every* source (small graphs — Figures 3-5) or
  over a random sample of sources, 1000 in the paper (large graphs —
  Figures 6-7).

Because T(eps) is a maximum over sources, any subset of sources yields a
*lower bound* on the true mixing time — the direction the paper cares
about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import ConfigurationError, ConvergenceError
from ..graph import Graph
from .._util import as_rng
from .operators import MarkovOperator, _check_walk_lengths
from .runtime import ExecutionPolicy, as_policy
from .walks import TransitionOperator

__all__ = [
    "MEASUREMENT_MODES",
    "variation_distance_curve",
    "mixing_time_from_source",
    "PerSourceMixing",
    "measure_mixing",
    "sample_sources",
    "MixingTimeEstimate",
    "estimate_mixing_time",
]

#: Estimator modes accepted by :func:`measure_mixing` /
#: :func:`estimate_mixing_time` (and the service query vocabulary).
#:
#: ``"point_mass"``
#:     The paper's definition: one walk per source node, started from a
#:     point mass (default, bit-for-bit the historical behaviour).
#: ``"uniform_start"``
#:     One walk started from the *uniform* distribution — the
#:     warm-started estimator of "Speeding up random walk mixing by
#:     starting from a uniform vertex": a single evolved row replaces
#:     ``s`` point-mass rows, trading the per-source worst case for the
#:     averaged start at a fraction of the cost.  ``sources`` is ignored
#:     and the result carries the sentinel source ``-1``.
#: ``"non_backtracking"``
#:     Hashimoto-style edge-space walks (see
#:     :mod:`repro.core.nonbacktracking`): per-source walks that never
#:     immediately reverse an edge, measured on node occupancies against
#:     ``deg/2m``.  Requires ``laziness == 0`` and builds its own arc
#:     operator (a supplied node-space ``operator`` is rejected).
MEASUREMENT_MODES = ("point_mass", "uniform_start", "non_backtracking")


def _check_mode(mode: str, *, laziness: float, operator) -> str:
    """Validate an estimator mode against the other knobs."""
    if mode not in MEASUREMENT_MODES:
        raise ConfigurationError(
            f"unknown measurement mode {mode!r}; expected one of {MEASUREMENT_MODES}"
        )
    if mode == "non_backtracking":
        if laziness != 0.0:
            raise ConfigurationError(
                "non_backtracking mode does not support laziness "
                "(the Hashimoto chain has no lazy variant here)"
            )
        from .nonbacktracking import NonBacktrackingOperator

        if operator is not None and not isinstance(operator, NonBacktrackingOperator):
            raise ConfigurationError(
                "non_backtracking mode requires a NonBacktrackingOperator "
                f"(got {type(operator).__name__})"
            )
    return mode


def variation_distance_curve(
    operator: MarkovOperator,
    source: int,
    max_steps: int,
) -> np.ndarray:
    """``curve[t] = || pi - pi^{(source)} P^t ||_1`` for t = 0..max_steps.

    Works for *any* :class:`~repro.core.operators.MarkovOperator`
    (undirected, directed, weighted); delegates to the shared
    :meth:`~repro.core.operators.MarkovOperator.variation_curve`.
    """
    return operator.variation_curve(source, max_steps)


def mixing_time_from_source(
    operator: MarkovOperator,
    source: int,
    epsilon: float,
    *,
    max_steps: int = 10_000,
) -> int:
    """Minimal t with variation distance below ``epsilon`` from ``source``.

    Raises :class:`ConvergenceError` (carrying the distance reached) when
    ``max_steps`` is hit first.
    """
    result = operator.hitting_times([source], epsilon, max_steps=max_steps)
    time = int(result.times[0])
    if time < 0:
        dist = float(result.final_distances[0])
        raise ConvergenceError(
            f"variation distance still {dist:.4g} >= {epsilon} after {max_steps} steps",
            partial=dist,
        )
    return time


def sample_sources(
    graph: Graph,
    count: Optional[int],
    *,
    seed=None,
) -> np.ndarray:
    """Source nodes for a measurement.

    ``count=None`` (or >= n) means *every* node — the brute-force mode of
    Figures 3-5; otherwise a uniform sample without replacement (the
    paper uses 1000).
    """
    n = graph.num_nodes
    if count is None or count >= n:
        return np.arange(n, dtype=np.int64)
    if count <= 0:
        raise ValueError("count must be positive")
    rng = as_rng(seed)
    return np.sort(rng.choice(n, size=count, replace=False)).astype(np.int64)


@dataclass
class PerSourceMixing:
    """Variation-distance trajectories for a set of sources.

    Attributes
    ----------
    sources:
        Node ids measured, shape ``(s,)``.
    walk_lengths:
        The walk lengths at which distances were recorded, shape ``(w,)``.
    distances:
        ``distances[i, j]`` = TVD between ``pi`` and the distribution of a
        walk of length ``walk_lengths[j]`` started at ``sources[i]``.
    """

    sources: np.ndarray
    walk_lengths: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        if self.distances.shape != (self.sources.size, self.walk_lengths.size):
            raise ValueError("distances must be (num_sources, num_walk_lengths)")

    # -- aggregations ---------------------------------------------------
    def worst_case(self) -> np.ndarray:
        """max over sources at each walk length (the definition's max_i)."""
        return self.distances.max(axis=0)

    def average_case(self) -> np.ndarray:
        """mean over sources at each walk length (the paper's 'average
        mixing time' perspective, Section 5)."""
        return self.distances.mean(axis=0)

    def quantile(self, q: float) -> np.ndarray:
        """Per-walk-length quantile over sources."""
        return np.quantile(self.distances, q, axis=0)

    def mixing_time(self, epsilon: float) -> int:
        """Smallest recorded walk length where the worst source is below
        ``epsilon``; raises :class:`ConvergenceError` if none is."""
        worst = self.worst_case()
        hits = np.flatnonzero(worst < epsilon)
        if hits.size == 0:
            raise ConvergenceError(
                f"no recorded walk length reaches epsilon={epsilon}; "
                f"best worst-case distance is {worst.min():.4g}",
                partial=float(worst.min()),
            )
        return int(self.walk_lengths[hits[0]])

    def epsilon_at(self, walk_length: int) -> np.ndarray:
        """Distances of every source at one recorded walk length."""
        hits = np.flatnonzero(self.walk_lengths == walk_length)
        if hits.size == 0:
            raise KeyError(f"walk length {walk_length} was not recorded")
        return self.distances[:, hits[0]]


def measure_mixing(
    graph: Graph,
    walk_lengths: Sequence[int],
    *,
    sources: Union[None, int, Sequence[int]] = None,
    seed=None,
    laziness: float = 0.0,
    check_aperiodic: bool = True,
    operator: Optional[MarkovOperator] = None,
    policy: Optional[ExecutionPolicy] = None,
    mode: str = "point_mass",
) -> PerSourceMixing:
    """Measure variation distance at the given walk lengths.

    Parameters
    ----------
    walk_lengths:
        Strictly increasing nonnegative walk lengths to record (e.g.
        ``[1, 5, 10, 20, 40]`` for Figure 3).
    sources:
        ``None`` → every node (brute force); an int → that many uniformly
        sampled sources; a sequence → exactly those nodes.
    laziness:
        Forwarded to :class:`TransitionOperator` (use > 0 on bipartite
        graphs).
    operator:
        A pre-built operator over ``graph`` to sweep with instead of
        constructing one — the warm path used by the service layer's
        operator registry (:mod:`repro.service`), where construction and
        connectivity checks are paid once across many requests.  Must
        have been built over ``graph`` with the same ``laziness``; when
        given, ``laziness``/``check_aperiodic`` are ignored.  Results
        are bit-identical to the cold path because the sweep itself is
        unchanged.
    policy:
        An :class:`~repro.core.runtime.ExecutionPolicy` bundling all
        execution knobs (workers, block size, retries, shard timeout,
        checkpoint directory).  ``workers > 1`` runs the process-pool
        sweep runtime (:mod:`repro.core.parallel`), bit-for-bit equal
        to serial; ``block_size=None`` sizes chunks from the operator
        layer's memory budget.  Passing ``checkpoint_dir`` makes this
        sweep resumable: completed shards are persisted and skipped on
        restart, with bit-identical final output.
    mode:
        Estimator mode — see :data:`MEASUREMENT_MODES`.  The default
        ``"point_mass"`` is the paper's definition and is bit-for-bit
        the historical behaviour.

    All sources are evolved through the shared
    :meth:`~repro.core.operators.MarkovOperator.variation_curves` block
    API — one sparse-times-dense product advances a whole chunk per step,
    an order of magnitude faster than per-source vector products (same
    math, bit-identical results).
    """
    _check_mode(mode, laziness=laziness, operator=operator)
    lengths = _check_walk_lengths(list(walk_lengths))
    run_policy = as_policy(policy)

    if mode == "uniform_start":
        if operator is None:
            operator = TransitionOperator(
                graph, laziness=laziness, check_aperiodic=check_aperiodic
            )
        uniform = np.full(
            (1, operator.num_states), 1.0 / operator.num_states, dtype=np.float64
        )
        out = operator.distribution_variation_curves(
            uniform, lengths, policy=run_policy
        )
        return PerSourceMixing(
            sources=np.array([-1], dtype=np.int64),
            walk_lengths=lengths,
            distances=out,
        )

    if sources is None or isinstance(sources, (int, np.integer)):
        source_ids = sample_sources(graph, None if sources is None else int(sources), seed=seed)
    else:
        source_ids = np.asarray(list(sources), dtype=np.int64)
        if source_ids.size == 0:
            raise ValueError("sources must be non-empty")

    if mode == "non_backtracking":
        from .nonbacktracking import non_backtracking_curves

        out = non_backtracking_curves(
            graph, source_ids, lengths, operator=operator, policy=run_policy
        )
        return PerSourceMixing(
            sources=source_ids, walk_lengths=lengths, distances=out
        )

    if operator is None:
        operator = TransitionOperator(
            graph, laziness=laziness, check_aperiodic=check_aperiodic
        )
    out = operator.variation_curves(source_ids, lengths, policy=run_policy)
    return PerSourceMixing(sources=source_ids, walk_lengths=lengths, distances=out)


@dataclass(frozen=True)
class MixingTimeEstimate:
    """A sampled lower-bound estimate of T(eps).

    ``walk_length`` is the smallest t at which *all* measured sources were
    within eps; ``per_source`` holds each source's individual hitting
    time (entries are -1 for sources that never got below eps within
    ``max_steps``).
    """

    epsilon: float
    walk_length: int
    per_source: np.ndarray
    sources: np.ndarray
    exhaustive: bool

    @property
    def average_walk_length(self) -> float:
        """Mean hitting time over sources that converged."""
        ok = self.per_source[self.per_source >= 0]
        if ok.size == 0:
            return float("nan")
        return float(ok.mean())


def estimate_mixing_time(
    graph: Graph,
    epsilon: float,
    *,
    sources: Union[None, int, Sequence[int]] = None,
    max_steps: int = 10_000,
    seed=None,
    laziness: float = 0.0,
    operator: Optional[MarkovOperator] = None,
    policy: Optional[ExecutionPolicy] = None,
    mode: str = "point_mass",
) -> MixingTimeEstimate:
    """Estimate T(eps) by per-source hitting times of the eps ball.

    ``operator`` (optional) is a pre-built operator over ``graph`` — the
    warm path used by the service registry; ``laziness`` is ignored when
    it is given, and results are bit-identical to cold construction.
    ``mode`` selects the estimator (see :data:`MEASUREMENT_MODES`):
    ``"uniform_start"`` reports the single hitting time of the uniform
    start (sentinel source ``-1``), ``"non_backtracking"`` the per-source
    hitting times of the Hashimoto walk measured on node occupancies.

    All sources are evolved as one chunked block through
    :meth:`~repro.core.operators.MarkovOperator.hitting_times`, with
    early-exit masking: rows whose distance has already fallen below
    ``epsilon`` stop being stepped, so the block shrinks as sources
    converge.  ``policy.workers > 1`` shards the sources across the
    fork process pool (:mod:`repro.core.parallel`) with
    bit-for-bit identical results.

    Returns a :class:`MixingTimeEstimate`; raises
    :class:`ConvergenceError` when *no* source converges within
    ``max_steps`` (partial results are attached to the error).
    """
    _check_mode(mode, laziness=laziness, operator=operator)
    run_policy = as_policy(policy)

    if mode == "uniform_start":
        if operator is None:
            operator = TransitionOperator(graph, laziness=laziness)
        uniform = np.full(
            (1, operator.num_states), 1.0 / operator.num_states, dtype=np.float64
        )
        result = operator.distribution_hitting_times(
            uniform, epsilon, max_steps=max_steps, policy=run_policy
        )
        times = result.times
        if np.all(times < 0):
            raise ConvergenceError(
                f"uniform start did not reach epsilon={epsilon} within {max_steps} steps",
                partial=times,
            )
        return MixingTimeEstimate(
            epsilon=float(epsilon),
            walk_length=int(times.max()),
            per_source=times,
            sources=np.array([-1], dtype=np.int64),
            exhaustive=False,
        )

    if sources is None or isinstance(sources, (int, np.integer)):
        source_ids = sample_sources(graph, None if sources is None else int(sources), seed=seed)
        exhaustive = sources is None
    else:
        source_ids = np.asarray(list(sources), dtype=np.int64)
        exhaustive = False
    if mode == "non_backtracking":
        from .nonbacktracking import non_backtracking_hitting_times

        times = non_backtracking_hitting_times(
            graph,
            source_ids,
            epsilon,
            max_steps=max_steps,
            operator=operator,
            policy=run_policy,
        ).times
    else:
        if operator is None:
            operator = TransitionOperator(graph, laziness=laziness)
        times = operator.hitting_times(
            source_ids,
            epsilon,
            max_steps=max_steps,
            policy=run_policy,
        ).times
    if np.all(times < 0):
        raise ConvergenceError(
            f"no source reached epsilon={epsilon} within {max_steps} steps",
            partial=times,
        )
    walk_length = int(times.max()) if np.all(times >= 0) else int(max_steps)
    return MixingTimeEstimate(
        epsilon=float(epsilon),
        walk_length=walk_length,
        per_source=times,
        sources=source_ids,
        exhaustive=exhaustive and source_ids.size == graph.num_nodes,
    )
