"""Unified Markov-operator layer and the one TVD sweep core.

Every random-walk variant in the reproduction — the plain simple random
walk (:class:`~repro.core.walks.TransitionOperator`), the teleporting
directed walk (:class:`~repro.core.directed.DirectedTransitionOperator`),
the trust-weighted walk
(:class:`~repro.core.trust.WeightedTransitionOperator`) and the
non-backtracking arc walk
(:class:`~repro.core.nonbacktracking.NonBacktrackingOperator`) — is a
row-stochastic Markov operator evolved the same way: start from a row
vector, repeatedly right-multiply by ``P``, and record the total
variation distance to a reference distribution.

:class:`MarkovOperator` owns validation, point masses and stepping
(:meth:`~MarkovOperator.step_block` advances a whole ``(s, n)`` block
with one sparse-times-dense product, dispatching to the subclass kernel
:meth:`~MarkovOperator._apply_block`).  The measurement itself —
equation (2) of the paper — is one loop, :func:`_sweep`: build the
first block of a chunk, step it, reduce each row's TVD to the reference
(optionally after mapping the block, e.g. arcs onto nodes), and stop by
one of two rules:

* *checkpoints* — record the TVD at given walk lengths
  (:meth:`MarkovOperator.variation_curves`, Figures 3–4);
* *ε-hitting* — retire a row once its TVD drops below ε
  (:meth:`MarkovOperator.hitting_times`, Figure 5), so the stepped
  block shrinks as sources converge.

The point-mass, distribution-start, non-backtracking and
originator-biased sweeps differ only in how the first block is built
and stepped; each is argument validation plus one call into the core,
which sizes every chunk from :func:`policy_block_bytes`.

Block rows are bit-for-bit identical to sequential 1-D evolution (scipy's
CSR mat-vec accumulates in the same order either way), so batching changes
wall-clock time, never results; the property tests in
``tests/core/test_operators.py`` pin that invariant for all operators,
laziness settings and chunk boundaries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .._util import check_node_index, check_probability_vector
from ..obs import OBS
from .distances import total_variation_to_reference
from .outofcore import StripedTransitionMatrix
from .runtime import ExecutionPolicy, as_policy

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "HittingTimes",
    "MarkovOperator",
    "policy_block_bytes",
    "resolve_block_size",
]

#: Default memory budget for one dense ``(s, n)`` float64 evolution block.
#: The SpMM streams the whole block every step, so the block must fit in
#: cache, not merely in RAM: sweeping chunk sizes on the stand-in datasets
#: shows throughput collapsing once the block outgrows a few MiB (a
#: (1000, 10000) block — 80 MB — is ~5x slower per row than 16-row
#: chunks).  1 MiB lands in the 16-128 row sweet spot for every dataset
#: in the registry.
DEFAULT_BLOCK_BYTES: int = 1024 * 1024

#: Hard cap on rows per chunk: past this, wider blocks stop amortising
#: Python/scipy call overhead and only add memory pressure (tiny graphs
#: would otherwise get million-row chunks from the byte budget alone).
_MAX_BLOCK_ROWS: int = 1024

#: A sweep step: ``step(x, rows)`` advances block ``x`` by one step;
#: ``rows`` are the positions of its rows within the sweep.
SweepStep = Callable[[np.ndarray, np.ndarray], np.ndarray]


def resolve_block_size(
    num_states: int,
    block_size: Optional[int] = None,
    *,
    memory_budget_bytes: int = DEFAULT_BLOCK_BYTES,
) -> int:
    """Rows per evolution chunk.

    ``block_size=None`` sizes the chunk so one ``(s, n)`` float64 block
    stays under ``memory_budget_bytes`` (capped at ``1024`` rows, floored
    at ``1`` — a budget smaller than a single row still yields one row,
    never a zero-row chunk); an explicit positive ``block_size`` is
    honoured verbatim.  Degenerate inputs fail loudly instead of
    producing degenerate block shapes: ``num_states < 1`` (a chain with
    no states has no rows to chunk), non-positive or non-integral
    ``block_size`` overrides, and non-positive memory budgets all raise
    :class:`ValueError`.
    """
    num_states = int(num_states)
    if num_states < 1:
        raise ValueError(f"num_states must be a positive integer, got {num_states}")
    if block_size is not None:
        size = int(block_size)
        if size != block_size:
            raise ValueError(f"block_size must be an integer, got {block_size!r}")
        if size < 1:
            raise ValueError("block_size must be a positive integer")
        return size
    if memory_budget_bytes < 1:
        raise ValueError("memory_budget_bytes must be positive")
    rows = int(memory_budget_bytes) // (8 * num_states)
    return int(max(1, min(rows, _MAX_BLOCK_ROWS)))


def policy_block_bytes(policy: ExecutionPolicy) -> int:
    """Dense-block byte budget implied by one :class:`ExecutionPolicy`.

    Without a ``memory_budget`` this is the historical
    :data:`DEFAULT_BLOCK_BYTES`; with one, the dense ``(s, n)``
    evolution block gets half the budget (a memory-mapped operand's
    double-buffered stripes are planned from the whole budget; see
    :class:`~repro.core.runtime.ExecutionPolicy`), floored at one row's
    worth so a tiny budget still makes progress.  Purely an execution
    decision — chunk boundaries are bit-for-bit neutral.
    """
    if policy.memory_budget is None:
        return DEFAULT_BLOCK_BYTES
    return max(policy.memory_budget // 2, 8)


class HittingTimes(NamedTuple):
    """Result of :meth:`MarkovOperator.hitting_times`.

    Attributes
    ----------
    times:
        Per-source first step count with distance below epsilon
        (``-1`` for sources that never converged within the budget).
    final_distances:
        The distance recorded when the row stopped being stepped: at the
        hitting time for converged rows, at ``max_steps`` otherwise.
    """

    times: np.ndarray
    final_distances: np.ndarray


class MarkovOperator(ABC):
    """Abstract row-stochastic operator with shared evolution machinery.

    Subclasses call :meth:`_init_operator` with the state count (and
    usually set ``self._matrix`` to a scipy CSR transition matrix, which
    the default :meth:`_apply_block` kernel uses).  Operators whose step
    is not a plain ``X @ P`` (e.g. teleporting chains) override
    :meth:`_apply_block` only — every public method funnels through it.
    """

    _num_states: int

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _init_operator(self, num_states: int) -> None:
        """Initialise shared state; must run before any evolution call."""
        self._num_states = int(num_states)
        self._stationary_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Abstract surface
    # ------------------------------------------------------------------
    @abstractmethod
    def _compute_stationary(self) -> np.ndarray:
        """Compute the stationary distribution (uncached)."""

    def _apply_block(self, block: np.ndarray) -> np.ndarray:
        """One unvalidated step of a ``(s, n)`` block: ``X @ P``.

        The default kernel multiplies by ``self._matrix``; subclasses with
        extra dynamics (teleporting, dangling mass) override this single
        method and inherit everything else.
        """
        return np.asarray(block @ self._matrix)

    def _resolve_step(self, policy: ExecutionPolicy):
        """The step kernel for ``policy``; the operand decides it.

        A memory-mapped operand (a
        :class:`~repro.core.outofcore.StripedTransitionMatrix` under the
        base kernel) with a ``policy.memory_budget`` steps through the
        matrix's stripe kernel planned for that budget.  Everything else
        steps through :meth:`_apply_block`: scipy's ``block @ csr`` for
        in-memory matrices, the default-budget stripe walk for mapped
        ones, and the subclass's own dynamics where it overrides the
        kernel.  Every choice gives the same bits.
        """
        matrix = getattr(self, "_matrix", None)
        if (
            policy.memory_budget is not None
            and isinstance(matrix, StripedTransitionMatrix)
            and type(self)._apply_block is MarkovOperator._apply_block
        ):
            return matrix.budgeted_step(policy.memory_budget)
        return self._apply_block

    # ------------------------------------------------------------------
    # Shared properties
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of chain states (= graph nodes)."""
        return self._num_states

    def stationary(self) -> np.ndarray:
        """The stationary distribution ``pi`` (memoised, read-only).

        The first call computes it (closed form for reversible chains,
        power iteration for directed ones); later calls return the cached
        vector.  The array is marked read-only so the cache cannot be
        corrupted through the returned reference.
        """
        if self._stationary_cache is None:
            pi = np.asarray(self._compute_stationary(), dtype=np.float64)
            pi.setflags(write=False)
            self._stationary_cache = pi
        return self._stationary_cache

    # ------------------------------------------------------------------
    # Unified validation (single source of truth for all operators)
    # ------------------------------------------------------------------
    def _check_vector(self, distribution: np.ndarray, *, name: str = "distribution") -> np.ndarray:
        """Shape/dtype gate for a single row distribution."""
        x = np.asarray(distribution, dtype=np.float64)
        if x.shape != (self._num_states,):
            raise ValueError(
                f"{name} must have shape ({self._num_states},), got {x.shape}"
            )
        return x

    def _check_block(self, block: np.ndarray, *, name: str = "block") -> np.ndarray:
        """Shape/dtype gate for an ``(s, n)`` block of row distributions."""
        x = np.asarray(block, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self._num_states:
            raise ValueError(
                f"{name} must have shape (s, {self._num_states}), got {x.shape}"
            )
        return x

    # ------------------------------------------------------------------
    # Point masses
    # ------------------------------------------------------------------
    def point_mass(self, node: int) -> np.ndarray:
        """The initial distribution pi^{(i)} concentrated at ``node``."""
        node = check_node_index(node, self._num_states)
        x = np.zeros(self._num_states, dtype=np.float64)
        x[node] = 1.0
        return x

    def point_mass_block(self, sources: Sequence[int]) -> np.ndarray:
        """The ``(s, n)`` block whose row ``i`` is a point mass at
        ``sources[i]`` — the batched starting state of equation (2)."""
        src = np.asarray(sources, dtype=np.int64).ravel()
        if src.size == 0:
            raise ValueError("sources must be non-empty")
        if np.any(src < 0) or np.any(src >= self._num_states):
            raise IndexError(
                f"sources out of range for operator with {self._num_states} states"
            )
        block = np.zeros((src.size, self._num_states), dtype=np.float64)
        block[np.arange(src.size), src] = 1.0
        return block

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, distribution: np.ndarray) -> np.ndarray:
        """One step: returns ``x P`` for a row distribution ``x``."""
        x = self._check_vector(distribution)
        return self._apply_block(x[np.newaxis, :])[0]

    def step_block(self, block: np.ndarray) -> np.ndarray:
        """One step of a whole ``(s, n)`` block: ``X P``.

        Row ``i`` of the result is bit-for-bit what ``step`` would return
        for row ``i`` of the input — batching is a pure speed transform.
        """
        x = self._check_block(block)
        if OBS.enabled:
            OBS.add("core.step_block.calls")
            OBS.add("core.step_block.rows", x.shape[0])
        return self._apply_block(x)

    def evolve(self, distribution: np.ndarray, steps: int, *, validate: bool = True) -> np.ndarray:
        """The distribution after ``steps`` applications of P."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        x = (
            check_probability_vector(distribution, name="distribution")
            if validate
            else self._check_vector(distribution)
        )
        block = x[np.newaxis, :]
        for _ in range(steps):
            block = self._apply_block(block)
        return block[0]

    def evolve_block(
        self,
        block: np.ndarray,
        steps: int,
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """A whole block after ``steps`` applications of P.

        ``policy`` (an :class:`~repro.core.runtime.ExecutionPolicy`)
        steers execution: ``workers > 1`` shards the block's rows across
        the fault-tolerant process pool (rows are independent chains, so
        sharding is bit-for-bit neutral); the serial path runs whenever
        the pool is unavailable or pointless (see
        :mod:`repro.core.parallel`).
        """
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        policy = as_policy(policy)
        x = self._check_block(block)
        with OBS.span(
            "core.evolve_block",
            operator=type(self).__name__,
            rows=int(x.shape[0]),
            steps=int(steps),
        ):
            if policy.workers is not None:
                from .parallel import maybe_parallel_evolve_block

                out = maybe_parallel_evolve_block(self, x, steps, policy=policy)
                if out is not None:
                    return out
            if OBS.enabled:
                OBS.add("core.evolution.rows", x.shape[0])
                OBS.add("core.evolution.steps", steps * x.shape[0])
            apply_step = self._resolve_step(policy)
            for _ in range(steps):
                x = apply_step(x)
            return x

    def trajectory(self, distribution: np.ndarray, steps: int, *, validate: bool = True) -> np.ndarray:
        """All intermediate distributions: shape ``(steps + 1, n)``.

        Row ``t`` is the distribution after ``t`` steps (row 0 is the
        input).  Memory is ``(steps + 1) * n`` floats — use
        :meth:`evolve` when only the endpoint matters.
        """
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        x = (
            check_probability_vector(distribution, name="distribution")
            if validate
            else self._check_vector(distribution)
        )
        out = np.empty((steps + 1, self._num_states), dtype=np.float64)
        out[0] = x
        for t in range(1, steps + 1):
            out[t] = self._apply_block(out[t - 1][np.newaxis, :])[0]
        return out

    # ------------------------------------------------------------------
    # Batched measurement primitives (the Figure 3-7 hot path)
    # ------------------------------------------------------------------
    def _reference(self, reference: Optional[np.ndarray]) -> np.ndarray:
        """``reference`` validated, or :meth:`stationary` when omitted."""
        if reference is None:
            return self.stationary()
        return self._check_vector(reference, name="reference")

    def variation_curve(
        self,
        source: int,
        max_steps: int,
        *,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """``curve[t] = || pi - pi^{(source)} P^t ||_1`` for t = 0..max_steps.

        ``reference`` defaults to :meth:`stationary`; pass a different
        distribution to measure against (the originator-biased study
        measures biased walks against the *plain* pi, for example).
        """
        max_steps = _check_steps(max_steps)
        return self.variation_curves(
            [source], np.arange(max_steps + 1), reference=reference, policy=policy
        )[0]

    def variation_curves(
        self,
        sources: Sequence[int],
        walk_lengths: Sequence[int],
        *,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """TVD to ``reference`` at each checkpoint for every source.

        Returns a ``(s, w)`` array with
        ``out[i, j] = || ref - pi^{(sources[i])} P^{walk_lengths[j]} ||_1``.
        Sources are evolved as one dense block per chunk (one SpMM per
        step advances the whole chunk), with the chunk size resolved via
        :func:`resolve_block_size` so the buffer respects the memory
        budget.  Execution is steered by ``policy`` (an
        :class:`~repro.core.runtime.ExecutionPolicy`): ``workers > 1``
        fans the chunks out across the fault-tolerant fork pool
        (:mod:`repro.core.parallel`) with bit-for-bit identical,
        order-preserving results, and ``checkpoint_dir`` persists/
        resumes completed shards.
        """
        lengths = _check_walk_lengths(walk_lengths)
        policy = as_policy(policy)
        src = np.asarray(sources, dtype=np.int64).ravel()
        ref = self._reference(reference)

        def fan_out():
            from .parallel import maybe_parallel_variation_curves

            return maybe_parallel_variation_curves(
                self, src, lengths, reference=ref, policy=policy
            )

        return self._point_mass_sweep(
            "core.variation_curves", src, ref, policy, fan_out,
            {"checkpoints": int(lengths.size), "max_walk": int(lengths[-1])},
            checkpoints=lengths,
        )

    def hitting_times(
        self,
        sources: Sequence[int],
        epsilon: float,
        *,
        max_steps: int = 10_000,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> HittingTimes:
        """Per-source ``min { t : || ref - pi^{(i)} P^t ||_1 < eps }``.

        The batched analogue of the per-source hitting-time loop: each
        chunk is evolved as a block, and rows whose distance has already
        fallen below ``epsilon`` are *retired* from the block (early-exit
        masking), so the SpMM shrinks as sources converge.  Rows that
        never converge within ``max_steps`` get time ``-1``.
        ``workers > 1`` shards the sources across the fork
        process pool (:mod:`repro.core.parallel`); early-exit masking
        then runs independently inside every worker, and the reassembled
        result is bit-for-bit equal to the serial one.
        """
        max_steps = _check_hitting(epsilon, max_steps)
        policy = as_policy(policy)
        src = np.asarray(sources, dtype=np.int64).ravel()
        ref = self._reference(reference)

        def fan_out():
            from .parallel import maybe_parallel_hitting_times

            return maybe_parallel_hitting_times(
                self, src, epsilon, max_steps=max_steps, reference=ref, policy=policy
            )

        return self._point_mass_sweep(
            "core.hitting_times", src, ref, policy, fan_out,
            {"epsilon": float(epsilon), "max_steps": int(max_steps)},
            epsilon=epsilon, max_steps=max_steps,
        )

    def _point_mass_sweep(self, name, src, ref, policy, fan_out, attributes, **stop):
        """The point-mass sweep under a ``name`` span: pool or checkpointed
        execution when the policy asks for it (``fan_out()`` returns
        ``None`` to decline), else the core in this process."""
        with OBS.span(
            name, operator=type(self).__name__, sources=int(src.size), **attributes
        ) as span:
            if policy.workers is not None or policy.checkpoint_dir is not None:
                out = fan_out()
                if out is not None:
                    return out
            return _sweep(
                lambda lo, hi: self.point_mass_block(src[lo:hi]),
                src.size,
                _rowless(self._resolve_step(policy)),
                ref,
                self._num_states,
                policy,
                span=span,
                **stop,
            )

    # ------------------------------------------------------------------
    # Distribution-start measurement (uniform-start / warm-start modes)
    # ------------------------------------------------------------------
    def distribution_variation_curves(
        self,
        block: np.ndarray,
        walk_lengths: Sequence[int],
        *,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """TVD checkpoints for walks started from *given* distributions.

        The generalisation of :meth:`variation_curves` from point masses
        to arbitrary initial rows — the primitive behind the
        uniform-start estimator ("start the walk at a uniformly random
        vertex" collapses ``s`` point-mass sweeps into evolving the one
        uniform row) and behind warm-started measurement generally.
        Rows are chunked exactly like the point-mass path and evolved
        with the operator's step kernel; the sweep is serial by
        design (the callers pass a handful of rows, far below where the
        pool pays for itself).
        """
        lengths = _check_walk_lengths(walk_lengths)
        return self._distribution_sweep(block, reference, policy, checkpoints=lengths)

    def distribution_hitting_times(
        self,
        block: np.ndarray,
        epsilon: float,
        *,
        max_steps: int = 10_000,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> HittingTimes:
        """Per-row ``min { t : || ref - x_i P^t ||_1 < eps }`` for given rows.

        The distribution-start analogue of :meth:`hitting_times`, with
        the same early-exit masking (converged rows retire from the
        block).  Rows that never converge within ``max_steps`` get time
        ``-1``.
        """
        max_steps = _check_hitting(epsilon, max_steps)
        return self._distribution_sweep(
            block, reference, policy, epsilon=epsilon, max_steps=max_steps
        )

    def _distribution_sweep(self, block, reference, policy, **stop):
        policy = as_policy(policy)
        x_all = self._check_block(block)
        return _sweep(
            lambda lo, hi: x_all[lo:hi].copy(),
            x_all.shape[0],
            _rowless(self._resolve_step(policy)),
            self._reference(reference),
            self._num_states,
            policy,
            **stop,
        )


# ----------------------------------------------------------------------
# The sweep core: every TVD measurement in the package runs this loop
# ----------------------------------------------------------------------
def _check_walk_lengths(walk_lengths: Sequence[int]) -> np.ndarray:
    """Checkpoint walk lengths as a strictly increasing int64 array."""
    raw = np.asarray(walk_lengths).ravel()
    lengths = raw.astype(np.int64)
    if not np.array_equal(lengths, raw):
        raise ValueError(f"walk_lengths must be integers, got {walk_lengths!r}")
    if lengths.size == 0:
        raise ValueError("walk_lengths must be non-empty")
    if np.any(lengths < 0) or np.any(np.diff(lengths) <= 0):
        raise ValueError("walk_lengths must be strictly increasing and nonnegative")
    return lengths


def _check_steps(max_steps: int) -> int:
    """``max_steps`` as an ``int``; fractions and negatives raise."""
    steps = int(max_steps)
    if steps != max_steps:
        raise ValueError(f"max_steps must be an integer, got {max_steps!r}")
    if steps < 0:
        raise ValueError("max_steps must be nonnegative")
    return steps


def _check_hitting(epsilon: float, max_steps: int) -> int:
    """Validate an ε-hitting request; returns ``max_steps`` as an ``int``."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    return _check_steps(max_steps)


def _rowless(apply_step: Callable[[np.ndarray], np.ndarray]) -> SweepStep:
    """Adapt a plain block kernel to the core's ``step(x, rows)`` form."""
    return lambda x, _rows: apply_step(x)


#: Steps between certified TVD checks on the ε-hitting path; see
#: :func:`_replay_threshold`.  K = 2, 4 and 8 measured 119.7, 114.4 and
#: 115.5 ms per pooled 64-source slashdot1 call (EXPERIMENTS.md, "Where
#: ε-hitting time goes"); re-pick only on measurement.
_CHECK_EVERY: int = 4


def _gamma(terms: int, unit: float) -> float:
    """Higham's ``γ_m = m·u / (1 − m·u)``, or ``inf`` once ``m·u ≥ 1``."""
    mu = terms * unit
    return mu / (1.0 - mu) if mu < 1.0 else float("inf")


def _replay_threshold(
    step: SweepStep,
    reference: np.ndarray,
    epsilon: float,
    every: int,
) -> Optional[float]:
    """Distance below which a row must be replayed at an ``every``-step check.

    A computed distance at or above the returned value certifies that
    the per-step loop would not have retired the row at any of the
    ``every`` steps since the last check; ``None`` means the bound is
    too loose to help (``every`` times the per-step slack reaches
    ``epsilon``) and the caller checks every step.  The slack is the
    reference's own drift ``TVD(step(r), r)``, measured with the sweep's
    kernel, plus float64 rounding bounds for the step and the TVD
    reduction.  DESIGN.md §5 derives it.
    """
    n = reference.shape[0]
    h = _gamma(n + 8, np.finfo(np.float64).eps / 2)
    if not h < 0.005:
        return None
    probe = step(reference[np.newaxis, :], np.zeros(1, dtype=np.int64))
    drift = float(total_variation_to_reference(probe, reference, validate=False)[0])
    mass = float(np.abs(reference).sum()) / (1.0 - h)
    slack = drift / (1.0 - h) + h * (mass + 7.0)
    if not every * slack < epsilon:
        return None
    return (1.0 + h) * (epsilon / (1.0 - h) + every * slack)


def _sweep(
    start: Callable[[int, int], np.ndarray],
    num_rows: int,
    step: SweepStep,
    reference: np.ndarray,
    num_states: int,
    policy: ExecutionPolicy,
    *,
    checkpoints: Optional[np.ndarray] = None,
    epsilon: Optional[float] = None,
    max_steps: int = 0,
    measure: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    span=None,
):
    """Evolve ``num_rows`` start rows and record their TVD to ``reference``.

    ``start(lo, hi)`` builds the first block of rows ``[lo, hi)``;
    ``step(x, rows)`` advances block ``x`` one step, ``rows`` being the
    positions of its rows in ``[0, num_rows)``; ``measure``, when given,
    maps a block into the space ``reference`` lives in before the TVD.
    Rows are processed in chunks sized from :func:`policy_block_bytes`
    for rows ``num_states`` wide.  One stop rule applies:

    * ``checkpoints`` (strictly increasing walk lengths): returns the
      ``(num_rows, len(checkpoints))`` distance table;
    * ``epsilon``: a row retires once its distance drops below
      ``epsilon``, shrinking the stepped block; returns
      :class:`HittingTimes`, with ``-1`` for rows still above
      ``epsilon`` after ``max_steps`` steps.  Without ``measure`` the
      distance is checked every :data:`_CHECK_EVERY` steps only; rows
      that may have crossed ``epsilon`` since the last check (their
      distance is below :func:`_replay_threshold`) are replayed from
      that check's block, with a check at every step, so each row still
      retires at its exact first step below ``epsilon``.

    Rows are independent chains, so results do not depend on the chunk
    size.
    """
    chunk_rows = resolve_block_size(
        num_states, policy.block_size, memory_budget_bytes=policy_block_bytes(policy)
    )
    telemetry = OBS.enabled
    if telemetry:
        if span is not None:
            span.set(chunk_rows=int(chunk_rows), path="serial")
        OBS.add("core.evolution.rows", num_rows)
        OBS.observe("core.evolution.chunk_rows", min(chunk_rows, num_rows))

    def tvd(x: np.ndarray) -> np.ndarray:
        return total_variation_to_reference(
            x if measure is None else measure(x), reference, validate=False
        )

    if checkpoints is not None:
        out = np.empty((num_rows, checkpoints.size), dtype=np.float64)
        for lo in range(0, num_rows, chunk_rows):
            hi = min(lo + chunk_rows, num_rows)
            x = start(lo, hi)
            rows = np.arange(lo, hi, dtype=np.int64)
            col = 0
            for t in range(int(checkpoints[-1]) + 1):
                if t:
                    x = step(x, rows)
                    if telemetry:
                        OBS.add("core.evolution.steps", rows.size)
                if checkpoints[col] != t:
                    continue
                dist = tvd(x)
                out[lo:hi, col] = dist
                col += 1
                if telemetry:
                    OBS.event(
                        "tvd_checkpoint", step=t, chunk_lo=int(lo), rows=int(hi - lo),
                        mean_tvd=float(dist.mean()), max_tvd=float(dist.max()),
                    )
        return out

    last = max_steps
    times = np.full(num_rows, -1, dtype=np.int64)
    final = np.empty(num_rows, dtype=np.float64)
    replay_below = None
    if measure is None and last > 1 and _CHECK_EVERY > 1:
        replay_below = _replay_threshold(step, reference, epsilon, _CHECK_EVERY)
    every = 1 if replay_below is None else _CHECK_EVERY

    def retire(pos: np.ndarray, when: int, dist: np.ndarray) -> None:
        """Record the chunk's rows at block positions ``pos`` as hitting
        at step ``when`` with distances ``dist``."""
        times[rows[pos]] = when
        final[rows[pos]] = dist
        done[pos] = True
        if telemetry and when:
            OBS.event(
                "rows_retired", step=when, chunk_lo=int(lo), retired=int(pos.size),
                still_active=int(rows.size - done.sum()),
            )

    for lo in range(0, num_rows, chunk_rows):
        hi = min(lo + chunk_rows, num_rows)
        x = start(lo, hi)
        rows = np.arange(lo, hi, dtype=np.int64)
        t = 0
        dist = tvd(x)
        final[rows] = dist
        done = np.zeros(rows.size, dtype=bool)
        hit = np.flatnonzero(dist < epsilon)
        retire(hit, 0, dist[hit])
        while True:
            if done.any():  # compact only at checks
                x = x[~done]
                rows = rows[~done]
            if rows.size == 0 or t == last:
                break
            seg = min(every, last - t)
            snapshot = x
            for _ in range(seg):
                x = step(x, rows)
            if telemetry:
                OBS.add("core.evolution.steps", seg * rows.size)
            t += seg
            dist = tvd(x)
            final[rows] = dist
            done = np.zeros(rows.size, dtype=bool)
            if seg > 1:
                # Replay the rows that may have crossed since the last
                # check, one step and one TVD at a time.
                live = np.flatnonzero(dist < replay_below)
                y = snapshot[live]
                for when in range(t - seg + 1, t):
                    if live.size == 0:
                        break
                    y = step(y, rows[live])
                    if telemetry:
                        OBS.add("core.evolution.steps", live.size)
                    near = tvd(y)
                    hit = near < epsilon
                    if hit.any():
                        retire(live[hit], when, near[hit])
                        y = y[~hit]
                        live = live[~hit]
            hit = np.flatnonzero((dist < epsilon) & ~done)
            if hit.size:
                retire(hit, t, dist[hit])
        if telemetry:
            OBS.observe("core.hitting.steps_per_chunk", t)
            OBS.add("core.hitting.unconverged_rows", int(rows.size))
    return HittingTimes(times=times, final_distances=final)
