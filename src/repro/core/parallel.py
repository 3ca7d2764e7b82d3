"""Process-pool runtime for multi-source sweeps.

The paper's definition-based measurement (equation (2)) is embarrassingly
parallel across sources: every row of a
:meth:`~repro.core.operators.MarkovOperator.variation_curves` /
:meth:`~repro.core.operators.MarkovOperator.hitting_times` /
:meth:`~repro.core.operators.MarkovOperator.evolve_block` call evolves an
independent chain, and so does every random-route instance of the Sybil
defenses.  This module fans those rows out across processes so a
1000-source sweep uses every core instead of one.

Design
------
* **One fan-out.**  Every sharded sweep is described by a
  :class:`_Sweep` — a row count, a module-level shard function
  ``run(state, *args)``, per-shard arguments and the in-process
  ``state`` — and executed by :func:`_fan_out`: worker count →
  checkpoint fingerprint → state registration → the fault-tolerant
  :func:`~repro.core.runtime.run_sharded` → concatenation.  The
  ``maybe_parallel_*`` functions only build that description.
* **Inherited, not copied.**  The pool is forked for each sweep (and
  each retry round) after the sweep's state exists, so every worker
  already holds the parent's operator and arrays through copy-on-write.
  :func:`_fan_out` registers ``state`` in a module-level table under a
  token (:func:`publish_operator`) and removes it when the sweep ends;
  a pool task is ``(token, run, args)``, and the worker looks the state
  up in its own image of that table.  Only shard arguments and results
  cross the process boundary: no shared-memory segment, no file, no
  resource tracker.
* **Same kernel, same numbers.**  A worker steps the parent's own
  operator object — in-memory, teleporting or memory-mapped — and the
  route arrays the parent built, with the shard function the serial
  path calls.  Rows are independent and shards are reassembled in row
  order, so parallel output is **bit-for-bit identical** to the serial
  path (``tests/core/test_parallel.py`` pins this for every operator
  flavour, worker count and chunk boundary).
* **Serial fallback.**  Every ``maybe_parallel_*`` function returns
  ``None`` — and the caller runs its serial path — when ``workers``
  resolves to <= 1 (and no checkpoint directory is set), there are no
  rows, or the platform cannot ``fork``.  Only checkpointing needs to
  know the operator: :func:`describe_operator` builds its key, and an
  operator it cannot describe (a custom ``_apply_block``) runs on the
  pool but is never checkpointed.

The public surface for callers is ``policy=ExecutionPolicy(workers=…)``
on the :class:`~repro.core.operators.MarkovOperator` block APIs (and the
``--workers`` CLI flag above them); the functions here are the runtime
those policies dispatch to.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Callable, Dict, NamedTuple, Optional

import numpy as np

from ..obs import OBS
from .operators import HittingTimes, MarkovOperator, policy_block_bytes, resolve_block_size
from .runtime import DEFAULT_POLICY, ExecutionPolicy, run_sharded, sweep_fingerprint, sweep_hasher

__all__ = [
    "cleanup_published_segments",
    "describe_operator",
    "maybe_parallel_evolve_block",
    "maybe_parallel_hitting_times",
    "maybe_parallel_originator_curves",
    "maybe_parallel_route_hits",
    "maybe_parallel_route_tails",
    "maybe_parallel_variation_curves",
    "parallel_backend_available",
    "publish_operator",
    "resolve_workers",
]

#: Shards per worker: oversharding lets the pool rebalance uneven
#: per-source work (hitting times vary wildly across sources) while the
#: contiguous, order-preserving reassembly keeps results deterministic.
_OVERSHARD = 4

# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------
def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request to a concrete process count.

    ``None``, ``0`` and ``1`` mean *serial* (no pool); ``-1`` means one
    worker per core this process may run on (its CPU affinity mask where
    the platform has one, else ``os.cpu_count()``); any other positive
    integer is honoured verbatim.  Values below ``-1`` raise.
    """
    if workers is None:
        return 1
    count = int(workers)
    if count == -1:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    if count < 0:
        raise ValueError(f"workers must be >= -1, got {workers}")
    return max(1, count)


def parallel_backend_available() -> bool:
    """True when the fork pool can be used here."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Operator description (what the checkpoint key hashes)
# ----------------------------------------------------------------------
def describe_operator(operator):
    """Classify an operator for its checkpoint fingerprint.

    Returns ``(kind, matrix, extras)``: ``"csr"`` for the base ``X @ P``
    kernel (plain/lazy/weighted/pure-directed, in memory or over a
    memory-mapped graph) and ``"teleport"`` for damped/dangling directed
    chains, whose ``extras`` carry the damping and dangling mask.
    Returns ``None`` when the step is not a function of those arrays
    alone (an unknown ``_apply_block`` override): such a sweep still
    runs on the pool, but is never checkpointed.
    """
    from scipy.sparse import issparse

    from .directed import DirectedTransitionOperator
    from .outofcore import StripedTransitionMatrix

    matrix = getattr(operator, "_matrix", None)
    striped = isinstance(matrix, StripedTransitionMatrix)
    if not (striped or issparse(matrix)):
        return None
    if isinstance(operator, DirectedTransitionOperator) and not striped:
        if operator._teleporting:
            return (
                "teleport",
                matrix.tocsr(),
                {"damping": operator._damping, "dangling": operator._dangling},
            )
        return "csr", matrix.tocsr(), {}
    if type(operator)._apply_block is not MarkovOperator._apply_block:
        return None  # custom dynamics the key cannot describe
    # A mapped matrix keys like its in-memory twin without materialising.
    return "csr", matrix if striped else matrix.tocsr(), {}


# ----------------------------------------------------------------------
# The fan-out
# ----------------------------------------------------------------------
#: States of the sweeps running on the pool, by token.  Workers fork
#: after their sweep registered here, so each finds its state in its
#: copy-on-write image of this table.
_STATES: Dict[int, Any] = {}
_TOKENS = itertools.count()


def publish_operator(state) -> int:
    """Register a sweep's ``state`` for the workers it forks; returns its token.

    The state is the parent's own object — an ``(operator, reference)``
    pair or a dict of route arrays — and is neither copied nor pickled.
    :func:`_fan_out` removes the entry when the sweep ends.
    """
    token = next(_TOKENS)
    _STATES[token] = state
    return token


def cleanup_published_segments() -> int:
    """No-op kept for callers of the removed shared-memory layer
    (``perfbench/common.py``); sweeps publish no segment, so none is left."""
    return 0


def _run_task(task) -> Any:
    """One shard inside a pool worker: ``task = (token, run, args)``.

    Calls ``run(state, *args)`` on the parent's state inherited through
    ``fork``, exactly as the in-process path does.
    """
    token, run, args = task
    return run(_STATES[token], *args)


class _Sweep(NamedTuple):
    """One sharded sweep over ``total`` independent rows."""

    #: Sweep name: checkpoint namespace and telemetry tag.
    kind: str
    total: int
    #: Module-level shard function ``run(state, *args(lo, hi))``.
    run: Callable[..., Any]
    #: Picklable arguments of the shard covering rows ``[lo, hi)``.
    args: Callable[[int, int], tuple]
    #: What ``run`` receives, in this process and in pool workers.
    state: Any
    #: Content-addressed checkpoint key; ``None``: never checkpointed.
    fingerprint: Optional[Callable[[], str]] = None
    #: Axis along which shard results are concatenated.
    axis: int = 0
    #: Rows per evolution chunk inside a shard; ``None``: no floor.
    chunk_rows: Optional[int] = None


def _fan_out(sweep: _Sweep, policy: ExecutionPolicy):
    """Run ``sweep`` sharded, or return ``None`` for the caller's serial path.

    The sweep fans out when ``policy.workers`` resolves to more than one
    worker and the fork pool is available here; with
    ``policy.checkpoint_dir`` set (and a fingerprint) it runs — serially
    if need be — through the checkpointing executor.  Shard results are
    concatenated along ``sweep.axis`` (tuple results column by column).

    A pooled sweep gets :data:`_OVERSHARD` shards per worker, but one
    with ``sweep.chunk_rows`` and no checkpoint never cuts a shard
    narrower than one evolution chunk while the workers stay busy:
    ``min(workers·_OVERSHARD, max(workers, ⌈total / chunk_rows⌉))``
    shards.  Narrower shards step a thinner block at a higher cost per
    row.  Checkpointed sweeps keep the finer cut, as there the shard is
    the unit of resume.
    """
    count = min(resolve_workers(policy.workers), sweep.total)
    use_pool = count > 1 and parallel_backend_available()
    checkpointed = policy.checkpoint_dir is not None and sweep.fingerprint is not None
    if sweep.total == 0 or not (use_pool or checkpointed):
        return None
    workers = count if use_pool else 1
    shards = workers * _OVERSHARD
    if sweep.chunk_rows is not None and not checkpointed:
        shards = min(shards, max(workers, -(-sweep.total // sweep.chunk_rows)))
    span = OBS.current_span() if use_pool and OBS.enabled else None
    if span is not None:  # tag the enclosing operator span
        span.set(path="parallel", workers=count, shards=min(sweep.total, shards))
    # Looked up as a module global so wrappers installed on it see the call.
    token = publish_operator(sweep.state) if use_pool else None
    try:
        parts = run_sharded(
            kind=sweep.kind,
            total=sweep.total,
            policy=policy,
            workers=workers,
            make_task=lambda lo, hi: (token, sweep.run, sweep.args(lo, hi)),
            serial_run=lambda lo, hi: sweep.run(sweep.state, *sweep.args(lo, hi)),
            fingerprint=sweep.fingerprint() if checkpointed else None,
            shards=shards,
        )
    finally:
        _STATES.pop(token, None)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column, axis=sweep.axis) for column in zip(*parts))
    return np.concatenate(parts, axis=sweep.axis)


def _operator_fingerprint(
    sweep: str, kind: str, matrix, extras: dict, reference, *parts
) -> str:
    """Content-addressed identity of one operator sweep (checkpoint key).

    Hashes the CSR arrays, the operator's extra dynamics (damping /
    dangling mask / originator bias) and the sweep parameters — but not
    the execution policy (workers, chunking, memory budget), to which
    results are pinned invariant.  A memory-mapped matrix streams its
    CSR arrays into the hash (:meth:`~repro.core.outofcore.
    StripedTransitionMatrix.csr_hasher`), so it gets the key of the
    same graph held in memory.
    """
    from .outofcore import StripedTransitionMatrix

    if isinstance(matrix, StripedTransitionMatrix):
        h = matrix.csr_hasher(sweep, kind)
    else:
        h = sweep_hasher(sweep, kind, matrix.data, matrix.indices, matrix.indptr)
    return sweep_hasher(
        tuple(int(v) for v in matrix.shape),
        float(extras.get("damping", 1.0)),
        extras.get("dangling"),
        float(extras.get("beta", 0.0)),
        reference,
        *parts,
        state=h,
    ).hexdigest()


def _operator_sweep(kind, operator, rows, reference, policy, run, args, fingerprint=None):
    """:func:`_fan_out` over ``rows`` with ``state = (operator, reference)``.

    Shard ``[lo, hi)`` runs ``run(state, rows[lo:hi], *args)``.
    ``fingerprint(kind, matrix, extras)`` receives
    :func:`describe_operator`'s classification; an operator it cannot
    describe is never checkpointed.
    """
    described = describe_operator(operator)
    return _fan_out(
        _Sweep(
            kind=kind,
            total=len(rows),
            run=run,
            args=lambda lo, hi: (rows[lo:hi], *args),
            state=(operator, reference),
            fingerprint=(
                None
                if fingerprint is None or described is None
                else lambda: fingerprint(*described)
            ),
            chunk_rows=_chunk_rows(operator.num_states, policy),
        ),
        policy,
    )


def _chunk_rows(num_states: int, policy: ExecutionPolicy) -> int:
    """Rows per evolution chunk of one shard's own sweep."""
    return resolve_block_size(
        num_states, policy.block_size, memory_budget_bytes=policy_block_bytes(policy)
    )


def _shard_policy(policy: ExecutionPolicy) -> ExecutionPolicy:
    """The in-shard policy: serial, same chunking and budget."""
    return ExecutionPolicy(
        block_size=policy.block_size, memory_budget=policy.memory_budget
    )


# Shard functions, shared by the in-process and the pool path.
def _call_operator(state, rows, method: str, args: tuple, kwargs: dict):
    """``operator.<method>(rows, *args, reference=…, **kwargs)``."""
    operator, reference = state
    if reference is not None:
        kwargs = dict(kwargs, reference=reference)
    return getattr(operator, method)(rows, *args, **kwargs)


def _originator_shard(state, sources, beta, walk_lengths, policy) -> np.ndarray:
    from .trust import _originator_curves

    matrix, reference = state
    return _originator_curves(matrix, reference, sources, beta, walk_lengths, policy)


def _route_tails_shard(arrays, num_nodes, entropy, lo, hi, lengths, block_size):
    from ..sybil.routes import advance_route_shard

    return advance_route_shard(
        arrays["src"], arrays["rev"], num_nodes, entropy, lo, hi,
        arrays["starts"][lo:hi], lengths, block_size,
    )


def _route_hits_shard(arrays, lo, hi, length) -> np.ndarray:
    from ..sybil.sybilguard import route_hit_scan

    return route_hit_scan(
        arrays["table"], arrays["indices"], arrays["src"], arrays["mask"], lo, hi, length
    )


# ----------------------------------------------------------------------
# The sweeps: each describes itself and hands over to the fan-out.
# Every one returns ``None`` when the caller's serial path should run.
# ----------------------------------------------------------------------
def maybe_parallel_variation_curves(
    operator, sources, walk_lengths, *, reference, policy=DEFAULT_POLICY
) -> Optional[np.ndarray]:
    """Shard a validated ``variation_curves`` call across the pool.

    With ``policy.checkpoint_dir`` set the sweep is checkpointed (and
    resumed) per shard, even when the pool itself is unavailable.
    """
    return _operator_sweep(
        "curves", operator, sources, reference, policy, _call_operator,
        ("variation_curves", (walk_lengths,), {"policy": _shard_policy(policy)}),
        lambda kind, matrix, extras: _operator_fingerprint(
            "curves", kind, matrix, extras, reference, sources, walk_lengths
        ),
    )


def maybe_parallel_hitting_times(
    operator, sources, epsilon, *, max_steps, reference, policy=DEFAULT_POLICY
) -> Optional[HittingTimes]:
    """Shard a validated ``hitting_times`` call across the pool (early-exit
    masking runs inside each shard, exactly as in the serial chunks)."""
    out = _operator_sweep(
        "hitting", operator, sources, reference, policy, _call_operator,
        (
            "hitting_times",
            (epsilon,),
            {"max_steps": max_steps, "policy": _shard_policy(policy)},
        ),
        lambda kind, matrix, extras: _operator_fingerprint(
            "hitting", kind, matrix, extras, reference, sources,
            float(epsilon), int(max_steps)
        ),
    )
    return None if out is None else HittingTimes(*out)


def maybe_parallel_evolve_block(
    operator, block, steps, *, policy=DEFAULT_POLICY
) -> Optional[np.ndarray]:
    """Shard a dense ``(s, n)`` block row-wise across the pool.

    The block rows travel by pickle (a one-off cost the ``steps`` SpMMs
    amortise); the operator is inherited.  Never
    checkpointed: evolve blocks are usually one iteration of a larger
    loop (e.g. SybilRank), so a content-addressed checkpoint would never
    be revisited.
    """
    if steps == 0:
        return None
    return _operator_sweep(
        "evolve", operator, block, None, policy, _call_operator,
        ("evolve_block", (steps,), {"policy": _shard_policy(policy)}),
    )


def maybe_parallel_originator_curves(
    matrix, reference, sources, beta, walk_lengths, *, policy=DEFAULT_POLICY
) -> Optional[np.ndarray]:
    """Shard the originator-biased trust sweep across the pool.

    Each row jumps back to *its own* originator, so the sweep state is
    only the plain walk's matrix and ``pi``, and each shard runs
    :mod:`repro.core.trust`'s sweep on its sources.
    """
    return _fan_out(
        _Sweep(
            kind="originator",
            total=len(sources),
            run=_originator_shard,
            args=lambda lo, hi: (sources[lo:hi], beta, walk_lengths, _shard_policy(policy)),
            state=(matrix, reference),
            fingerprint=lambda: _operator_fingerprint(
                "originator", "originator", matrix, {"beta": float(beta)},
                reference, sources, walk_lengths,
            ),
            chunk_rows=_chunk_rows(matrix.shape[0], policy),
        ),
        policy,
    )


def maybe_parallel_route_tails(
    routes, starts, lengths, *, policy=DEFAULT_POLICY
) -> Optional[np.ndarray]:
    """Shard a route tail sweep across contiguous instance ranges.

    The parent pre-draws every instance's start slots (``starts``, the
    full ``(r, nodes)`` table, preserving the serial rng stream); each
    shard runs the serial path's ``advance_route_shard`` on its
    instances, rebuilt from the root entropy (lazy selection or full
    tables, by the same cost model), and shards are reassembled along
    the instance axis.  The checkpoint key hashes the arc arrays,
    root entropy, pre-drawn starts and lengths, so SybilLimit admission
    sweeps resume without replaying a draw.
    """
    from ..sybil.routes import arc_sources, reverse_slots

    graph = routes.graph
    num_nodes = int(graph.num_nodes)
    entropy = routes._entropy
    arrays = {"src": arc_sources(graph), "rev": reverse_slots(graph), "starts": starts}
    return _fan_out(
        _Sweep(
            kind="route_tails",
            total=int(starts.shape[0]),
            run=_route_tails_shard,
            args=lambda lo, hi: (num_nodes, entropy, lo, hi, lengths, policy.block_size),
            state=arrays,
            fingerprint=lambda: sweep_fingerprint(
                "route_tails", arrays["src"], arrays["rev"], num_nodes, entropy,
                starts, lengths,
            ),
            axis=1,
        ),
        policy,
    )


def maybe_parallel_route_hits(
    table, indices, src, mask, length, *, policy=DEFAULT_POLICY
) -> Optional[np.ndarray]:
    """Shard SybilGuard's per-slot node-intersection scan
    (``repro.sybil.sybilguard.route_hit_scan``) over contiguous slot
    ranges.  Never checkpointed: the scan is an inner per-length loop,
    cheap relative to the tail sweeps that feed it."""
    arrays = {"table": table, "indices": indices, "src": src, "mask": mask}
    return _fan_out(
        _Sweep(
            kind="route_hits",
            total=int(table.shape[0]),
            run=_route_hits_shard,
            args=lambda lo, hi: (lo, hi, int(length)),
            state=arrays,
        ),
        policy,
    )
