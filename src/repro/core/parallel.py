"""Shared-memory process-pool runtime for multi-source sweeps.

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
  ``run(state, *args)``, per-shard arguments, the in-process ``state``
  and how to publish that state — and executed by :func:`_fan_out`:
  worker count → checkpoint fingerprint → publication → the
  fault-tolerant :func:`~repro.core.runtime.run_sharded` → concatenation.
  The ``maybe_parallel_*`` functions only build that description.
* **Publish once, attach zero-copy.**  The state's arrays (an
  operator's CSR arrays, reference vector and dangling mask, or the
  route engine's tables) are packed into a single
  :mod:`multiprocessing.shared_memory` segment.  Workers attach
  ``numpy`` views straight onto it (no pickling of the matrix, no
  per-worker copy), rebuild the same kind of state around them, and call
  the same shard function the serial path calls.  Each sweep publishes
  its own segment and unlinks it when the sweep ends, service sweeps
  included: nothing stays published between calls.
* **Same kernel, same numbers.**  Worker operators either inherit the
  base ``X @ P`` kernel or invoke
  ``DirectedTransitionOperator._apply_block`` *itself* on duck-typed
  state, so the arithmetic executed in a worker is the exact code the
  serial path runs.  Rows are independent and shards are reassembled in
  row order — parallel output is therefore **bit-for-bit identical** to
  the serial path (``tests/core/test_parallel.py`` pins this for every
  operator flavour, worker count and chunk boundary).
* **Serial fallback.**  Every ``maybe_parallel_*`` function returns
  ``None`` — and the caller runs its serial path — when ``workers``
  resolves to <= 1 (and no checkpoint directory is set), there are no
  rows, the platform cannot ``fork`` (the pool relies on copy-on-write
  module state), shared memory is unavailable, or the operator carries
  a custom ``_apply_block`` this runtime does not know how to
  replicate.

The public surface for callers is ``policy=ExecutionPolicy(workers=…)``
on the :class:`~repro.core.operators.MarkovOperator` block APIs (and the
``--workers`` CLI flag above them); the functions here are the runtime
those policies dispatch to.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..obs import OBS
from .operators import HittingTimes, MarkovOperator, policy_block_bytes, resolve_block_size
from .runtime import DEFAULT_POLICY, ExecutionPolicy, run_sharded, sweep_fingerprint

__all__ = [
    "OperatorPayload",
    "RoutePayload",
    "SharedOperatorHandle",
    "cleanup_published_segments",
    "describe_operator",
    "install_signal_cleanup",
    "maybe_parallel_evolve_block",
    "maybe_parallel_hitting_times",
    "maybe_parallel_originator_curves",
    "maybe_parallel_route_hits",
    "maybe_parallel_route_tails",
    "maybe_parallel_variation_curves",
    "parallel_backend_available",
    "publish_operator",
    "publish_route_state",
    "resolve_workers",
]

#: Shards per worker: oversharding lets the pool rebalance uneven
#: per-source work (hitting times vary wildly across sources) while the
#: contiguous, order-preserving reassembly keeps results deterministic.
_OVERSHARD = 4

#: Byte alignment of each array inside the shared segment (cache line).
_ALIGN = 64

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
    """True when the fork + shared-memory runtime can be used here."""
    try:
        import multiprocessing
        import multiprocessing.shared_memory  # noqa: F401  (probe import)
    except ImportError:  # pragma: no cover - stdlib always has these
        return False
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Operator description (what gets published)
# ----------------------------------------------------------------------
def describe_operator(operator):
    """Classify an operator for worker-side reconstruction.

    Returns ``(kind, csr_matrix, extras)`` where ``kind`` is ``"csr"``
    (plain/lazy/weighted/pure-directed — the base ``X @ P`` kernel),
    ``"teleport"`` (damped/dangling directed chains) or ``"mmap"``
    (out-of-core operators over an on-disk ``.csr`` container, published
    by *path* rather than by copying arrays), or ``None`` when the
    operator's step cannot be replicated from its CSR arrays alone
    (unknown ``_apply_block`` override) — the caller then stays serial.
    """
    from scipy.sparse import issparse

    from .directed import DirectedTransitionOperator
    from .operators import MarkovOperator
    from .outofcore import StripedTransitionMatrix

    matrix = getattr(operator, "_matrix", None)
    if isinstance(matrix, StripedTransitionMatrix):
        # Out-of-core operator.  Publishable only when the backing graph
        # has an on-disk container workers can re-map (anonymous striped
        # matrices would force a full copy, defeating the point) and the
        # step is the base kernel (same rule as the CSR branch below).
        if (
            isinstance(operator, DirectedTransitionOperator)
            or type(operator)._apply_block is not MarkovOperator._apply_block
            or matrix.path is None
        ):
            return None
        return "mmap", matrix, {}
    if matrix is None or not issparse(matrix):
        return None
    matrix = matrix.tocsr()
    if isinstance(operator, DirectedTransitionOperator):
        if operator._teleporting:
            return (
                "teleport",
                matrix,
                {"damping": operator._damping, "dangling": operator._dangling},
            )
        return "csr", matrix, {}
    if type(operator)._apply_block is not MarkovOperator._apply_block:
        return None  # custom dynamics we cannot reproduce from CSR arrays
    return "csr", matrix, {}


# ----------------------------------------------------------------------
# Shared-memory publication (parent side)
# ----------------------------------------------------------------------
class _ArrayField(NamedTuple):
    name: str
    offset: int
    dtype: str
    shape: Tuple[int, ...]


class OperatorPayload(NamedTuple):
    """Picklable description of a published operator.

    Only this tiny tuple crosses the process boundary per task — the
    arrays themselves live in the named shared-memory segment.
    """

    kind: str  # "csr" | "teleport" | "mmap"
    num_states: int
    shm_name: str
    fields: Tuple[_ArrayField, ...]
    damping: float = 1.0
    #: ``"mmap"`` only: the on-disk ``.csr`` container workers re-map
    #: (instead of copying 2m int64s into the segment) and the laziness
    #: of the striped transition matrix rebuilt on top of it.
    path: Optional[str] = None
    alpha: float = 0.0


class RoutePayload(NamedTuple):
    """Picklable description of published random-route state.

    The segment carries the route engine's arrays (arc sources +
    reverse-slot map + pre-drawn start slots, or a built ``next_slot``
    table + node mask); scalars such as the root seed entropy travel
    with each shard's arguments instead.
    """

    kind: str  # "route_tails" | "route_hits"
    shm_name: str
    fields: Tuple[_ArrayField, ...]


class SharedOperatorHandle:
    """Owner of one published shared-memory segment (parent side).

    The parent creates it, fans tasks referencing ``payload`` out to the
    pool, and must :meth:`close` it afterwards (``with`` works too) —
    workers only ever attach; lifecycle belongs to the parent.
    """

    def __init__(self, payload: OperatorPayload, shm) -> None:
        self.payload = payload
        self._shm = shm
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _unregister_segment(self._shm.name)
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass

    def __enter__(self) -> "SharedOperatorHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Segment lifecycle: leak-proofing against interrupts
# ----------------------------------------------------------------------
# POSIX shared memory is kernel-persistent: a segment whose owner dies
# between publish and close survives in /dev/shm until reboot.  The
# ``with publish_operator(...)`` discipline covers exceptions, but not
# SIGTERM/SIGINT landing mid-sweep, and a long-lived *service* running
# parallel sweeps for hours makes that window recur.  Every published
# segment is therefore tracked here, keyed by name and stamped with the
# publishing PID, and (a) an atexit hook unlinks leftovers on normal
# interpreter shutdown, (b) :func:`install_signal_cleanup` extends that
# to fatal signals.  The PID stamp is the fork guard: pool workers
# inherit this table (and any installed handlers), but they must never
# unlink the parent's live segments — cleanup skips entries it does not
# own.  (Workers also exit via ``os._exit``, skipping atexit, which is
# correct for the same reason.)

_SEGMENTS_LOCK = threading.Lock()
#: name -> (SharedMemory, owner pid)
_LIVE_SEGMENTS: Dict[str, Tuple[object, int]] = {}
_ATEXIT_INSTALLED = False
#: signum -> previous handler, for the handlers we installed in this PID.
_SIGNAL_PREVIOUS: Dict[int, object] = {}
_SIGNAL_OWNER_PID: Optional[int] = None


def _register_segment(shm) -> None:
    global _ATEXIT_INSTALLED
    with _SEGMENTS_LOCK:
        _LIVE_SEGMENTS[shm.name] = (shm, os.getpid())
        if not _ATEXIT_INSTALLED:
            atexit.register(cleanup_published_segments)
            _ATEXIT_INSTALLED = True


def _unregister_segment(name: str) -> None:
    with _SEGMENTS_LOCK:
        _LIVE_SEGMENTS.pop(name, None)


def cleanup_published_segments() -> int:
    """Close + unlink every live segment *published by this process*.

    Idempotent and safe to call from atexit or a signal handler; returns
    the number of segments reclaimed.  Segments registered by another
    PID (i.e. inherited across ``fork`` by a pool worker) are left
    alone — their owner's cleanup handles them.
    """
    pid = os.getpid()
    with _SEGMENTS_LOCK:
        mine = [
            name
            for name, (_shm, owner) in _LIVE_SEGMENTS.items()
            if owner == pid
        ]
        entries = [(name, _LIVE_SEGMENTS.pop(name)[0]) for name in mine]
    reclaimed = 0
    for _name, shm in entries:
        try:
            shm.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        try:
            shm.unlink()
            reclaimed += 1
        except FileNotFoundError:
            pass
    return reclaimed


def _signal_cleanup_handler(signum, frame):
    # Only the installing process acts; a forked child that inherited
    # this handler chains straight to the previous disposition.
    if os.getpid() == _SIGNAL_OWNER_PID:
        cleanup_published_segments()
    previous = _SIGNAL_PREVIOUS.get(signum, signal.SIG_DFL)
    if callable(previous):
        previous(signum, frame)
        return
    # Re-deliver under the default disposition so the exit status still
    # says "killed by signal" (what supervisors and shells expect).
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def install_signal_cleanup(signums: Tuple[int, ...] = (signal.SIGTERM,)) -> None:
    """Unlink live segments when a fatal signal lands (then die normally).

    Call once from long-running entry points (the CLI does, including
    ``repro-mixing serve``); installing from a non-main thread is a
    no-op because CPython only allows signal handlers on the main
    thread.  Handlers chain to whatever was installed before.
    """
    global _SIGNAL_OWNER_PID
    if threading.current_thread() is not threading.main_thread():
        return
    _SIGNAL_OWNER_PID = os.getpid()
    for signum in signums:
        current = signal.getsignal(signum)
        if current is _signal_cleanup_handler:
            continue
        _SIGNAL_PREVIOUS[signum] = current
        signal.signal(signum, _signal_cleanup_handler)


def _copy_fields(
    shm, fields: List[_ArrayField], named: List[Tuple[str, np.ndarray]]
) -> None:
    """Copy each source array into its slot inside the shared segment.

    Module-level (rather than inlined in :func:`publish_operator`) so the
    leak-safety tests can monkeypatch it to fail and assert the segment
    is unlinked on the error path.
    """
    for field, (_name, array) in zip(fields, named):
        view = np.ndarray(
            field.shape, dtype=np.dtype(field.dtype), buffer=shm.buf, offset=field.offset
        )
        view[...] = array


def _layout_fields(
    named: List[Tuple[str, np.ndarray]],
) -> Tuple[List[_ArrayField], int]:
    """Back-to-back cache-line-aligned layout for a list of arrays."""
    fields: List[_ArrayField] = []
    offset = 0
    for name, array in named:
        offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
        fields.append(_ArrayField(name, offset, array.dtype.str, array.shape))
        offset += array.nbytes
    return fields, offset


def _publish_segment(
    named: List[Tuple[str, np.ndarray]], make_payload: Callable[[str, tuple], tuple]
) -> SharedOperatorHandle:
    """Pack ``named`` arrays into one new segment; ``make_payload(name, fields)``
    describes it for workers.

    Arrays are laid out back-to-back at cache-line alignment.
    Exception-safe: if anything after segment creation fails (the copy,
    payload assembly, …) the segment is closed **and unlinked** before
    the exception propagates, so a failed publish never leaves a stray
    ``/dev/shm`` entry behind (``tests/core/test_parallel_safety.py``).
    """
    from multiprocessing import shared_memory

    publish_start = time.perf_counter() if OBS.enabled else 0.0
    named = [(name, np.ascontiguousarray(array)) for name, array in named]
    fields, offset = _layout_fields(named)
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        _copy_fields(shm, fields, named)
        handle = SharedOperatorHandle(make_payload(shm.name, tuple(fields)), shm)
        _register_segment(shm)
    except BaseException:
        # Never leak the segment: close our mapping and unlink the name.
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        raise
    if OBS.enabled:
        OBS.add("parallel.publishes")
        OBS.add("parallel.publish_bytes", int(shm.size))
        OBS.observe("parallel.publish_seconds", time.perf_counter() - publish_start)
    return handle


def publish_operator(
    kind: str,
    matrix,
    reference: Optional[np.ndarray] = None,
    *,
    damping: float = 1.0,
    dangling: Optional[np.ndarray] = None,
) -> SharedOperatorHandle:
    """Pack CSR arrays (+ reference / dangling mask) into one segment.

    The returned handle's :attr:`~SharedOperatorHandle.payload` records
    the layout so workers can rebuild zero-copy views.  ``kind="mmap"``
    publishes by path: workers re-map the on-disk container, so the
    segment carries only the reference vector.
    """
    mmap = kind == "mmap"
    named: List[Tuple[str, np.ndarray]] = []
    if not mmap:
        named += [
            ("data", matrix.data),
            ("indices", matrix.indices),
            ("indptr", matrix.indptr),
        ]
    if reference is not None:
        named.append(("reference", reference))
    if dangling is not None:
        named.append(("dangling", dangling))
    return _publish_segment(
        named,
        lambda shm_name, fields: OperatorPayload(
            kind=kind,
            num_states=int(matrix.shape[0]),
            shm_name=shm_name,
            fields=fields,
            damping=float(damping),
            path=matrix.path if mmap else None,
            alpha=float(matrix.laziness) if mmap else 0.0,
        ),
    )


def publish_route_state(
    kind: str, named: List[Tuple[str, np.ndarray]]
) -> SharedOperatorHandle:
    """Pack route-engine arrays into one shared segment.

    The route analogue of :func:`publish_operator`: same segment format,
    same exception-safe unlink-on-failure contract, same
    single-publish-per-sweep lifecycle; only the payload type differs.
    """
    return _publish_segment(
        named, lambda shm_name, fields: RoutePayload(kind, shm_name, fields)
    )


# ----------------------------------------------------------------------
# Worker-side attachment and reconstruction
# ----------------------------------------------------------------------
#: Per-worker cache: segment name -> (shm, views, reconstruction cache).
#: A pool worker serves many shards of the same sweep; attaching once
#: per worker keeps the zero-copy promise.
_ATTACHED: Dict[str, Tuple[object, Dict[str, np.ndarray], dict]] = {}

#: Seconds the most recent :func:`_attach` in *this process* spent
#: mapping the segment (0.0 when it hit the cache).  Read by
#: :func:`repro.core.runtime._worker_shard` so per-worker attach latency
#: travels back to the parent alongside task results without a second
#: IPC channel.
_ATTACH_SECONDS_PENDING = 0.0


def _build_views(shm, fields: Tuple[_ArrayField, ...]) -> Dict[str, np.ndarray]:
    """Rebuild the read-only zero-copy array views over an attached segment.

    Module-level so the leak-safety tests can monkeypatch it to fail and
    assert the worker-side mapping is closed on the error path.
    """
    views: Dict[str, np.ndarray] = {}
    for field in fields:
        view = np.ndarray(
            field.shape, dtype=np.dtype(field.dtype), buffer=shm.buf, offset=field.offset
        )
        view.flags.writeable = False  # shared state is sacrosanct
        views[field.name] = view
    return views


def _open_untracked(name: str):
    """Attach to segment ``name`` without registering it with the tracker.

    Fork workers inherit the parent's resource tracker, and the parent's
    create-side registration and ``unlink()`` already account for the
    segment.  Registering again from a worker is not only redundant but
    can hang it: ``register`` takes the tracker's in-process lock, and a
    worker forked while another parent thread held that lock (publishing
    a segment for a concurrent sweep) inherits it held forever.  Before
    python 3.13 (no ``track=``) the tracker's ``register`` is stubbed out
    for the call, which is safe because only single-threaded pool
    workers attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    register = resource_tracker.register
    resource_tracker.register = lambda *args: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _attach(payload: OperatorPayload):
    global _ATTACH_SECONDS_PENDING
    entry = _ATTACHED.get(payload.shm_name)
    if entry is None:
        attach_start = time.perf_counter()
        shm = _open_untracked(payload.shm_name)
        try:
            views = _build_views(shm, payload.fields)
        except BaseException:
            # Close this process's mapping; unlinking stays the parent's
            # job (other workers may still be attached to the name).
            shm.close()
            raise
        entry = (shm, views, {})
        _ATTACHED[payload.shm_name] = entry
        _ATTACH_SECONDS_PENDING = time.perf_counter() - attach_start
    else:
        _ATTACH_SECONDS_PENDING = 0.0
    return entry


class _SharedCSROperator(MarkovOperator):
    """Operator over a bare CSR matrix: the worker-side stand-in.

    Deliberately *not* constructed through any graph class — it owns the
    minimal state the :class:`~repro.core.operators.MarkovOperator`
    machinery needs and borrows that machinery wholesale (the inherited
    ``X @ P`` kernel, the sweep core), so a worker executes the very
    same code path as the serial parent.  The originator sweep also
    wraps its plain walk in one, parent-side, so both paths hand the
    shard the same kind of state.
    """

    def __init__(self, matrix) -> None:
        self._init_operator(matrix.shape[0])
        self._matrix = matrix

    def _compute_stationary(self):  # pragma: no cover - guarded
        raise RuntimeError(
            "worker operators require an explicit reference distribution"
        )


class _SharedTeleportOperator(_SharedCSROperator):
    """Worker-side teleporting chain.

    ``_apply_block`` delegates to ``DirectedTransitionOperator``'s own
    method on duck-typed state — the teleport arithmetic cannot drift
    from the serial implementation because it *is* the serial
    implementation.
    """

    def __init__(self, matrix, damping: float, dangling: np.ndarray) -> None:
        super().__init__(matrix)
        self._damping = float(damping)
        self._dangling = dangling
        self._teleporting = True

    def _apply_block(self, block: np.ndarray) -> np.ndarray:
        from .directed import DirectedTransitionOperator

        return DirectedTransitionOperator._apply_block(self, block)


def _worker_operator(payload: OperatorPayload):
    """Rebuild (and memoise) the operator inside a pool worker."""
    _shm, views, cache = _attach(payload)
    operator = cache.get("operator")
    if operator is None:
        if payload.kind == "mmap":
            # Re-map the container instead of attaching CSR copies: the
            # kernel-shared page cache means N workers walking the same
            # stripes cost one set of physical pages, not N.
            from ..graph.storage import open_csr
            from .outofcore import StripedTransitionMatrix

            graph = open_csr(payload.path)
            operator = _SharedCSROperator(
                StripedTransitionMatrix(graph, laziness=payload.alpha)
            )
            cache["operator"] = operator
            return operator, views.get("reference")
        from scipy.sparse import csr_matrix

        n = payload.num_states
        matrix = csr_matrix(
            (views["data"], views["indices"], views["indptr"]), shape=(n, n)
        )
        if payload.kind == "teleport":
            operator = _SharedTeleportOperator(
                matrix, payload.damping, views["dangling"]
            )
        else:
            operator = _SharedCSROperator(matrix)
        cache["operator"] = operator
    return operator, views.get("reference")


# ----------------------------------------------------------------------
# The fan-out
# ----------------------------------------------------------------------
def _run_task(task) -> Any:
    """One shard inside a pool worker: ``task = (payload, run, args)``.

    The worker rebuilds the state ``run`` expects from the segment —
    ``(operator, reference)`` for operator payloads, the array views for
    route payloads — and calls ``run(state, *args)``, exactly as the
    in-process path does with the parent's own state.
    """
    payload, run, args = task
    if isinstance(payload, RoutePayload):
        state = _attach(payload)[1]
    else:
        state = _worker_operator(payload)
    return run(state, *args)


class _Sweep(NamedTuple):
    """One sharded sweep over ``total`` independent rows."""

    #: Sweep name: checkpoint namespace and telemetry tag.
    kind: str
    total: int
    #: Module-level shard function ``run(state, *args(lo, hi))``.
    run: Callable[..., Any]
    #: Picklable arguments of the shard covering rows ``[lo, hi)``.
    args: Callable[[int, int], tuple]
    #: What ``run`` receives in this process.
    state: Any
    #: Context manager yielding the :class:`SharedOperatorHandle` that
    #: workers rebuild ``state`` from (pooled runs only).
    publish: Callable[[], Any]
    #: Content-addressed checkpoint key; ``None``: never checkpointed.
    fingerprint: Optional[Callable[[], str]] = None
    #: Axis along which shard results are concatenated.
    axis: int = 0
    #: Rows per evolution chunk inside a shard; ``None``: no floor.
    chunk_rows: Optional[int] = None


def _fan_out(sweep: _Sweep, policy: ExecutionPolicy):
    """Run ``sweep`` sharded, or return ``None`` for the caller's serial path.

    The sweep fans out when ``policy.workers`` resolves to more than one
    worker and the fork + shared-memory pool is available here; with
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
    with (sweep.publish() if use_pool else nullcontext()) as handle:
        parts = run_sharded(
            kind=sweep.kind,
            total=sweep.total,
            policy=policy,
            workers=workers,
            make_task=lambda lo, hi: (handle.payload, sweep.run, sweep.args(lo, hi)),
            serial_run=lambda lo, hi: sweep.run(sweep.state, *sweep.args(lo, hi)),
            fingerprint=sweep.fingerprint() if checkpointed else None,
            shards=shards,
        )
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
    results are pinned invariant.
    """
    content = getattr(matrix, "fingerprint", None)
    if content is not None:
        # Out-of-core matrices carry a content digest (graph fingerprint
        # + laziness) — hashing it stands in for streaming 2m int64s off
        # disk.  Scipy matrices keep the original array hash so existing
        # checkpoints stay valid.
        matrix_parts: Tuple[object, ...] = (content,)
    else:
        matrix_parts = (matrix.data, matrix.indices, matrix.indptr)
    return sweep_fingerprint(
        sweep,
        kind,
        *matrix_parts,
        tuple(int(v) for v in matrix.shape),
        float(extras.get("damping", 1.0)),
        extras.get("dangling"),
        float(extras.get("beta", 0.0)),
        reference,
        *parts,
    )


def _operator_sweep(kind, operator, rows, reference, policy, run, args, fingerprint=None):
    """:func:`_fan_out` over ``rows`` with ``state = (operator, reference)``.

    Shard ``[lo, hi)`` runs ``run(state, rows[lo:hi], *args)``.  Every
    call publishes the operator afresh through :func:`publish_operator`
    (unlinked when the sweep ends), and
    ``fingerprint(kind, matrix, extras)`` receives
    :func:`describe_operator`'s classification.  Returns ``None`` when
    the operator's step cannot be rebuilt in a worker.
    """
    described = describe_operator(operator)
    if described is None:
        return None
    op_kind, matrix, extras = described
    return _fan_out(
        _Sweep(
            kind=kind,
            total=len(rows),
            run=run,
            args=lambda lo, hi: (rows[lo:hi], *args),
            state=(operator, reference),
            publish=lambda: publish_operator(op_kind, matrix, reference, **extras),
            fingerprint=(
                None if fingerprint is None else lambda: fingerprint(op_kind, matrix, extras)
            ),
            chunk_rows=resolve_block_size(
                operator.num_states,
                policy.block_size,
                memory_budget_bytes=policy_block_bytes(policy),
            ),
        ),
        policy,
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

    operator, reference = state
    return _originator_curves(operator._matrix, reference, sources, beta, walk_lengths, policy)


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
    amortise) while the operator rides shared memory.  Never
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

    Each row jumps back to *its own* originator, so only the plain
    walk's matrix is published and each shard runs
    :mod:`repro.core.trust`'s sweep on its sources.
    """
    return _operator_sweep(
        "originator", _SharedCSROperator(matrix), sources, reference, policy,
        _originator_shard, (beta, walk_lengths, _shard_policy(policy)),
        lambda _kind, _matrix, _extras: _operator_fingerprint(
            "originator", "originator", matrix, {"beta": float(beta)},
            reference, sources, walk_lengths,
        ),
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
            publish=lambda: publish_route_state("route_tails", list(arrays.items())),
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
            publish=lambda: publish_route_state("route_hits", list(arrays.items())),
        ),
        policy,
    )
