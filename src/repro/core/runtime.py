"""Fault-tolerant sharded execution: :class:`ExecutionPolicy`, retries,
per-shard timeouts, serial degradation and checkpoint/resume.

The paper's headline numbers come from hour-scale sweeps — 1000-source
TVD curves (equation (2)) and SybilLimit admission sweeps over hundreds
of route lengths.  The PR-2 shared-memory pool fans those sweeps out
across processes, but a single SIGKILLed worker (OOM killer, preempted
container) used to lose the whole run, and the knobs steering the
runtime had sprawled as ad-hoc kwargs across every call site.  This
module fixes both:

* :class:`ExecutionPolicy` is the single object that carries every
  execution knob — worker count, chunk size, retry budget, per-shard
  timeout, checkpoint directory — and is accepted as ``policy=`` by all
  block APIs, sweeps and Sybil runners (the only way to set them).
* :func:`run_sharded` is the fault-tolerant executor behind the one
  fan-out in :mod:`repro.core.parallel`:
  failed shards (dead worker, timeout, unpicklable exception) are
  retried up to ``max_retries`` times with exponential backoff on a
  rebuilt pool, and any shard still failing afterwards is **degraded to
  in-process serial execution** — the sweep completes with output
  bit-identical to the serial path, or raises; partial results are
  never returned.
* :class:`CheckpointStore` persists completed shard results under a
  content-addressed key (graph/operator fingerprint + sweep parameters
  + seed entropy, via :func:`sweep_fingerprint`), each shard written
  atomically (temp file + ``os.replace``) with an embedded integrity
  digest.  Interrupted sweeps resume by recomputing only the missing
  row ranges; because every row of a sweep is an independent chain (the
  invariant pinned since PR 1), resumed output is bit-identical to an
  uninterrupted run regardless of how shard boundaries shifted.  A
  checkpoint that fails validation raises
  :class:`~repro.errors.CheckpointCorruption` — never silently wrong
  numbers.

Fault injection (tests / CI only)
---------------------------------
``REPRO_FAULT_INJECT=<mode>:<shard>`` makes the pool worker executing
shard ``<shard>`` misbehave: ``crash`` SIGKILLs the worker process,
``timeout`` sleeps past the shard deadline, ``raise`` throws a
retryable exception, and ``abort`` raises an error the parent treats as
an interruption (used to exercise checkpoint/resume).  With
``REPRO_FAULT_INJECT_STATE=<path>`` the fault fires exactly once (the
first process to create the state file claims it), so a retry then
succeeds; without it the fault repeats and the shard ends up on the
serial-degradation path.  Injection only ever happens inside pool
workers — the in-process serial path never injects, so degradation is
guaranteed to terminate.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CheckpointCorruption, ConfigurationError, RuntimeFailure
from ..obs import OBS

__all__ = [
    "DEFAULT_POLICY",
    "CheckpointStore",
    "ExecutionPolicy",
    "as_policy",
    "run_sharded",
    "sweep_fingerprint",
]

#: Base of the exponential retry backoff (seconds): round ``k`` of
#: retries sleeps ``_BACKOFF_BASE * 2**(k-1)`` before rebuilding the
#: pool.  Module-level so tests can zero it.
_BACKOFF_BASE = 0.05

#: Environment hooks for fault injection (see module docstring).
_FAULT_ENV = "REPRO_FAULT_INJECT"
_FAULT_STATE_ENV = "REPRO_FAULT_INJECT_STATE"
_FAULT_SLEEP_ENV = "REPRO_FAULT_INJECT_SLEEP"

_CHECKPOINT_SCHEMA = "repro.runtime.checkpoint/v1"


# ----------------------------------------------------------------------
# ExecutionPolicy: the one object that carries every execution knob
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPolicy:
    """How a sweep executes — never *what* it computes.

    Every knob here is bit-for-bit neutral: results are pinned identical
    across worker counts, shard boundaries, chunk sizes, retries,
    degradation and checkpoint resume, so a policy can be changed freely
    between (or during) runs without perturbing any number.

    Attributes
    ----------
    workers:
        Process count for the shared-memory pool.  ``None``/``0``/``1``
        stay serial, ``-1`` uses every core the process may run on.
    block_size:
        Rows per dense evolution chunk (``None`` → sized from the
        operator layer's memory budget).
    max_retries:
        How many times a failed shard (dead worker, timeout, worker
        exception) is retried on a rebuilt pool before it is degraded to
        in-process serial execution.
    shard_timeout:
        Seconds the parent waits on one shard before declaring it a
        straggler and re-dispatching (``None`` → wait forever; worker
        *death* is still detected immediately).
    checkpoint_dir:
        Directory for content-addressed sweep checkpoints; ``None``
        disables checkpointing.  Sweeps sharing a directory never
        collide — the key hashes the operator, parameters and seed
        entropy.
    resume:
        When true (default) a checkpointed sweep skips shards already
        on disk; when false existing checkpoints for this sweep are
        discarded and recomputed.
    memory_budget:
        Working-memory target of one sweep, in bytes.  ``None``
        (default) sizes dense evolution chunks from the operator layer's
        1 MiB default and plans a memory-mapped operand's stripes for
        8 MiB.  When set, two allocations are sized from it:

        * the dense ``(s, n)`` evolution chunk gets half the budget
          (at least one row);
        * over a memory-mapped graph, the column stripes of the
          transition matrix are planned so that the stripe being
          multiplied plus the one prefetched behind it fit the *whole*
          budget (32 bytes per nonzero for the pair; a column denser
          than that is a stripe of its own).

        The budget therefore bounds the chunk and the stripe pair each,
        not their sum (together up to 1.5x the budget); an in-memory
        matrix is never striped and is held in full.  Like every other
        field this is an execution knob: any budget produces bit-for-bit
        the same numbers and never enters checkpoint fingerprints.
    """

    workers: Optional[int] = None
    block_size: Optional[int] = None
    max_retries: int = 2
    shard_timeout: Optional[float] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = True
    memory_budget: Optional[int] = None

    def __post_init__(self):
        w = self.workers
        if w is not None:
            if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
                raise ConfigurationError(
                    f"workers must be an integer, got {w!r} ({type(w).__name__})"
                )
            if w < -1:
                raise ConfigurationError(f"workers must be >= -1, got {w}")
        b = self.block_size
        if b is not None:
            if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b < 1:
                raise ConfigurationError(
                    f"block_size must be a positive integer, got {b!r}"
                )
        r = self.max_retries
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 0:
            raise ConfigurationError(
                f"max_retries must be a nonnegative integer, got {r!r}"
            )
        t = self.shard_timeout
        if t is not None:
            try:
                t = float(t)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"shard_timeout must be a positive number of seconds, got {t!r}"
                ) from None
            if not t > 0.0:
                raise ConfigurationError(
                    f"shard_timeout must be a positive number of seconds, got {t!r}"
                )
            object.__setattr__(self, "shard_timeout", t)
        if self.checkpoint_dir is not None:
            # Accept Path objects but store a plain string: policies end
            # up inside JSON run manifests via dataclasses.asdict.
            object.__setattr__(self, "checkpoint_dir", os.fspath(self.checkpoint_dir))
        mb = self.memory_budget
        if mb is not None:
            if isinstance(mb, bool) or not isinstance(mb, (int, np.integer)) or mb < 1:
                raise ConfigurationError(
                    f"memory_budget must be a positive byte count, got {mb!r}"
                )
            object.__setattr__(self, "memory_budget", int(mb))


#: The policy every API uses when the caller passes nothing: serial,
#: auto-sized chunks, no checkpointing.  Shared singleton so the hot
#: paths can test ``policy is DEFAULT_POLICY`` without allocation.
DEFAULT_POLICY = ExecutionPolicy()


def as_policy(policy: Optional[ExecutionPolicy] = None) -> ExecutionPolicy:
    """The policy to run under: ``policy`` verbatim, or
    :data:`DEFAULT_POLICY` when ``None``.

    Anything that is not an :class:`ExecutionPolicy` raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if policy is None:
        return DEFAULT_POLICY
    if not isinstance(policy, ExecutionPolicy):
        raise ConfigurationError(
            f"policy must be an ExecutionPolicy, got {type(policy).__name__}"
        )
    return policy


# ----------------------------------------------------------------------
# Fault injection (test/CI hooks; inert unless the env vars are set)
# ----------------------------------------------------------------------
class InjectedFault(RuntimeError):
    """A deliberately injected, *retryable* worker failure."""


class InjectedAbort(RuntimeError):
    """A deliberately injected interruption: the parent stops the sweep
    (after persisting completed shards) instead of retrying."""


def _parse_fault_spec() -> Optional[Tuple[str, int]]:
    raw = os.environ.get(_FAULT_ENV, "").strip()
    if not raw:
        return None
    mode, _, index = raw.partition(":")
    try:
        return mode.strip(), int(index)
    except ValueError:
        return None  # malformed spec: ignore rather than kill real runs


def _claim_fault_once() -> bool:
    """True when this process wins the right to inject the fault.

    ``REPRO_FAULT_INJECT_STATE`` names a claim file created with
    ``O_CREAT | O_EXCL``: exactly one process across all retries ever
    succeeds, giving crash-*once* semantics.  With no state file the
    fault fires every time the shard index matches.
    """
    path = os.environ.get(_FAULT_STATE_ENV)
    if not path:
        return True
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def maybe_inject_fault(shard_index: int) -> None:
    """Misbehave on purpose when the environment asks for it.

    Called only from inside pool workers (:func:`_worker_shard`); the
    serial path never injects, so serial degradation always terminates.
    """
    spec = _parse_fault_spec()
    if spec is None:
        return
    mode, target = spec
    if shard_index != target or not _claim_fault_once():
        return
    if mode == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "timeout":
        time.sleep(float(os.environ.get(_FAULT_SLEEP_ENV, "30.0")))
    elif mode == "raise":
        raise InjectedFault(f"injected worker failure in shard {shard_index}")
    elif mode == "abort":
        raise InjectedAbort(f"injected interruption in shard {shard_index}")


# ----------------------------------------------------------------------
# Content-addressed sweep fingerprints
# ----------------------------------------------------------------------
def _hash_part(h, obj) -> None:
    """Feed one object into the digest with an unambiguous type tag."""
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(f"\x00nd:{a.dtype.str}:{a.shape}:".encode())
        h.update(a.tobytes())
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"\x00by:")
        h.update(bytes(obj))
    elif isinstance(obj, str):
        h.update(b"\x00st:")
        h.update(obj.encode())
    elif isinstance(obj, (bool, int, np.integer)):
        h.update(f"\x00in:{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"\x00fl:{float(obj).hex()}".encode())
    elif isinstance(obj, (tuple, list)):
        h.update(f"\x00seq:{len(obj)}:".encode())
        for item in obj:
            _hash_part(h, item)
    else:
        raise TypeError(
            f"cannot fingerprint object of type {type(obj).__name__}"
        )


def sweep_fingerprint(kind: str, *parts) -> str:
    """Content-addressed identity of one sweep.

    Hashes the sweep *inputs* — operator arrays, reference vector,
    sources, walk lengths, scalars, seed entropy — but **not** the
    execution knobs (``workers``, ``block_size``): results are pinned
    invariant to those, so a checkpoint taken at one worker count
    resumes cleanly at another.  Accepts ndarrays, scalars (arbitrary-
    precision ints included, which covers ``SeedSequence.entropy``),
    strings, and nested sequences thereof.
    """
    h = hashlib.sha256()
    h.update(b"repro.runtime.sweep/v1")
    _hash_part(h, kind)
    for part in parts:
        _hash_part(h, part)
    return h.hexdigest()


def _shard_digest(fingerprint: str, lo: int, hi: int, parts) -> str:
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    h.update(f":{lo}:{hi}:".encode())
    for part in parts:
        a = np.ascontiguousarray(part)
        h.update(f"{a.dtype.str}:{a.shape}:".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
class CheckpointStore:
    """On-disk store of completed shard results for one sweep.

    Layout: ``{root}/{kind}-{fingerprint[:32]}/`` holding ``meta.json``
    plus one ``shard-{lo:010d}-{hi:010d}.npz`` per completed contiguous
    row range.  Every shard embeds the full fingerprint, its row bounds
    and a sha256 digest of its arrays; every file is written to a temp
    name and atomically renamed, so a crash mid-write leaves at most a
    temp file, never a truncated shard.  Any validation failure —
    unreadable archive, digest mismatch, bounds outside the sweep,
    overlapping shards, a meta file from a different sweep — raises
    :class:`~repro.errors.CheckpointCorruption`.
    """

    def __init__(self, root, *, kind: str, fingerprint: str, total: int) -> None:
        self.kind = str(kind)
        self.fingerprint = str(fingerprint)
        self.total = int(total)
        self.directory = Path(root) / f"{self.kind}-{self.fingerprint[:32]}"

    # -- paths ----------------------------------------------------------
    def _shard_path(self, lo: int, hi: int) -> Path:
        return self.directory / f"shard-{lo:010d}-{hi:010d}.npz"

    # -- meta -----------------------------------------------------------
    def _write_meta(self) -> None:
        meta_path = self.directory / "meta.json"
        if meta_path.exists():
            return
        payload = {
            "schema": _CHECKPOINT_SCHEMA,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "total": self.total,
        }
        tmp = meta_path.with_name(f".meta-{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, meta_path)

    def _check_meta(self) -> None:
        meta_path = self.directory / "meta.json"
        if not meta_path.exists():
            return
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointCorruption(
                f"unreadable checkpoint metadata {meta_path}: {exc}"
            ) from exc
        expected = {
            "schema": _CHECKPOINT_SCHEMA,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "total": self.total,
        }
        for key, want in expected.items():
            if meta.get(key) != want:
                raise CheckpointCorruption(
                    f"checkpoint metadata mismatch in {meta_path}: "
                    f"{key}={meta.get(key)!r}, expected {want!r}"
                )

    # -- write ----------------------------------------------------------
    def save(self, lo: int, hi: int, result) -> int:
        """Atomically persist one completed shard; returns bytes written."""
        parts = result if isinstance(result, tuple) else (result,)
        arrays = {
            f"part{i}": np.ascontiguousarray(p) for i, p in enumerate(parts)
        }
        arrays["nparts"] = np.int64(len(parts))
        arrays["bounds"] = np.asarray([lo, hi], dtype=np.int64)
        arrays["fingerprint"] = np.asarray(self.fingerprint)
        arrays["digest"] = np.asarray(
            _shard_digest(self.fingerprint, lo, hi, parts)
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_meta()
        path = self._shard_path(lo, hi)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path.stat().st_size

    def clear(self) -> None:
        """Discard every shard of *this* sweep (``resume=False``)."""
        if not self.directory.exists():
            return
        for path in self.directory.glob("shard-*.npz"):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # -- read -----------------------------------------------------------
    def load(self) -> Dict[Tuple[int, int], Any]:
        """All valid completed shards, keyed by ``(lo, hi)`` row bounds.

        Every archive is fully validated (readable, fingerprint match,
        bounds sane and matching the filename, digest match, no overlap
        with any other shard); any failure raises
        :class:`~repro.errors.CheckpointCorruption` rather than letting
        a bad shard masquerade as finished work.
        """
        if not self.directory.exists():
            return {}
        self._check_meta()
        results: Dict[Tuple[int, int], Any] = {}
        for path in sorted(self.directory.glob("shard-*.npz")):
            results.update(self._load_shard(path))
        spans = sorted(results)
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(spans, spans[1:]):
            if hi_a > lo_b:
                raise CheckpointCorruption(
                    f"overlapping checkpoint shards in {self.directory}: "
                    f"[{lo_a}, {hi_a}) and starting at {lo_b}"
                )
        return results

    def _load_shard(self, path: Path) -> Dict[Tuple[int, int], Any]:
        try:
            with np.load(path, allow_pickle=False) as archive:
                stored = {name: archive[name] for name in archive.files}
        except Exception as exc:
            raise CheckpointCorruption(
                f"unreadable checkpoint shard {path}: {exc}"
            ) from exc
        for required in ("nparts", "bounds", "fingerprint", "digest"):
            if required not in stored:
                raise CheckpointCorruption(
                    f"checkpoint shard {path} is missing its {required!r} record"
                )
        if str(stored["fingerprint"]) != self.fingerprint:
            raise CheckpointCorruption(
                f"checkpoint shard {path} belongs to a different sweep "
                "(fingerprint mismatch)"
            )
        lo, hi = (int(v) for v in stored["bounds"])
        if not (0 <= lo < hi <= self.total):
            raise CheckpointCorruption(
                f"checkpoint shard {path} covers rows [{lo}, {hi}) outside "
                f"the sweep's [0, {self.total})"
            )
        if path.name != self._shard_path(lo, hi).name:
            raise CheckpointCorruption(
                f"checkpoint shard {path} does not match its embedded "
                f"bounds [{lo}, {hi})"
            )
        nparts = int(stored["nparts"])
        try:
            parts = tuple(stored[f"part{i}"] for i in range(nparts))
        except KeyError as exc:
            raise CheckpointCorruption(
                f"checkpoint shard {path} is missing result arrays"
            ) from exc
        if str(stored["digest"]) != _shard_digest(self.fingerprint, lo, hi, parts):
            raise CheckpointCorruption(
                f"checkpoint shard {path} failed its integrity digest"
            )
        return {(lo, hi): parts[0] if nparts == 1 else parts}


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
def _missing_ranges(
    total: int, done: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Complement of ``done`` within ``[0, total)`` (done is non-overlapping)."""
    gaps: List[Tuple[int, int]] = []
    cursor = 0
    for lo, hi in sorted(done):
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < total:
        gaps.append((cursor, total))
    return gaps


def _split_ranges(
    gaps: List[Tuple[int, int]], total: int, target_shards: int
) -> List[Tuple[int, int]]:
    """Chop the missing intervals into roughly even contiguous shards.

    The shard width targets ``total / target_shards`` rows so resume
    granularity matches a fresh run's; boundaries are free to differ
    between runs because every row is independent (results are pinned
    invariant to sharding).
    """
    width = max(1, -(-total // max(1, target_shards)))
    out: List[Tuple[int, int]] = []
    for lo, hi in gaps:
        for start in range(lo, hi, width):
            out.append((start, min(start + width, hi)))
    return out


# ----------------------------------------------------------------------
# Pool worker entry point
# ----------------------------------------------------------------------
def _worker_shard(args):
    """Module-level pool task: fault injection, then the shard itself.

    ``args`` is ``(kind, shard_index, task, timed)``: ``task`` is the
    ``(payload, run, args)`` triple built by
    :func:`repro.core.parallel._fan_out`, and ``timed`` mirrors the
    parent's telemetry flag.  Worker-side registries die with the child,
    so when it is set the result travels back wrapped as
    ``(elapsed, attach_seconds, pid, result)``.
    """
    _kind, shard_index, task, timed = args
    from . import parallel

    maybe_inject_fault(shard_index)
    if not timed:
        return parallel._run_task(task)
    start = time.perf_counter()
    result = parallel._run_task(task)
    elapsed = time.perf_counter() - start
    return elapsed, parallel._ATTACH_SECONDS_PENDING, os.getpid(), result


# ----------------------------------------------------------------------
# The fault-tolerant executor
# ----------------------------------------------------------------------
def _make_executor(workers: int):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    setup_start = time.perf_counter() if OBS.enabled else 0.0
    executor = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    if OBS.enabled:
        OBS.observe("parallel.pool_setup_seconds", time.perf_counter() - setup_start)
    return executor


def _retire_executor(executor, *, kill: bool) -> None:
    """Tear an executor down without ever blocking the parent.

    ``kill=True`` (a shard timed out or the pool broke): SIGKILL any
    surviving workers first — a straggler sleeping in a kernel would
    otherwise keep the non-daemonic pool (and the interpreter's atexit
    join) alive indefinitely.
    """
    if kill:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already dead
                pass
    executor.shutdown(wait=not kill, cancel_futures=kill)


def run_sharded(
    *,
    kind: str,
    total: int,
    policy: ExecutionPolicy,
    workers: int,
    make_task: Optional[Callable[[int, int], tuple]],
    serial_run: Callable[[int, int], Any],
    fingerprint: Optional[str] = None,
    shards: int = 4,
) -> List[Any]:
    """Execute a sweep over ``total`` independent rows, fault-tolerantly.

    Returns the per-shard results ordered by row offset, covering
    ``[0, total)`` exactly; the caller concatenates along its sweep
    axis.  The pool runs iff ``workers > 1``; otherwise the shards run
    in order, in-process.  ``make_task(lo, hi)`` builds the picklable
    pool-task tuple for one shard (unused, and may be ``None``, at one
    worker); ``serial_run(lo, hi)`` computes the same rows in-process
    (used for non-pool execution and for degradation) — both must
    produce bit-identical rows, which every kernel in this package does
    by construction.

    Failure handling (pool path): a shard whose worker dies
    (``BrokenProcessPool``), exceeds ``policy.shard_timeout`` or raises
    is retried on a freshly built pool up to ``policy.max_retries``
    times with exponential backoff; shards still failing afterwards run
    via ``serial_run`` in-process.  ``fingerprint`` (with
    ``policy.checkpoint_dir``) enables checkpoint/resume: completed
    shards persist as they arrive and already-persisted row ranges are
    never recomputed.  ``shards`` is the target shard count; shards are
    contiguous and of even width.
    """
    store: Optional[CheckpointStore] = None
    results: Dict[Tuple[int, int], Any] = {}
    if policy.checkpoint_dir is not None and fingerprint is not None:
        store = CheckpointStore(
            policy.checkpoint_dir, kind=kind, fingerprint=fingerprint, total=total
        )
        if policy.resume:
            results = store.load()
            if OBS.enabled and results:
                OBS.add("runtime.checkpoint.loaded_shards", len(results))
                OBS.add(
                    "runtime.checkpoint.loaded_rows",
                    sum(hi - lo for lo, hi in results),
                )
        else:
            store.clear()

    def _finish(lo: int, hi: int, value) -> None:
        results[(lo, hi)] = value
        if store is not None:
            written = store.save(lo, hi, value)
            if OBS.enabled:
                OBS.add("runtime.checkpoint.saved_shards")
                OBS.add("runtime.checkpoint.bytes_written", written)

    target = min(total, max(1, shards))
    pending = _split_ranges(_missing_ranges(total, list(results)), total, target)
    if pending:
        if OBS.enabled:
            for lo, hi in pending:
                OBS.observe("parallel.shard_rows", hi - lo)
        if workers > 1:
            _execute_pool(
                kind, pending, policy, workers, make_task, serial_run, _finish
            )
        else:
            for lo, hi in pending:
                _finish(lo, hi, serial_run(lo, hi))

    ordered = sorted(results)
    cursor = 0
    out: List[Any] = []
    for lo, hi in ordered:
        if lo != cursor:
            raise RuntimeFailure(
                f"internal: {kind} sweep left rows [{cursor}, {lo}) uncovered"
            )
        out.append(results[(lo, hi)])
        cursor = hi
    if cursor != total:
        raise RuntimeFailure(
            f"internal: {kind} sweep left rows [{cursor}, {total}) uncovered"
        )
    return out


def _execute_pool(
    kind: str,
    pending: List[Tuple[int, int]],
    policy: ExecutionPolicy,
    workers: int,
    make_task: Callable[[int, int], tuple],
    serial_run: Callable[[int, int], Any],
    finish: Callable[[int, int, Any], None],
) -> None:
    """Pool fan-out with retry rounds, straggler kill and degradation."""
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    timed = OBS.enabled
    items = [
        (index, lo, hi, make_task(lo, hi))
        for index, (lo, hi) in enumerate(pending)
    ]
    pids: Dict[int, int] = {}
    abort: Optional[BaseException] = None
    span = (
        OBS.span("parallel.pool", kind=kind, workers=int(workers), tasks=len(items))
        if timed
        else None
    )
    if span is not None:
        span.__enter__()
    try:
        for attempt in range(policy.max_retries + 1):
            if not items:
                break
            if attempt:
                delay = _BACKOFF_BASE * (2.0 ** (attempt - 1))
                if OBS.enabled:
                    OBS.add("runtime.retry.rounds")
                    OBS.observe("runtime.retry.backoff_seconds", delay)
                if delay > 0.0:
                    time.sleep(delay)
            executor = _make_executor(workers)
            kill = False
            failed = []
            try:
                futures = []
                unsubmitted = []
                for position, item in enumerate(items):
                    try:
                        future = executor.submit(
                            _worker_shard, (kind, item[0], item[3], timed)
                        )
                    except BrokenProcessPool:
                        # A worker died while shards were still being
                        # submitted: the rest go to the next round.
                        kill = True
                        unsubmitted = items[position:]
                        if OBS.enabled:
                            OBS.add("runtime.retry.crash")
                        break
                    futures.append((item, future))
                for item, future in futures:
                    index, lo, hi, _inner = item
                    try:
                        value = future.result(timeout=policy.shard_timeout)
                    except FutureTimeout:
                        kill = True
                        failed.append(item)
                        if OBS.enabled:
                            OBS.add("runtime.retry.timeout")
                        continue
                    except BrokenProcessPool:
                        kill = True
                        failed.append(item)
                        if OBS.enabled:
                            OBS.add("runtime.retry.crash")
                        continue
                    except InjectedAbort as exc:
                        # Interruption: keep draining (and persisting)
                        # the shards that did complete, then stop.
                        abort = RuntimeFailure(
                            f"{kind} sweep interrupted at shard {index}: {exc}"
                        )
                        abort.__cause__ = exc
                        continue
                    except (KeyboardInterrupt, SystemExit):
                        kill = True
                        raise
                    except BaseException:
                        failed.append(item)
                        if OBS.enabled:
                            OBS.add("runtime.retry.error")
                        continue
                    if timed:
                        elapsed, attach_seconds, pid, value = value
                        OBS.observe(f"parallel.task_seconds.{kind}", elapsed)
                        if attach_seconds > 0.0:
                            OBS.observe("parallel.attach_seconds", attach_seconds)
                        pids[pid] = pids.get(pid, 0) + 1
                    finish(lo, hi, value)
                failed.extend(unsubmitted)
            finally:
                _retire_executor(executor, kill=kill)
            if abort is not None:
                raise abort
            items = failed
        if items:
            # Retries exhausted: the pool is unrecoverable for these
            # shards — finish them in-process.  The serial path never
            # injects faults, so this always terminates.
            if OBS.enabled:
                OBS.add("runtime.serial_degradations")
                OBS.add("runtime.degraded_shards", len(items))
            for _index, lo, hi, _inner in items:
                finish(lo, hi, serial_run(lo, hi))
    finally:
        if span is not None:
            if pids:
                OBS.set_gauge("parallel.workers_used", len(pids))
                OBS.observe("parallel.tasks_per_worker_max", max(pids.values()))
            span.__exit__(None, None, None)
