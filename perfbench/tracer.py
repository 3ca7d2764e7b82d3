"""Self-time span tracer the benchmark wraps around library entry points.

A span covers one call of a wrapped function.  Its *self time* is its
duration minus the time its child spans (on the same thread) cover, so
summing self times over every layer never double counts.  Spans are
folded into per-layer totals as they close; nothing is kept per call.

The tracer is process-wide and cheap when disabled (one attribute check
per wrapped call).  Forked pool workers start with empty totals and,
when tracing is on, write them to ``<trace_dir>/worker-<token>.json``
after every task so the parent can fold worker-side layers into its own
trace.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import uuid

clock = time.perf_counter


def _add(table: dict, key: str, value: float) -> None:
    table[key] = table.get(key, 0.0) + value


class Tracer:
    """Per-layer self/inclusive seconds and free counters.

    One instance per process (:data:`TRACER`): the wrappers installed on
    library functions are process-wide, so their sink is too.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.trace_dir = None
        self.token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        with self._lock:
            self.self_s: dict = {}
            self.total_s: dict = {}
            self.counts: dict = {}

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.reset()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            _add(self.counts, name, value)

    def _close(self, layer: str, duration: float, self_time: float) -> None:
        with self._lock:
            _add(self.self_s, layer, self_time)
            _add(self.total_s, layer, duration)

    def leaf(self, layer: str, duration: float) -> None:
        """Record an already-timed span with no children (e.g. a lock wait)."""
        stack = self._stack()
        if stack:
            stack[-1][0] += duration
        self._close(layer, duration, duration)

    def run(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` (when tracing is on)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self._close(layer, duration, duration - frame[0])

    def wrap(self, layer: str, fn, on_call=None):
        """``fn`` wrapped in a span; ``on_call(args, kwargs, result)`` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            result = self.run(layer, fn, *args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counts": dict(self.counts),
            }

    def flush_worker(self) -> None:
        """Write this (forked worker) process's totals for the parent."""
        if self.trace_dir is None:
            return
        path = os.path.join(self.trace_dir, f"worker-{self.token}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def merge(*snapshots: dict) -> dict:
    """Sum several snapshots key by key."""
    out = {"self_s": {}, "total_s": {}, "counts": {}}
    for snap in snapshots:
        for section, table in out.items():
            for key, value in snap.get(section, {}).items():
                _add(table, key, value)
    return out


def collect_workers(trace_dir: str) -> dict:
    """Merge and remove every worker file under ``trace_dir``."""
    snaps = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(trace_dir, name)
            with open(path, encoding="utf-8") as fh:
                snaps.append(json.load(fh))
            os.remove(path)
    merged = merge(*snaps)
    merged["processes"] = len(snaps)
    return merged


class TimedLock:
    """A lock whose acquire time is recorded as a leaf span."""

    def __init__(self, tracer: Tracer, layer: str, inner) -> None:
        self._tracer = tracer
        self._layer = layer
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not self._tracer.enabled:
            return self._inner.acquire(blocking, timeout)
        start = clock()
        ok = self._inner.acquire(blocking, timeout)
        self._tracer.leaf(self._layer, clock() - start)
        return ok

    def release(self) -> None:
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


TRACER = Tracer()
