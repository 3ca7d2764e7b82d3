"""Warm operator registry: build once, serve many requests.

A batch run pays operator construction (connectivity + bipartiteness
checks, CSR normalisation — ``O(m)``) and the stationary solve *per
invocation*.  A service cannot: at interactive latencies those costs
dominate the actual sweep.  The registry amortises both:

* **Construction** happens once per ``(graph content, laziness)`` and
  the operator (with its memoised ``stationary()``) is reused by every
  later request.
* **Lifecycle** is ref-counted: :meth:`OperatorRegistry.acquire` returns
  an :class:`OperatorLease` (a context manager) that pins the entry for
  the duration of a request; LRU eviction only ever retires entries with
  zero live leases, and :meth:`OperatorRegistry.close` drops the table.

A sweep at ``workers > 1`` forks its pool while it holds the lease, so
the workers step the registry's own operator, inherited through
``fork`` exactly as in a batch sweep; the registry keeps nothing for
the pool.

Thread-safety: one re-entrant lock guards the table; operator
construction happens outside the lock (slow) with a per-key build latch
so concurrent first requests build once, not N times.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..obs import OBS
from .keys import graph_fingerprint

__all__ = ["OperatorLease", "OperatorRegistry"]

class _Entry:
    """One warm operator plus its lifecycle state."""

    __slots__ = (
        "key",
        "dataset",
        "graph",
        "graph_key",
        "operator",
        "stationary",
        "refs",
        "last_used",
        "hits",
    )

    def __init__(self, key, dataset, graph, graph_key, operator, stationary):
        self.key = key
        self.dataset = dataset
        self.graph = graph
        self.graph_key = graph_key
        self.operator = operator
        self.stationary = stationary
        self.refs = 0
        self.last_used = time.monotonic()
        self.hits = 0


class OperatorLease:
    """A ref-counted checkout of one warm operator.

    Use as a context manager (or call :meth:`release` explicitly); while
    held, the entry cannot be evicted.  Exposes the warm ``graph``,
    ``operator``, its memoised ``stationary`` vector and the
    content-addressed ``graph_key`` requests build cache keys from.
    """

    __slots__ = ("_registry", "_entry", "_released")

    def __init__(self, registry: "OperatorRegistry", entry: _Entry) -> None:
        self._registry = registry
        self._entry = entry
        self._released = False

    @property
    def dataset(self) -> str:
        return self._entry.dataset

    @property
    def graph(self):
        return self._entry.graph

    @property
    def graph_key(self) -> str:
        return self._entry.graph_key

    @property
    def operator(self):
        return self._entry.operator

    @property
    def stationary(self):
        return self._entry.stationary

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._registry._release(self._entry)

    def __enter__(self) -> "OperatorLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class OperatorRegistry:
    """Keeps operators warm across requests.

    Parameters
    ----------
    capacity:
        Maximum number of warm entries; inserting past it evicts the
        least-recently-used entry with no live leases (entries pinned by
        a lease are never evicted — the table may transiently exceed
        ``capacity`` while every entry is leased).
    loader:
        ``name -> Graph`` used for cache-miss construction; defaults to
        :func:`repro.datasets.load_cached` so dataset names resolve
        through the standard registry.  Any callable works — tests pass
        closures over ad-hoc graphs.
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        loader: Optional[Callable[[str], object]] = None,
    ) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if loader is None:
            from ..datasets import load_cached

            loader = load_cached
        self.capacity = capacity
        self._loader = loader
        self._lock = threading.RLock()
        self._entries: Dict[Tuple, _Entry] = {}
        self._building: Dict[Tuple, threading.Event] = {}
        self._hits = 0
        self._builds = 0
        self._evictions = 0
        self._closed = False

    # ------------------------------------------------------------------
    def acquire(self, dataset: str, *, laziness: float = 0.0) -> OperatorLease:
        """Lease the warm operator for ``dataset`` (building it if cold).

        The operator is the simple random walk the paper measures;
        ``laziness`` is forwarded to its constructor and participates in
        the entry key.
        """
        key = (str(dataset), float(laziness))
        while True:
            with self._lock:
                if self._closed:
                    raise RuntimeError("registry is closed")
                entry = self._entries.get(key)
                if entry is not None:
                    entry.refs += 1
                    entry.last_used = time.monotonic()
                    entry.hits += 1
                    self._hits += 1
                    if OBS.enabled:
                        OBS.add("service.registry.hits")
                    return OperatorLease(self, entry)
                latch = self._building.get(key)
                if latch is None:
                    latch = threading.Event()
                    self._building[key] = latch
                    break  # this thread builds
            latch.wait()  # someone else is building; retry the lookup
        try:
            entry = self._build(key)
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            latch.set()
            raise
        with self._lock:
            self._entries[key] = entry
            entry.refs += 1
            self._builds += 1
            self._building.pop(key, None)
            self._evict_over_capacity()
        latch.set()
        return OperatorLease(self, entry)

    # ------------------------------------------------------------------
    def _build(self, key: Tuple) -> _Entry:
        """Cold-path construction (outside the table lock)."""
        from ..core.walks import TransitionOperator

        dataset, laziness = key
        build_start = time.perf_counter()
        with OBS.span("service.registry.build", dataset=dataset, laziness=laziness):
            graph = self._loader(dataset)
            operator = TransitionOperator(graph, laziness=laziness)
            stationary = operator.stationary()
        if OBS.enabled:
            OBS.add("service.registry.builds")
            OBS.observe(
                "service.registry.build_seconds", time.perf_counter() - build_start
            )
        return _Entry(
            key, dataset, graph, graph_fingerprint(graph), operator, stationary
        )

    def _release(self, entry: _Entry) -> None:
        with self._lock:
            entry.refs = max(0, entry.refs - 1)
            entry.last_used = time.monotonic()
            self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        """Retire LRU zero-ref entries until the table fits (lock held)."""
        while len(self._entries) > self.capacity:
            candidates = [e for e in self._entries.values() if e.refs == 0]
            if not candidates:
                return  # every entry is leased; retry on next release
            victim = min(candidates, key=lambda e: e.last_used)
            self._entries.pop(victim.key, None)
            self._evictions += 1
            if OBS.enabled:
                OBS.add("service.registry.evictions")

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "builds": self._builds,
                "evictions": self._evictions,
                "leased": sum(1 for e in self._entries.values() if e.refs > 0),
            }

    def close(self) -> None:
        """Drop every warm entry.

        Idempotent; the registry refuses new leases afterwards.  Live
        leases keep their (already-built) operators usable — only the
        warm table goes away.
        """
        with self._lock:
            self._closed = True
            self._entries.clear()

    def __enter__(self) -> "OperatorRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
