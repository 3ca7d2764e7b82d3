"""Out-of-core transition dynamics over memory-mapped graphs.

:class:`~repro.core.walks.TransitionOperator` normally materialises its
row-stochastic matrix ``P = alpha I + (1 - alpha) D^{-1} A`` as a scipy
CSR — an O(2m) float64 allocation that defeats the point of opening a
graph as a :class:`~repro.graph.storage.MemmapGraph`.  This module
provides :class:`StripedTransitionMatrix`, a lazy stand-in that derives
any *column stripe* of P's CSC form directly from the mapped CSR arrays
on demand:

* for the undirected walk, CSC column ``j`` of ``D^{-1} A`` has rows
  ``indices[indptr[j]:indptr[j+1]]`` (one contiguous mapped read) and
  values ``inv_deg[rows]`` — the exact float64 values scipy's
  construction produces, since ``np.repeat(inv_deg, degrees)`` stores
  ``inv_deg[row]`` verbatim and CSR→CSC conversion only permutes;
* laziness inserts the diagonal ``alpha`` into each column at its
  sorted row position and scales the rest by ``1 - alpha`` — the same
  two float64 operations scipy's ``alpha*I + (1-alpha)*P`` performs, so
  stripe values are bit-for-bit scipy's.

Every step over a striped matrix streams:
:meth:`StripedTransitionMatrix.budgeted_step` walks the CSC stripes
planned for a memory budget with double-buffered loads, and ``block @
matrix`` is its default-budget case, so sweeps over memory-mapped
operators produce scipy's bits without ever holding the whole matrix.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..graph import Graph
from ..obs import OBS
from .runtime import sweep_fingerprint

__all__ = ["StripedTransitionMatrix", "stripe_bounds"]


# ----------------------------------------------------------------------
# The streaming stripe kernel
# ----------------------------------------------------------------------
#: Stripe-buffer budget the streaming kernel assumes when a sweep sets
#: no ``memory_budget``: big enough that small graphs run in one stripe.
_STREAM_DEFAULT_BYTES = 8 * 1024 * 1024

#: Bytes of stripe payload per nonzero: int64 row + float64 value, times
#: two because the double buffer holds the current and the prefetched
#: stripe at once.
_STREAM_BYTES_PER_NNZ = 32


def stripe_bounds(csc_indptr: np.ndarray, budget_bytes: int) -> List[int]:
    """Column-stripe boundaries whose nonzeros fit the stripe budget.

    Returns ``[c_0=0, c_1, ..., c_k=n]``; stripe ``i`` covers columns
    ``[c_i, c_{i+1})`` and holds at most ``budget_bytes /
    _STREAM_BYTES_PER_NNZ`` nonzeros — except single columns denser than
    the budget, which become singleton stripes (a column cannot be
    split without changing the accumulation order).
    """
    n = int(csc_indptr.shape[0]) - 1
    target = max(int(budget_bytes) // _STREAM_BYTES_PER_NNZ, 1)
    bounds = [0]
    while bounds[-1] < n:
        lo = bounds[-1]
        hi = int(np.searchsorted(csc_indptr, int(csc_indptr[lo]) + target, side="right")) - 1
        bounds.append(min(max(hi, lo + 1), n))
    return bounds


def _apply_csc_stripe(
    xT: np.ndarray,
    out: np.ndarray,
    col_offset: int,
    local_indptr: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
) -> None:
    """Accumulate one CSC column stripe into ``out`` in oracle order.

    Each output column is an in-order left fold over its nonzeros —
    increasing CSC position, exactly scipy's ``csc_matvecs``
    accumulation sequence.  Column stripes partition *output columns*,
    so striping cannot reassociate any sum: the result is independent of
    the stripe plan.

    A rank-stripe loop (one fancy-indexing pass per column rank) would
    take ``max(column degree)`` passes — pathological on power-law
    graphs whose hub columns are thousands deep.  Instead the stripe's
    transpose *is* a valid CSR matrix over the same arrays, and scipy's
    ``csr_matvecs`` kernel folds each output row strictly in increasing
    nonzero position — precisely the per-column order the oracle commits
    to — at C speed.  (``np.add.reduceat`` was tried and rejected here:
    numpy's inner reduce loop is pairwise for runs longer than 8
    elements, which flips low-order bits on hub columns.)  The
    differential harness in tests/core/test_backends.py and
    tests/core/test_outofcore.py pins bit-identity against the oracle.

    ``xT`` is the C-contiguous transpose of the dense block, taken once
    per step; passing ``x`` itself would make scipy re-copy the block
    for every stripe.
    """
    if not vals.size:
        return
    from scipy.sparse import csr_matrix

    width = int(local_indptr.shape[0]) - 1
    stripe_t = csr_matrix(
        (vals, rows, local_indptr), shape=(width, xT.shape[0]), copy=False
    )
    out[:, col_offset:col_offset + width] += (stripe_t @ xT).T


def _prepare_streaming(
    matrix: "StripedTransitionMatrix", *, memory_budget: Optional[int] = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Budgeted column-stripe SpMM with double-buffered stripe loads.

    Stripes come from ``matrix.csc_stripe`` (derived lazily from the
    memory-mapped CSR arrays) and are planned by :func:`stripe_bounds`
    for ``memory_budget`` bytes (:data:`_STREAM_DEFAULT_BYTES` when
    ``None``).  Each :func:`step` walks the stripe plan with a helper
    thread loading stripe ``i + 1`` while stripe ``i`` multiplies, so
    disk latency overlaps compute; the output is bit-for-bit scipy's
    ``block @ csr``.
    """
    budget = int(memory_budget) if memory_budget else _STREAM_DEFAULT_BYTES
    csc_indptr = np.asarray(matrix.csc_indptr, dtype=np.int64)
    loader = matrix.csc_stripe
    n_cols = int(csc_indptr.shape[0]) - 1
    bounds = stripe_bounds(csc_indptr, budget)
    n_stripes = len(bounds) - 1

    def load(i: int):
        local_indptr, rows, vals = loader(bounds[i], bounds[i + 1])
        if OBS.enabled:
            OBS.add("core.backend.streaming.stripes")
            OBS.add(
                "core.backend.streaming.bytes_loaded",
                int(local_indptr.nbytes + rows.nbytes + vals.nbytes),
            )
        return bounds[i], local_indptr, rows, vals

    def step(block: np.ndarray) -> np.ndarray:
        x = np.asarray(block, dtype=np.float64)
        out = np.zeros((x.shape[0], n_cols), dtype=np.float64)
        xT = np.ascontiguousarray(x.T)
        if n_stripes <= 1:
            if n_stripes:
                col0, local_indptr, rows, vals = load(0)
                _apply_csc_stripe(xT, out, col0, local_indptr, rows, vals)
            return out
        # Double buffer: a helper thread keeps up to two stripes staged
        # while the main thread multiplies.  The thread lives for one
        # step call only, so nothing leaks if the operator is dropped.
        staged: "queue.Queue" = queue.Queue(maxsize=2)
        cancel = threading.Event()

        def produce():
            for i in range(n_stripes):
                try:
                    item = ("ok", load(i))
                except BaseException as exc:  # surfaced by the consumer
                    item = ("err", exc)
                while not cancel.is_set():
                    try:
                        staged.put(item, timeout=0.1)
                        break
                    except queue.Full:
                        continue
                if cancel.is_set() or item[0] == "err":
                    return

        worker = threading.Thread(target=produce, daemon=True)
        worker.start()
        try:
            for _ in range(n_stripes):
                t0 = time.perf_counter()
                tag, payload = staged.get()
                if OBS.enabled:
                    OBS.observe(
                        "core.backend.streaming.swap_wait_seconds",
                        time.perf_counter() - t0,
                    )
                if tag == "err":
                    raise payload
                col0, local_indptr, rows, vals = payload
                _apply_csc_stripe(xT, out, col0, local_indptr, rows, vals)
        finally:
            cancel.set()
        return out

    return step


class StripedTransitionMatrix:
    """Lazy ``P = alpha I + (1 - alpha) D^{-1} A`` over CSR arrays.

    Never holds more than O(n) derived state (inverse degrees, the lazy
    CSC indptr); matrix entries are synthesised per column stripe from
    the graph's (possibly memory-mapped) ``indptr`` / ``indices``.
    """

    #: Make ``ndarray @ striped`` defer to :meth:`__rmatmul__` instead of
    #: coercing this object into a dtype=object array.
    __array_ufunc__ = None
    __array_priority__ = 10.2

    ndim = 2

    def __init__(self, graph: Graph, *, laziness: float = 0.0):
        if not 0.0 <= laziness < 1.0:
            raise ValueError("laziness must be in [0, 1)")
        degrees = np.asarray(graph.degrees, dtype=np.int64)
        if degrees.size == 0 or np.any(degrees == 0):
            raise ValueError("transition matrix undefined with isolated nodes")
        self._graph = graph
        self._alpha = float(laziness)
        # Same expression as the in-memory construction — the stripe
        # values must be the very float64 numbers scipy would store.
        self._inv_deg = 1.0 / degrees.astype(np.float64)
        self._csc_indptr: Optional[np.ndarray] = None
        self._steps: Dict[Optional[int], Callable[[np.ndarray], np.ndarray]] = {}
        self._dense_cache = None

    # ------------------------------------------------------------------
    # Matrix-protocol surface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        n = self._graph.num_nodes
        return (n, n)

    @property
    def dtype(self):
        return np.dtype(np.float64)

    @property
    def nnz(self) -> int:
        extra = self._graph.num_nodes if self._alpha > 0.0 else 0
        return int(self._graph.indptr[-1]) + extra

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def laziness(self) -> float:
        return self._alpha

    @property
    def path(self) -> Optional[str]:
        """Backing ``.csr`` container of the graph, when it has one.

        Non-``None`` is what lets the parallel layer publish this
        operator by *path* — workers re-map the container instead of
        copying 2m int64s into shared memory.
        """
        return getattr(self._graph, "path", None)

    @property
    def fingerprint(self) -> str:
        """Content identity for checkpoint/cache keys.

        Covers the graph's CSR fingerprint (cheap for container-backed
        graphs — the digest is recorded in the file header) plus the
        laziness, i.e. exactly the inputs the matrix is a pure function
        of.
        """
        memo = getattr(self._graph, "_memo", None)
        graph_key = memo.get("graph_fingerprint") if memo is not None else None
        if graph_key is None:
            graph_key = sweep_fingerprint(
                "service.graph", self._graph.indptr, self._graph.indices
            )
            if memo is not None:
                memo["graph_fingerprint"] = graph_key
        return sweep_fingerprint("core.striped_transition", graph_key, self._alpha)

    # ------------------------------------------------------------------
    # Stripe protocol (consumed by the streaming kernel)
    # ------------------------------------------------------------------
    @property
    def csc_indptr(self) -> np.ndarray:
        """Column pointer of P's CSC form (O(n) in memory, computed once).

        P is symmetric in *structure* (not values), so the adjacency
        ``indptr`` is already the CSC pointer; laziness adds exactly one
        diagonal entry per column.
        """
        if self._csc_indptr is None:
            indptr = np.asarray(self._graph.indptr, dtype=np.int64)
            if self._alpha > 0.0:
                indptr = indptr + np.arange(indptr.shape[0], dtype=np.int64)
            self._csc_indptr = indptr
        return self._csc_indptr

    def csc_stripe(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise CSC columns ``[lo, hi)`` of P.

        Returns ``(local_indptr, rows, vals)`` with ``local_indptr[0] ==
        0``.  One contiguous read of the mapped ``indices`` plus O(stripe)
        compute; bit-for-bit the slice scipy's ``tocsc()`` would hold.
        """
        graph_indptr = self._graph.indptr
        s0, s1 = int(graph_indptr[lo]), int(graph_indptr[hi])
        rows = np.asarray(self._graph.indices[s0:s1], dtype=np.int64)
        local_indptr = np.asarray(graph_indptr[lo:hi + 1], dtype=np.int64) - s0
        alpha = self._alpha
        if alpha == 0.0:
            return local_indptr, rows, self._inv_deg[rows]
        vals = self._inv_deg[rows] * (1.0 - alpha)
        # Insert the diagonal alpha at each column's sorted row slot.
        # Entry k belongs to column `col_of[k]`; it precedes the diagonal
        # exactly when its row id is below the column id (no self loops,
        # so never equal).
        width = hi - lo
        col_of = np.repeat(
            np.arange(lo, hi, dtype=np.int64), np.diff(local_indptr)
        )
        below = rows < col_of
        before_diag = np.bincount(
            (col_of - lo)[below], minlength=width
        )
        insert_at = local_indptr[:-1] + before_diag
        rows_out = np.insert(rows, insert_at, np.arange(lo, hi, dtype=np.int64))
        vals_out = np.insert(vals, insert_at, alpha)
        local_out = local_indptr + np.arange(width + 1, dtype=np.int64)
        return local_out, rows_out, vals_out

    # ------------------------------------------------------------------
    # Dense-block product
    # ------------------------------------------------------------------
    def budgeted_step(
        self, memory_budget: Optional[int] = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        """``block -> block @ P`` streaming stripes planned for ``memory_budget``.

        ``memory_budget`` is :class:`~repro.core.runtime.ExecutionPolicy`'s
        field (``None`` plans for :data:`_STREAM_DEFAULT_BYTES`).  The
        step is prepared once per budget and memoised on the matrix; any
        budget gives the same bits, since stripes partition output
        columns and never reorder a column's sum.
        """
        step = self._steps.get(memory_budget)
        if step is None:
            step = _prepare_streaming(self, memory_budget=memory_budget)
            self._steps[memory_budget] = step
        return step

    def __rmatmul__(self, block: np.ndarray) -> np.ndarray:
        """``block @ P``: the default-budget :meth:`budgeted_step`.

        Bit-for-bit equal to materialising P and letting scipy multiply
        — the streaming kernel reproduces scipy's per-column
        accumulation order exactly.
        """
        step = self.budgeted_step()
        x = np.asarray(block, dtype=np.float64)
        if x.ndim == 1:
            return step(x[np.newaxis, :])[0]
        return step(x)

    # ------------------------------------------------------------------
    # Materialisation escape hatches (small graphs)
    # ------------------------------------------------------------------
    def tocsr(self):
        """The matrix as an in-memory scipy CSR (O(2m) — small graphs only)."""
        if self._dense_cache is None:
            from scipy.sparse import csr_matrix, identity

            graph = self._graph
            n = graph.num_nodes
            indices = np.array(graph.indices, dtype=np.int64)
            indptr = np.array(graph.indptr, dtype=np.int64)
            data = np.repeat(self._inv_deg, np.asarray(graph.degrees))
            plain = csr_matrix((data, indices, indptr), shape=(n, n))
            if self._alpha > 0.0:
                lazy = (self._alpha * identity(n, format="csr")) + (
                    1.0 - self._alpha
                ) * plain
                self._dense_cache = lazy.tocsr()
            else:
                self._dense_cache = plain
        return self._dense_cache

    def tocsc(self):
        return self.tocsr().tocsc()

    @property
    def data(self):
        return self.tocsr().data

    @property
    def indices(self):
        return self.tocsr().indices

    @property
    def indptr(self):
        return self.tocsr().indptr

    def __repr__(self) -> str:
        n = self._graph.num_nodes
        return (
            f"StripedTransitionMatrix(n={n}, nnz={self.nnz}, "
            f"laziness={self._alpha}, path={self.path!r})"
        )
