"""Pluggable SpMM backends for the blocked ``X @ P`` hot path.

Every measurement in the reproduction — variation curves, hitting
times, block evolution, the service's coalesced sweeps — bottoms out in
the same dense-block-times-CSR product.  This module is the seam that
lets that product be served by interchangeable kernels, selected via
:class:`~repro.core.runtime.ExecutionPolicy`'s ``backend`` field:

``"numpy"`` (default)
    scipy's native ``block @ csr`` — bit-for-bit the kernels every
    pinned golden value was produced with.  Choosing it changes nothing.
``"float32"``
    Single-precision SpMM: the block and matrix are downcast to float32
    for the multiply and the result upcast to float64.  Cheap on
    bandwidth-bound graphs, *not* exact — its error envelope against the
    float64 oracle is pinned by the differential harness
    (``tests/core/test_backends.py``) using the constants below.
``"streaming"``
    The out-of-core kernel: walks the matrix in CSC *column stripes*
    sized to ``ExecutionPolicy(memory_budget=…)``, double-buffering the
    next stripe's load on a helper thread while the current stripe
    multiplies.  Each output column is accumulated wholly inside one
    stripe in scipy's own nonzero order, so the result is bit-for-bit
    identical to the numpy oracle while only ever holding
    two stripes of matrix data in memory.  Combined with
    :class:`repro.graph.storage.MemmapGraph` (whose transition matrix
    serves stripes straight off ``np.memmap``) it runs sweeps over
    graphs whose CSR exceeds RAM.

Contract
--------
A backend is an :class:`SpmmBackend`: a name, a ``numeric`` tag
(``"float64"`` backends must be bit-identical to the numpy oracle;
``"float32"`` backends must stay inside the pinned envelope), and a
``factory(csr_matrix) -> step`` where ``step(block)`` maps a float64
``(s, n)`` block to the float64 ``(s, n)`` next block.  Register new
backends with :func:`register_backend`; ``ExecutionPolicy`` validates
names at construction, so an unknown backend fails fast with
:class:`~repro.errors.ConfigurationError` instead of deep inside a
sweep.  Backends are *execution* knobs: float64 backends never enter
checkpoint fingerprints or service cache keys; float32 (any non-exact
numeric) keys separately because its numbers genuinely differ.

Every prepared step is row-independent (each output row depends only on
the matching input row), which is what keeps worker sharding, chunking
and early-exit masking bit-for-bit neutral per backend — the invariant
the differential harness re-pins for every registered name.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs import OBS

__all__ = [
    "DEFAULT_BACKEND",
    "FLOAT32_CURVE_ATOL",
    "FLOAT32_TIME_SLACK",
    "SpmmBackend",
    "available_backends",
    "backend_numeric",
    "get_backend",
    "register_backend",
    "stripe_bounds",
    "validate_backend",
]

#: The backend every policy uses unless told otherwise: scipy's own
#: kernels, i.e. exactly the arithmetic all pinned values came from.
DEFAULT_BACKEND = "numpy"

#: Stripe-buffer budget the streaming backend assumes when prepared
#: without an explicit ``memory_budget`` (the differential harness and
#: in-memory callers): big enough that small graphs run in one stripe.
_STREAM_DEFAULT_BYTES = 8 * 1024 * 1024

#: Bytes of stripe payload per nonzero: int64 row + float64 value, times
#: two because the double buffer holds the current and the prefetched
#: stripe at once.
_STREAM_BYTES_PER_NNZ = 32

# ----------------------------------------------------------------------
# Pinned float32 error envelope (validated by tests/core/test_backends.py)
# ----------------------------------------------------------------------
#: Absolute tolerance on any recorded variation distance produced by the
#: float32 backend, versus the float64 oracle.  Derivation: one float32
#: SpMM step commits a relative rounding of at most a few ulps
#: (~1.2e-7) per output element; the TVD sums n absolute differences of
#: probabilities that themselves sum to 1, so the per-step distance
#: perturbation is O(steps * eps32) with a modest constant.  The golden
#: suite (walks up to 40 on graphs up to 80 nodes) lands below 1e-5;
#: 1e-4 gives an order of magnitude of headroom without ever masking a
#: genuinely wrong kernel (a transposed or mis-weighted SpMM is off by
#: O(1e-1)).
FLOAT32_CURVE_ATOL = 1e-4

#: Hitting times are argmin-threshold crossings: when the float64
#: distance at the hitting step sits within float32 noise of epsilon,
#: the float32 walk may cross one step earlier or later.  The harness
#: therefore allows per-source hitting times to differ by at most this
#: many steps (and asserts the recorded distances stay within
#: :data:`FLOAT32_CURVE_ATOL`).
FLOAT32_TIME_SLACK = 1


# ----------------------------------------------------------------------
# Kernel factories
# ----------------------------------------------------------------------
def _prepare_numpy(matrix) -> Callable[[np.ndarray], np.ndarray]:
    """The oracle: scipy's own dense-block x CSR product."""

    def step(block: np.ndarray) -> np.ndarray:
        return np.asarray(block @ matrix)

    return step


def _csc_arrays(matrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrix in CSC form — the layout scipy's kernel walks.

    ``block @ csr`` routes through scipy's ``csc_matvecs`` on the
    transposed view: output column ``j`` accumulates
    ``X[:, rows[k]] * vals[k]`` over ``k`` in column ``j``'s slice, in
    increasing ``k`` (= increasing source-row) order.  Reproducing that
    accumulation order is what makes the streaming backend bit-for-bit.
    """
    csc = matrix.tocsc()
    csc.sort_indices()
    return (
        np.ascontiguousarray(csc.indptr),
        np.ascontiguousarray(csc.indices),
        np.ascontiguousarray(csc.data, dtype=np.float64),
    )


def _prepare_float32(matrix) -> Callable[[np.ndarray], np.ndarray]:
    """Single-precision SpMM: downcast, multiply, upcast.

    The block is re-downcast every step (rather than kept float32
    between steps) so one step's arithmetic is self-contained: the error
    versus the oracle grows additively with walk length, which is what
    the pinned :data:`FLOAT32_CURVE_ATOL` envelope budgets for.
    """
    from scipy.sparse import csr_matrix

    m32 = csr_matrix(
        (
            matrix.data.astype(np.float32),
            matrix.indices.copy(),
            matrix.indptr.copy(),
        ),
        shape=matrix.shape,
    )

    def step(block: np.ndarray) -> np.ndarray:
        x = np.asarray(block, dtype=np.float32)
        return np.asarray(x @ m32, dtype=np.float64)

    return step


# ----------------------------------------------------------------------
# Streaming (out-of-core) kernel
# ----------------------------------------------------------------------
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
    matrix, *, memory_budget: Optional[int] = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Budgeted column-stripe SpMM with double-buffered stripe loads.

    Works on two matrix shapes:

    * objects exposing the out-of-core stripe protocol
      (``csc_indptr`` + ``csc_stripe(lo, hi)`` — see
      :class:`repro.core.outofcore.StripedTransitionMatrix`), whose
      stripes are derived lazily from memory-mapped CSR arrays;
    * any scipy sparse matrix, whose CSC arrays are computed once and
      sliced per stripe (no memory win — in-memory matrices already fit
      — but the identical code path keeps the differential harness
      honest).

    Each :func:`step` walks the stripe plan with a helper thread loading
    stripe ``i + 1`` while stripe ``i`` multiplies, so disk latency
    overlaps compute; the output is bit-for-bit the numpy oracle's.
    """
    budget = int(memory_budget) if memory_budget else _STREAM_DEFAULT_BYTES
    if hasattr(matrix, "csc_stripe"):
        csc_indptr = np.asarray(matrix.csc_indptr, dtype=np.int64)
        loader = matrix.csc_stripe
    else:
        csc_indptr, all_rows, all_vals = _csc_arrays(matrix)

        def loader(lo: int, hi: int):
            s0, s1 = int(csc_indptr[lo]), int(csc_indptr[hi])
            return csc_indptr[lo:hi + 1] - s0, all_rows[s0:s1], all_vals[s0:s1]

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


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpmmBackend:
    """One registered SpMM kernel family.

    Attributes
    ----------
    name:
        Registry key; the value of ``ExecutionPolicy.backend``.
    numeric:
        ``"float64"`` (must be bit-identical to the numpy oracle) or
        ``"float32"`` (must satisfy the pinned error envelope).  The
        service layer keys result caches on this tag: float64 backends
        share cache entries, non-exact numerics key separately.
    factory:
        ``factory(csr_matrix) -> step`` preparing a per-matrix step
        closure; preparation cost is paid once per operator and memoised
        by the operator layer.  Backends with ``needs_budget`` take an
        extra ``memory_budget=`` keyword.
    description:
        One line for docs and ``repro-mixing`` help surfaces.
    needs_budget:
        Whether the factory consumes ``ExecutionPolicy.memory_budget``
        (the streaming backend sizes its stripes from it).  Budgeted
        backends are still bit-for-bit neutral across budgets — the knob
        changes stripe boundaries, never arithmetic order.
    """

    name: str
    numeric: str
    factory: Callable[[Any], Callable[[np.ndarray], np.ndarray]] = field(repr=False)
    description: str = ""
    needs_budget: bool = False

    def prepare(
        self, matrix, *, memory_budget: Optional[int] = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Build the telemetry-wrapped step closure for ``matrix``."""
        if self.needs_budget:
            inner = self.factory(matrix, memory_budget=memory_budget)
        else:
            inner = self.factory(matrix)
        name = self.name
        if OBS.enabled:
            OBS.add("core.backend.prepares")

        def step(block: np.ndarray) -> np.ndarray:
            if OBS.enabled:
                OBS.add(f"core.backend.steps.{name}")
                OBS.add("core.backend.rows", int(block.shape[0]))
            return inner(block)

        return step


_REGISTRY: Dict[str, SpmmBackend] = {}


def register_backend(backend: SpmmBackend, *, replace: bool = False) -> SpmmBackend:
    """Add a backend to the registry (the extension point for new kernels).

    Names are unique; re-registering an existing name without
    ``replace=True`` raises :class:`~repro.errors.ConfigurationError`
    (silent shadowing would invalidate the differential harness's
    claim to have covered every backend).  ``numeric`` must be
    ``"float64"`` or ``"float32"`` — the two contract classes the
    harness knows how to gate.
    """
    if not isinstance(backend, SpmmBackend):
        raise ConfigurationError(
            f"backend must be an SpmmBackend, got {type(backend).__name__}"
        )
    if backend.numeric not in ("float64", "float32"):
        raise ConfigurationError(
            f"backend numeric must be 'float64' or 'float32', got {backend.numeric!r}"
        )
    if not replace and backend.name in _REGISTRY:
        raise ConfigurationError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


register_backend(
    SpmmBackend(
        name="numpy",
        numeric="float64",
        factory=_prepare_numpy,
        description="scipy native block x CSR (the oracle; default)",
    )
)
register_backend(
    SpmmBackend(
        name="float32",
        numeric="float32",
        factory=_prepare_float32,
        description="single-precision SpMM inside the pinned error envelope",
    )
)
register_backend(
    SpmmBackend(
        name="streaming",
        numeric="float64",
        factory=_prepare_streaming,
        description="budgeted out-of-core column-stripe SpMM with "
        "double-buffered stripe loads, bit-identical to the oracle",
        needs_budget=True,
    )
)


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> SpmmBackend:
    """Look a backend up by name; unknown names raise ``ConfigurationError``."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown SpMM backend {name!r}; "
            f"registered backends: {', '.join(_REGISTRY)}"
        )
    return backend


def validate_backend(name) -> str:
    """Normalise/validate a policy's ``backend`` field at construction."""
    if not isinstance(name, str):
        raise ConfigurationError(
            f"backend must be a string backend name, got {name!r} "
            f"({type(name).__name__})"
        )
    get_backend(name)
    return name


def backend_numeric(name: str) -> str:
    """``"float64"`` or ``"float32"`` for a registered backend name.

    The service layer uses this to decide cache-key identity: float64
    backends are execution-only knobs (shared cache entries), anything
    else keys separately.
    """
    return get_backend(name).numeric
