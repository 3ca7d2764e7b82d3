"""Spectral analysis of the random-walk transition matrix.

Computes the second largest eigenvalue modulus (SLEM)

    mu = max(|lambda_2|, |lambda_n|)

of ``P = D^{-1} A`` (Theorem 2), which drives both mixing-time bounds and
the conductance bound ``Phi >= 1 - mu``.  Three interchangeable back-ends
are provided:

``"sparse"``
    scipy's Lanczos (``eigsh``) on the *symmetric normalisation*
    ``N = D^{-1/2} A D^{-1/2}``, which is similar to P (same spectrum) but
    symmetric, so the Hermitian solver applies.  This is the method that
    scales to million-node graphs and is the default.
``"dense"``
    ``numpy.linalg.eigvalsh`` on the dense N — exact reference for small
    graphs (guarded by a node-count cap).
``"power"``
    Our own deflated power iteration on N — a dependency-free
    cross-check that also demonstrates the classical algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ConvergenceError, NotConnectedError
from ..graph import Graph, is_connected
from ..obs import OBS

__all__ = [
    "SpectralSummary",
    "normalized_adjacency",
    "normalized_adjacency_operator",
    "non_backtracking_slem",
    "transition_spectrum_extremes",
    "slem",
    "spectral_gap",
    "conductance_lower_bound",
    "cheeger_bounds",
]

_DENSE_CAP = 4000


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral facts about a graph's random walk.

    Attributes
    ----------
    lambda2:
        Second largest eigenvalue of P (signed).
    lambda_min:
        Smallest eigenvalue of P (signed; ``> -1`` iff non-bipartite).
    slem:
        ``max(|lambda2|, |lambda_min|)`` — the paper's mu.
    gap:
        Spectral gap ``1 - slem``.
    method:
        Back-end that produced the values.
    """

    lambda2: float
    lambda_min: float
    slem: float
    gap: float
    method: str


def normalized_adjacency(graph: Graph):
    """``N = D^{-1/2} A D^{-1/2}`` as a CSR matrix.

    N is symmetric and similar to P via ``P = D^{-1/2} N D^{1/2}``, so they
    share eigenvalues; N's eigenvectors are D^{1/2}-rescaled versions of
    P's.

    Memoised on the (immutable) graph's ``_memo`` dict: temporal trend
    sweeps solve on the same window snapshots repeatedly, and rebuilding
    the O(2m) CSR per solve would dominate the warm solver's win.
    """
    from scipy.sparse import csr_matrix

    memo = getattr(graph, "_memo", None)
    if memo is not None and "normalized_adjacency" in memo:
        return memo["normalized_adjacency"]
    deg = graph.degrees.astype(np.float64)
    if np.any(deg == 0):
        raise NotConnectedError("normalized adjacency undefined with isolated nodes")
    inv_sqrt = 1.0 / np.sqrt(deg)
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    data = inv_sqrt[src] * inv_sqrt[graph.indices]
    n = graph.num_nodes
    matrix = csr_matrix((data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n))
    if memo is not None:
        memo["normalized_adjacency"] = matrix
    return matrix


def normalized_adjacency_operator(graph: Graph, *, memory_budget=None):
    """``N`` as a matrix-free ``LinearOperator`` streaming row stripes.

    The out-of-core analogue of :func:`normalized_adjacency`: holds only
    O(n) derived state (``deg^{-1/2}``) and computes ``N @ v`` by walking
    the (possibly memory-mapped) CSR arrays one budget-sized stripe at a
    time, so million-node graphs never materialise the O(2m) float64
    ``data`` array.  Row sums use ``np.add.reduceat`` — fine here because
    the Lanczos/power consumers are tolerance-based (unlike the
    bit-identity-pinned walk kernels, which must reproduce scipy's
    accumulation order exactly).
    """
    from scipy.sparse.linalg import LinearOperator

    from .outofcore import _STREAM_DEFAULT_BYTES, stripe_bounds

    deg = graph.degrees.astype(np.float64)
    if np.any(deg == 0):
        raise NotConnectedError("normalized adjacency undefined with isolated nodes")
    inv_sqrt = 1.0 / np.sqrt(deg)
    n = graph.num_nodes
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = graph.indices
    budget = _STREAM_DEFAULT_BYTES if memory_budget is None else int(memory_budget)
    bounds = stripe_bounds(indptr, budget)

    def matvec(v: np.ndarray) -> np.ndarray:
        x = inv_sqrt * np.asarray(v, dtype=np.float64).reshape(-1)
        out = np.empty(n, dtype=np.float64)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            s0, s1 = int(indptr[lo]), int(indptr[hi])
            idx = np.asarray(indices[s0:s1], dtype=np.int64)
            starts = indptr[lo:hi] - s0
            # No empty rows (isolated nodes rejected above), so reduceat's
            # repeated-index pitfall cannot trigger.
            out[lo:hi] = inv_sqrt[lo:hi] * np.add.reduceat(x[idx], starts)
        if OBS.enabled:
            OBS.add("spectral.stream.matvecs")
            OBS.add("spectral.stream.stripes", len(bounds) - 1)
        return out

    return LinearOperator((n, n), matvec=matvec, rmatvec=matvec, dtype=np.float64)


def _normalized_matrix(graph: Graph):
    """CSR for in-memory graphs, a streamed operator for mapped ones."""
    if graph.is_memmap:
        return normalized_adjacency_operator(graph)
    return normalized_adjacency(graph)


def _extremes_sparse(graph: Graph, *, tol: float = 0.0, maxiter=None) -> Tuple[float, float]:
    from scipy.sparse.linalg import eigsh

    matrix = _normalized_matrix(graph)
    n = matrix.shape[0]
    if n <= 16:
        return _extremes_dense(graph)
    k = min(3, n - 1)
    # Largest algebraic: lambda_1 = 1 and lambda_2; deterministic start
    # vector keeps results reproducible.
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        with OBS.timer("spectral.sparse.seconds"):
            top = eigsh(matrix, k=k, which="LA", return_eigenvectors=False, tol=tol, maxiter=maxiter, v0=v0)
            bottom = eigsh(matrix, k=1, which="SA", return_eigenvectors=False, tol=tol, maxiter=maxiter, v0=v0)
    except Exception as exc:  # ArpackNoConvergence and friends
        raise ConvergenceError(f"sparse eigensolver failed: {exc}") from exc
    if OBS.enabled:
        OBS.add("spectral.sparse.solves", 2)
        OBS.observe("spectral.sparse.ritz_k", k)
    top = np.sort(top)[::-1]
    lambda2 = float(top[1])
    lambda_min = float(bottom[0])
    return lambda2, lambda_min


def _extremes_dense(graph: Graph) -> Tuple[float, float]:
    n = graph.num_nodes
    if n > _DENSE_CAP:
        raise ConfigurationError(
            f"dense spectral back-end capped at {_DENSE_CAP} nodes (got {n}); use method='sparse'"
        )
    dense = normalized_adjacency(graph).toarray()
    eigenvalues = np.linalg.eigvalsh(dense)
    return float(eigenvalues[-2]), float(eigenvalues[0])


def _extremes_power(
    graph: Graph,
    *,
    tol: float = 1e-10,
    maxiter: int = 100_000,
    seed: int = 7,
) -> Tuple[float, float]:
    """Deflated power iteration on N.

    The top eigenpair of N is known in closed form (eigenvalue 1 with
    eigenvector ``sqrt(deg)``), so lambda_2 comes from power iteration on
    the orthogonal complement.  |lambda_min| comes from iterating on
    ``N + I`` (shifting the spectrum to [0, 2]) from the bottom end via
    ``2I - (N + I) = I - N`` — we iterate ``I - N`` deflated by the same
    top vector, whose dominant eigenvalue is ``1 - lambda_min``.
    """
    matrix = _normalized_matrix(graph)
    n = matrix.shape[0]
    top_vec = np.sqrt(graph.degrees.astype(np.float64))
    top_vec /= np.linalg.norm(top_vec)
    rng = np.random.default_rng(seed)

    def dominant(apply_op) -> float:
        x = rng.standard_normal(n)
        x -= (x @ top_vec) * top_vec
        x /= np.linalg.norm(x)
        value = 0.0
        for iteration in range(maxiter):
            y = apply_op(x)
            y -= (y @ top_vec) * top_vec  # re-deflate against drift
            norm = np.linalg.norm(y)
            if norm == 0:
                if OBS.enabled:
                    OBS.observe("spectral.power.iterations", iteration + 1)
                return 0.0
            y /= norm
            new_value = float(y @ apply_op(y))
            residual = abs(new_value - value)
            if residual <= tol:
                if OBS.enabled:
                    OBS.observe("spectral.power.iterations", iteration + 1)
                    OBS.observe("spectral.power.residual", residual)
                return new_value
            value = new_value
            x = y
        if OBS.enabled:
            OBS.add("spectral.power.nonconverged")
        raise ConvergenceError("power iteration did not converge", partial=value)

    # lambda with the largest |.| among non-top eigenvalues:
    lam_abs_top = dominant(lambda v: matrix @ v)
    # Largest eigenvalue of (I - N) restricted to the complement = 1 - lambda_min.
    lam_shift = dominant(lambda v: v - matrix @ v)
    lambda_min = 1.0 - lam_shift
    # lam_abs_top is the eigenvalue of largest magnitude in the complement;
    # recover lambda2 as max over {lam_abs_top, anything smaller}: if
    # lam_abs_top is negative it *is* lambda_min, and lambda2 comes from
    # iterating N + I (spectrum shifted positive) instead.
    if lam_abs_top >= 0:
        lambda2 = lam_abs_top
        lambda_min = min(lambda_min, lam_abs_top)
    else:
        lam_pos = dominant(lambda v: matrix @ v + v) - 1.0
        lambda2 = lam_pos
        lambda_min = min(lambda_min, lam_abs_top)
    return float(lambda2), float(lambda_min)


def transition_spectrum_extremes(
    graph: Graph,
    *,
    method: str = "sparse",
    check_connected: bool = True,
    tol: float = 0.0,
    maxiter=None,
) -> SpectralSummary:
    """Compute ``lambda_2`` and ``lambda_min`` of P and derive the SLEM.

    Parameters
    ----------
    method:
        ``"sparse"`` (default), ``"dense"``, or ``"power"`` — see module
        docstring.
    check_connected:
        When true (default), raise :class:`NotConnectedError` on
        disconnected input instead of returning a meaningless mu = 1.
    """
    if graph.num_nodes < 2:
        raise ConfigurationError("spectral summary needs at least two nodes")
    if check_connected and not is_connected(graph):
        raise NotConnectedError("graph is disconnected; SLEM would trivially be 1")
    with OBS.span(
        "spectral.extremes", method=method, nodes=int(graph.num_nodes)
    ) as span:
        if method == "sparse":
            lambda2, lambda_min = _extremes_sparse(graph, tol=tol, maxiter=maxiter)
        elif method == "dense":
            lambda2, lambda_min = _extremes_dense(graph)
        elif method == "power":
            lambda2, lambda_min = _extremes_power(graph)
        else:
            raise ConfigurationError(f"unknown method {method!r}; expected sparse|dense|power")
        if OBS.enabled:
            OBS.add(f"spectral.calls.{method}")
            span.set(lambda2=float(lambda2), lambda_min=float(lambda_min))
    mu = max(abs(lambda2), abs(lambda_min))
    mu = min(mu, 1.0)
    return SpectralSummary(
        lambda2=lambda2,
        lambda_min=lambda_min,
        slem=mu,
        gap=1.0 - mu,
        method=method,
    )


def non_backtracking_slem(
    graph: Graph,
    *,
    method: str = "sparse",
    check_connected: bool = True,
    tol: float = 0.0,
    maxiter=None,
) -> float:
    """Second largest eigenvalue modulus of the Hashimoto operator ``B``.

    The non-backtracking analogue of :func:`slem`: ``B`` (see
    :class:`~repro.core.nonbacktracking.NonBacktrackingOperator`) is
    doubly stochastic with Perron eigenvalue 1; the next-largest modulus
    governs how fast the edge-space walk forgets its start, just as mu
    does for the simple walk.  On expanders it sits well below the
    simple-walk mu (the walk cannot burn steps backtracking); on a pure
    cycle ``B`` is a rotation — every eigenvalue has modulus 1 and the
    returned value is 1, matching the chain's failure to mix.

    ``B`` is *not* symmetric, so the back-ends differ from the node-space
    path: ``"sparse"`` uses scipy's implicitly-restarted Arnoldi
    (``eigs``), ``"dense"`` exact ``numpy.linalg.eigvals`` (capped at
    the same node budget as the dense node back-end).
    """
    if graph.num_nodes < 2:
        raise ConfigurationError("spectral summary needs at least two nodes")
    if check_connected and not is_connected(graph):
        raise NotConnectedError("graph is disconnected; SLEM would trivially be 1")
    from .nonbacktracking import NonBacktrackingOperator

    matrix = NonBacktrackingOperator(graph)._matrix
    num_slots = matrix.shape[0]
    with OBS.span(
        "spectral.nonbacktracking", method=method, arcs=int(num_slots)
    ) as span:
        if method == "dense" or (method == "sparse" and num_slots <= 32):
            if num_slots > _DENSE_CAP:
                raise ConfigurationError(
                    f"dense spectral back-end capped at {_DENSE_CAP} arcs "
                    f"(got {num_slots}); use method='sparse'"
                )
            moduli = np.sort(np.abs(np.linalg.eigvals(matrix.toarray())))[::-1]
        elif method == "sparse":
            from scipy.sparse.linalg import eigs

            k = min(4, num_slots - 2)
            v0 = np.full(num_slots, 1.0 / np.sqrt(num_slots))
            try:
                with OBS.timer("spectral.nonbacktracking.seconds"):
                    values = eigs(
                        matrix.astype(np.float64),
                        k=k,
                        which="LM",
                        return_eigenvectors=False,
                        tol=tol,
                        maxiter=maxiter,
                        v0=v0,
                    )
            except Exception as exc:  # ArpackNoConvergence and friends
                raise ConvergenceError(
                    f"sparse eigensolver failed on Hashimoto matrix: {exc}"
                ) from exc
            moduli = np.sort(np.abs(values))[::-1]
        else:
            raise ConfigurationError(
                f"unknown method {method!r}; expected sparse|dense"
            )
        mu = float(min(moduli[1], 1.0))
        if OBS.enabled:
            span.set(slem=mu)
    return mu


def slem(graph: Graph, *, method: str = "sparse", **kwargs) -> float:
    """The second largest eigenvalue modulus mu (Table 1 column)."""
    return transition_spectrum_extremes(graph, method=method, **kwargs).slem


def spectral_gap(graph: Graph, *, method: str = "sparse", **kwargs) -> float:
    """``1 - mu`` — the relaxation-rate of the chain."""
    return transition_spectrum_extremes(graph, method=method, **kwargs).gap


def conductance_lower_bound(mu: float) -> float:
    """Spectral lower bound on conductance: ``Phi >= (1 - mu) / 2``.

    Section 3.2 states the relation informally as "Phi ≳ 1 - mu"; the
    rigorous direction of Cheeger's inequality is
    ``Phi >= (1 - lambda_2) / 2 >= (1 - mu) / 2`` (since
    ``lambda_2 <= mu``), which is what this returns — the unhalved form
    is falsified by real graphs whose sweep cut lands between the two.
    """
    if not 0.0 <= mu <= 1.0:
        raise ConfigurationError("mu must lie in [0, 1]")
    return (1.0 - mu) / 2.0


def cheeger_bounds(lambda2: float) -> Tuple[float, float]:
    """Cheeger's inequality: ``(1 - lambda2)/2 <= Phi <= sqrt(2(1 - lambda2))``.

    Stated on the signed lambda_2 (not the modulus).  Returns
    ``(lower, upper)``.
    """
    if lambda2 > 1.0 or lambda2 < -1.0:
        raise ConfigurationError("lambda2 must lie in [-1, 1]")
    gap = 1.0 - lambda2
    return gap / 2.0, float(np.sqrt(2.0 * gap))
