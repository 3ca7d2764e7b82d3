"""Distances between probability distributions.

The paper's measurements are phrased in *total variation distance*
(Definition 1).  Whānau's experiments used the *separation distance*
instead, which the paper criticises (footnote 2); both are provided so the
comparison can be reproduced.
"""

from __future__ import annotations

import numpy as np

from .._util import check_probability_vector

__all__ = [
    "total_variation_distance",
    "total_variation_to_reference",
    "separation_distance",
    "l2_distance",
    "kl_divergence",
    "hellinger_distance",
]


def total_variation_distance(p: np.ndarray, q: np.ndarray, *, validate: bool = True) -> float:
    """Total variation distance ``(1/2) * sum_i |p_i - q_i|``.

    This is the ``|| . ||_1`` metric of Definition 1 (with the customary
    1/2 factor so the distance lies in [0, 1]).
    """
    if validate:
        p = check_probability_vector(p, name="p")
        q = check_probability_vector(q, name="q")
        if p.size != q.size:
            raise ValueError("p and q must have the same length")
    return float(0.5 * np.abs(p - q).sum())


def total_variation_to_reference(
    block: np.ndarray, reference: np.ndarray, *, validate: bool = True
) -> np.ndarray:
    """Row-wise TVD of an ``(s, n)`` block against one reference vector.

    ``out[i] = (1/2) * sum_j |block[i, j] - reference[j]|`` — the batched
    form of :func:`total_variation_distance` used by the
    :class:`~repro.core.operators.MarkovOperator` block API.  Each entry
    is bit-for-bit what the scalar function returns on the corresponding
    row: the reduction runs per row as a contiguous 1-D pairwise sum
    (``abs(x - ref).sum(axis=1)`` on a multi-row array picks a different
    pairwise blocking than a 1-D sum, which would make results depend on
    how sources are chunked into blocks — a 1-ulp drift the operator
    layer promises never to introduce).  The absolute differences are
    taken in place in the one ``(s, n)`` temporary: on 16+ row blocks a
    second temporary made the reduction several times slower per row.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"block must be 2-D (s, n), got shape {x.shape}")
    if validate:
        reference = check_probability_vector(reference, name="reference")
        for i in range(x.shape[0]):
            check_probability_vector(x[i], name=f"block[{i}]")
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (x.shape[1],):
        raise ValueError("reference must have one entry per block column")
    diff = x - ref
    np.abs(diff, out=diff)
    out = np.empty(x.shape[0], dtype=np.float64)
    for i in range(x.shape[0]):
        out[i] = diff[i].sum()
    out *= 0.5
    return out


def separation_distance(p: np.ndarray, q: np.ndarray, *, validate: bool = True) -> float:
    """Separation distance ``max_i (1 - p_i / q_i)`` of p relative to q.

    Only entries with ``q_i > 0`` participate; an entry with ``q_i == 0``
    and ``p_i > 0`` makes the distance 1 (p escapes q's support).  Always
    upper-bounds the total variation distance.
    """
    if validate:
        p = check_probability_vector(p, name="p")
        q = check_probability_vector(q, name="q")
        if p.size != q.size:
            raise ValueError("p and q must have the same length")
    supported = q > 0
    if np.any(~supported & (np.asarray(p) > 0)):
        return 1.0
    # Overflow to +inf is harmless here: only the *smallest* ratio
    # matters, and a huge p/q just means that entry is not the minimum.
    with np.errstate(over="ignore"):
        ratio = np.asarray(p)[supported] / np.asarray(q)[supported]
    return float(np.clip(1.0 - ratio.min(), 0.0, 1.0))


def l2_distance(p: np.ndarray, q: np.ndarray, *, validate: bool = True) -> float:
    """Euclidean distance between the distribution vectors."""
    if validate:
        p = check_probability_vector(p, name="p")
        q = check_probability_vector(q, name="q")
        if p.size != q.size:
            raise ValueError("p and q must have the same length")
    return float(np.linalg.norm(np.asarray(p) - np.asarray(q)))


def kl_divergence(p: np.ndarray, q: np.ndarray, *, validate: bool = True) -> float:
    """Kullback–Leibler divergence ``D(p || q)`` in nats.

    Returns ``inf`` when p puts mass outside q's support.
    """
    if validate:
        p = check_probability_vector(p, name="p")
        q = check_probability_vector(q, name="q")
        if p.size != q.size:
            raise ValueError("p and q must have the same length")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    if np.any(mask & (q <= 0)):
        return float("inf")
    # log(p) - log(q) instead of log(p / q): the ratio can overflow when
    # q holds denormals even though the divergence itself is finite.
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def hellinger_distance(p: np.ndarray, q: np.ndarray, *, validate: bool = True) -> float:
    """Hellinger distance ``(1/sqrt(2)) * || sqrt(p) - sqrt(q) ||_2``."""
    if validate:
        p = check_probability_vector(p, name="p")
        q = check_probability_vector(q, name="q")
        if p.size != q.size:
            raise ValueError("p and q must have the same length")
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(q)) / np.sqrt(2.0))
