"""Batch-shaped answers computed *through* the service.

These adapters express the batch runners' core computations as service
queries and reassemble the batch-shaped outputs.  They exist so the two
paths cannot drift: the identity tests pin ``variation_curves_via_service``
(et al.) bit-for-bit against the direct batch calls, under every serving
regime — cold, cached, coalesced, workers 1 or 2.  If someone changes a
kernel, a cache key, or the scatter logic in a way that could make the
service answer diverge from the batch answer, these adapters are where
the test suite notices.

Per-source queries are submitted from a thread pool (one thread per
source, capped) rather than a loop, so the adapters also exercise the
engine's coalescing path the way real concurrent clients would.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from ..core.operators import HittingTimes
from .engine import QueryEngine

__all__ = [
    "admission_via_service",
    "hitting_times_via_service",
    "variation_curves_via_service",
]

#: Cap on adapter-side client threads; enough to fill a coalescing
#: window without oversubscribing small containers.
_MAX_CLIENT_THREADS = 8


def variation_curves_via_service(
    engine: QueryEngine,
    dataset: str,
    sources: Sequence[int],
    walk_lengths: Sequence[int],
    *,
    laziness: float = 0.0,
    per_source: bool = False,
) -> np.ndarray:
    """The ``(len(sources), len(walk_lengths))`` distance matrix, via queries.

    ``per_source=False`` issues one multi-source query (the service's
    natural shape).  ``per_source=True`` issues one query per source from
    concurrent threads — the adversarial case for coalescing identity:
    rows scattered out of merged sweeps must still reassemble into
    exactly the batch matrix.
    """
    if not per_source:
        result = engine.variation_curve(
            dataset, tuple(sources), tuple(walk_lengths), laziness=laziness
        )
        return np.asarray(result.value, dtype=np.float64)

    def one(source: int) -> np.ndarray:
        result = engine.variation_curve(
            dataset, (int(source),), tuple(walk_lengths), laziness=laziness
        )
        return np.asarray(result.value, dtype=np.float64)[0]

    with ThreadPoolExecutor(
        max_workers=min(_MAX_CLIENT_THREADS, max(1, len(sources)))
    ) as pool:
        rows = list(pool.map(one, sources))
    return np.stack(rows, axis=0)


def hitting_times_via_service(
    engine: QueryEngine,
    dataset: str,
    sources: Sequence[int],
    epsilon: float,
    *,
    max_steps: int = 10_000,
    laziness: float = 0.0,
) -> HittingTimes:
    """Per-source mixing times via concurrent point-mass queries.

    Submits one :class:`~repro.service.engine.MixingTimeQuery` per source
    from a thread pool (letting the engine coalesce them into block
    sweeps) and reassembles the batch :class:`HittingTimes` shape.
    """

    def one(source: int) -> dict:
        return engine.mixing_time(
            dataset, source, epsilon, laziness=laziness, max_steps=max_steps
        ).value

    with ThreadPoolExecutor(
        max_workers=min(_MAX_CLIENT_THREADS, max(1, len(sources)))
    ) as pool:
        answers = list(pool.map(one, sources))
    times = np.asarray([a["time"] for a in answers], dtype=np.int64)
    finals = np.asarray([a["final_distance"] for a in answers], dtype=np.float64)
    return HittingTimes(times=times, final_distances=finals)


def admission_via_service(
    engine: QueryEngine,
    dataset: str,
    suspects: Sequence[int],
    route_length: int,
    *,
    verifier: int = 0,
    seed: int = 0,
    num_instances: Optional[int] = None,
) -> dict:
    """One SybilLimit admission verdict via the service, batch-shaped.

    Deliberately a single query for the whole suspect set — admission is
    set-dependent, so the adapter preserves the batch runner's exact
    suspect composition instead of fanning out per suspect.
    """
    result = engine.admission(
        dataset,
        tuple(int(s) for s in suspects),
        int(route_length),
        verifier=verifier,
        seed=seed,
        num_instances=num_instances,
    )
    return result.value
