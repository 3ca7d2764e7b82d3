"""Content-addressed identities for service queries.

The result cache and the operator registry both key on *content*, never
on names: two datasets with identical CSR arrays share operators and
answers, and regenerating a dataset with a different recipe (same name,
different edges) can never serve stale numbers.  Both builders reuse the
type-tagged sha256 machinery of
:func:`repro.core.runtime.sweep_fingerprint` (PR 5), extended here to
the query dimension: a cache key covers the graph content, the operator
kind and its dynamics knobs, the query type, and every query parameter
(ε, walk lengths, sources, seeds) — and deliberately **excludes** every
execution knob (workers, block size, memory budget, coalescing window),
to which all answers are pinned bit-for-bit invariant.
"""

from __future__ import annotations

from ..core.runtime import sweep_fingerprint

__all__ = ["graph_fingerprint", "query_fingerprint"]


def graph_fingerprint(graph) -> str:
    """Content-addressed identity of a graph's CSR structure.

    Memoised on the graph instance (via ``Graph._memo`` where available)
    because the service fingerprints the same warm graph on every
    request; the hash itself covers ``indptr`` + ``indices`` only —
    exactly the arrays every operator in the package is built from.
    """
    memo = getattr(graph, "_memo", None)
    if memo is not None:
        cached = memo.get("graph_fingerprint")
        if cached is not None:
            return cached
    digest = sweep_fingerprint("service.graph", graph.indptr, graph.indices)
    if memo is not None:
        memo["graph_fingerprint"] = digest
    return digest


def query_fingerprint(query_type: str, graph_key: str, operator_kind: str, **params) -> str:
    """Cache key of one service query.

    ``query_type`` names the request shape (a key of
    :data:`repro.service.engine.QUERY_TYPES`), ``graph_key`` is a
    :func:`graph_fingerprint` (or a temporal graph's version for trend
    queries), ``operator_kind`` identifies the
    operator flavour plus its dynamics (e.g. ``"plain:0.0"`` for the
    simple walk at laziness 0).  Keyword parameters are hashed in sorted
    name order with the same type-tagged encoding as
    :func:`~repro.core.runtime.sweep_fingerprint`, so key equality is
    exactly content equality — never dict-ordering luck.
    """
    parts = []
    for name in sorted(params):
        parts.append(name)
        parts.append(params[name])
    return sweep_fingerprint(
        f"service.query.{query_type}", str(graph_key), str(operator_kind), parts
    )
