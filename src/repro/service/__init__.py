"""Mixing-time-as-a-service: a long-lived query layer over the runtime.

Everything before this package was batch-shaped: a CLI invocation built
its operators, swept, printed and exited.  The
paper's quantity, however, is naturally *per-node on demand* — "how long
until a walk from v is within ε of stationary?" is a question a Sybil
defense asks about one suspect at a time, millions of times.  This
package turns the PR 1-5 substrate (block kernels, the fork pool,
:class:`~repro.core.runtime.ExecutionPolicy`, content-addressed
fingerprints) into serving infrastructure:

* :class:`~repro.service.registry.OperatorRegistry` — constructs
  operators once and keeps them **warm** across requests, with
  ref-counted leases and LRU eviction.  A ``workers > 1`` sweep forks
  its pool after the lease, so the workers inherit the warm operator,
  exactly as in a batch sweep.
* :class:`~repro.service.engine.QueryEngine` — the request vocabulary
  (mixing time from node v at ε, variation curves for sources S, current
  SLEM, admission decision for suspect s at w, and two trends), each
  query type declared once in
  :data:`~repro.service.engine.QUERY_TYPES`, with **request
  coalescing**: concurrent point-mass queries are batched into single
  block sweeps over the PR-1 kernels and scattered back per-request,
  bit-identical to serial per-request computation.
* :class:`~repro.service.cache.ResultCache` — fingerprint-keyed result
  cache (graph content, operator kind, ε / walk lengths, query type);
  hit-path answers are bit-identical to cold computation.
* :class:`~repro.service.client.ServiceClient` /
  :class:`~repro.service.http.ServiceServer` — the in-process API and
  the stdlib-only HTTP front-end behind ``repro-mixing serve``.  Both
  speak one wire contract, :data:`~repro.service.client.SCHEMA_V2`
  (the payload's ``schema`` key is optional): the point queries, the
  temporal trend queries
  (:class:`~repro.service.engine.MixingTrendQuery`,
  :class:`~repro.service.engine.SlemTrendQuery`) and the
  ``append_delta`` mutation verb over :mod:`repro.graph.temporal`
  datasets, with ``schema`` and ``graph_version`` on every reply.
* :mod:`repro.service.batch` — adapters proving the batch runners are
  expressible as service queries (and pinned so by tests), so the two
  paths cannot drift.
"""

from .cache import CacheStats, ResultCache
from .client import SCHEMA_V2, HTTPServiceClient, ServiceClient, answer_payload
from .engine import (
    AdmissionQuery,
    MixingTimeQuery,
    MixingTrendQuery,
    QueryEngine,
    QueryResult,
    SlemQuery,
    SlemTrendQuery,
    VariationCurveQuery,
)
from .http import ServiceServer
from .keys import graph_fingerprint, query_fingerprint
from .registry import OperatorLease, OperatorRegistry

__all__ = [
    "SCHEMA_V2",
    "AdmissionQuery",
    "CacheStats",
    "HTTPServiceClient",
    "MixingTimeQuery",
    "MixingTrendQuery",
    "OperatorLease",
    "OperatorRegistry",
    "QueryEngine",
    "QueryResult",
    "ResultCache",
    "ServiceClient",
    "ServiceServer",
    "SlemQuery",
    "SlemTrendQuery",
    "VariationCurveQuery",
    "answer_payload",
    "graph_fingerprint",
    "query_fingerprint",
]
