"""Query engine: request vocabulary, coalescing and the cache hit-path.

The engine answers four request shapes — the questions the paper's
pipeline asks of a graph, recast as on-demand queries:

* :class:`MixingTimeQuery` — "mixing time from node *v* at ε" (the
  per-source hitting time of the ε-ball around stationary).
* :class:`VariationCurveQuery` — "variation-distance curve for sources
  *S* at walk lengths *W*" (Figure 1/2's measured object).
* :class:`SlemQuery` — "current SLEM of the graph" (the spectral bound).
* :class:`AdmissionQuery` — "SybilLimit admission decision for suspects
  *S* at route length *w*" (Figure 8's verdict).

Two *trend* shapes extend the vocabulary to temporal datasets
(:mod:`repro.graph.temporal`), where the graph is a versioned delta log
rather than a frozen snapshot:

* :class:`MixingTrendQuery` — "worst/average TVD curves across the
  stream's windows" (the fig3-over-time measurement).
* :class:`SlemTrendQuery` — "SLEM across windows", served by the
  warm-started incremental solver of :mod:`repro.core.incremental`.

Trend queries are never coalesced (each is already a whole sweep) and
their cache keys are built from :attr:`TemporalGraph.version` — a hash
chaining the base snapshot and every delta — so :meth:`append_delta`
invalidates exactly the entries whose answers it changed.

**Coalescing.**  Point-mass queries (mixing time, variation curve) that
arrive within one batching window and share a bucket — same graph,
operator dynamics and sweep parameters — are merged into a *single*
block sweep over the PR-1 kernels and scattered back per-request.  The
first request in a bucket becomes the leader: it waits
``coalesce_window`` seconds (or until ``max_batch`` requests queue,
whichever is first), claims the bucket, runs one sweep over the union of
sources, and fulfils every waiter.  Correctness rests on the PR-1
invariant that block-kernel rows are bit-for-bit independent of batch
composition: the row scattered back for source *v* is identical to what
a lone serial request for *v* would have computed, and the test suite
pins exactly that.

Admission queries are **never** coalesced across requests: SybilLimit's
balance condition is order- and set-dependent (admitting suspect *a*
loads tail counters that suspect *b*'s verdict then sees), so the
contract is "the decision for exactly this query's suspect set" — a
merged sweep would answer a different question.

**No drift.**  The engine does not reimplement sweeps: it calls the same
:func:`repro.core.mixing.measure_mixing` /
:func:`~repro.core.mixing.estimate_mixing_time` the batch runners use
(via their ``operator=`` warm-path parameter), so the service and batch
paths are one code path with two entrances.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.runtime import ExecutionPolicy
from ..errors import ConfigurationError
from ..obs import OBS
from .cache import ResultCache
from .registry import OperatorRegistry

__all__ = [
    "AdmissionQuery",
    "MixingTimeQuery",
    "MixingTrendQuery",
    "QueryEngine",
    "QueryResult",
    "SlemQuery",
    "SlemTrendQuery",
    "VariationCurveQuery",
]


def _warm_nonbacktracking(graph):
    """The graph's Hashimoto operator, memoised like the arc tables.

    The service answers many non-backtracking queries over one warm
    graph; building the arc-space CSR once per graph mirrors how the
    registry amortises node-space operator construction.
    """
    from ..core.nonbacktracking import NonBacktrackingOperator

    memo = getattr(graph, "_memo", None)
    if memo is not None:
        cached = memo.get("nonbacktracking_operator")
        if cached is not None:
            return cached
    operator = NonBacktrackingOperator(graph)
    if memo is not None:
        memo["nonbacktracking_operator"] = operator
    return operator


def _coerce(convert, name: str, value):
    """``convert(value)``, or a :class:`ConfigurationError` naming the field.

    Every client-supplied field goes through here, so a malformed value
    is a client error (HTTP 400), never an opaque internal one.
    """
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"{name} must be {convert.__name__}, got {value!r}"
        ) from exc


def _as_int_tuple(name: str, values) -> Tuple[int, ...]:
    """A non-empty tuple of ints (a bare int is a one-element tuple)."""
    if isinstance(values, (int, np.integer)):
        return (int(values),)
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise ConfigurationError(f"{name} must be a list of integers, got {values!r}")
    out = tuple(_coerce(int, name, v) for v in values)
    if not out:
        raise ConfigurationError(f"{name} must be non-empty")
    return out


def _as_walk_lengths(walk_lengths) -> Tuple[int, ...]:
    """The sweep kernels' rule: non-empty, nonnegative, strictly increasing."""
    walks = _as_int_tuple("walk_lengths", walk_lengths)
    if walks[0] < 0 or any(b <= a for a, b in zip(walks, walks[1:])):
        raise ConfigurationError(
            f"walk_lengths must be strictly increasing and nonnegative, got {list(walks)}"
        )
    return walks


def _check_sources(query, num_states: int) -> None:
    """Reject node ids outside the leased graph.

    Point-query sources, and an admission query's verifier and suspects,
    are checked before the cache and before coalescing, so one bad id is
    a client error for its own request and never fails a merged sweep.
    Admission suspects may also name the planted sybil region, which
    exists when the query carries attack edges (ids ``n .. n +
    num_sybil - 1``).
    """
    if getattr(query, "mode", "point_mass") == "uniform_start":
        return
    if query.query_type == "mixing_time":
        checks = [("source", (query.source,), num_states)]
    elif query.query_type == "variation_curve":
        checks = [("source", query.sources, num_states)]
    elif query.query_type == "admission":
        planted = query.attack_strategy is not None and query.num_attack_edges > 0
        checks = [
            ("verifier", (query.verifier,), num_states),
            ("suspect", query.suspects, num_states + (query.num_sybil if planted else 0)),
        ]
    else:
        return
    for name, ids, limit in checks:
        for node in ids:
            if not 0 <= node < limit:
                raise ConfigurationError(
                    f"{name} {node} out of range for dataset {query.dataset!r} "
                    f"with {limit} nodes"
                )


def _check_query_mode(mode: str, laziness: float) -> None:
    from ..core.mixing import MEASUREMENT_MODES

    if mode not in MEASUREMENT_MODES:
        raise ConfigurationError(
            f"unknown measurement mode {mode!r}; expected one of {MEASUREMENT_MODES}"
        )
    if mode == "non_backtracking" and laziness != 0.0:
        raise ConfigurationError(
            "non_backtracking mode does not support laziness"
        )


@dataclass(frozen=True)
class MixingTimeQuery:
    """Mixing time from one node: min ``t`` with ``||pi - pi^(v) P^t||_1 < eps``.

    ``mode`` selects the estimator (``point_mass`` — the default, the
    paper's definition —, ``uniform_start`` or ``non_backtracking``; see
    :data:`repro.core.mixing.MEASUREMENT_MODES`).  ``uniform_start``
    ignores ``source`` (normalised to the sentinel ``-1`` so all
    uniform-start requests share one cache entry); non-default modes are
    answered directly, never coalesced.
    """

    dataset: str
    source: int
    epsilon: float
    laziness: float = 0.0
    max_steps: int = 10_000
    mode: str = "point_mass"

    query_type = "mixing_time"

    def __post_init__(self):
        object.__setattr__(self, "source", _coerce(int, "source", self.source))
        object.__setattr__(self, "epsilon", _coerce(float, "epsilon", self.epsilon))
        object.__setattr__(self, "laziness", _coerce(float, "laziness", self.laziness))
        object.__setattr__(self, "max_steps", _coerce(int, "max_steps", self.max_steps))
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )
        if self.max_steps < 0:
            raise ConfigurationError(
                f"max_steps must be nonnegative, got {self.max_steps}"
            )
        _check_query_mode(self.mode, self.laziness)
        if self.mode == "uniform_start":
            object.__setattr__(self, "source", -1)

    @property
    def operator_kind(self) -> str:
        return f"plain:{self.laziness!r}"

    def bucket(self) -> Tuple:
        """Coalescing bucket: queries differing only in source merge."""
        return (
            self.query_type,
            self.dataset,
            self.laziness,
            self.epsilon,
            self.max_steps,
            self.mode,
        )

    def fingerprint(self, graph_key: str) -> str:
        from .keys import query_fingerprint

        # The default mode keeps its historical fingerprint (cache
        # entries survive the vocabulary extension); non-default modes
        # answer a different question and key separately.
        extra = {} if self.mode == "point_mass" else {"mode": self.mode}
        return query_fingerprint(
            self.query_type,
            graph_key,
            self.operator_kind,
            source=self.source,
            epsilon=self.epsilon,
            max_steps=self.max_steps,
            **extra,
        )


@dataclass(frozen=True)
class VariationCurveQuery:
    """Variation-distance curve(s): ``||pi - pi^(s) P^w||_1`` over ``w`` grid.

    ``mode`` selects the estimator exactly as on
    :class:`MixingTimeQuery`; ``uniform_start`` ignores ``sources``
    (normalised to ``(-1,)``) and returns the single uniform-start
    curve.
    """

    dataset: str
    sources: Tuple[int, ...]
    walk_lengths: Tuple[int, ...]
    laziness: float = 0.0
    mode: str = "point_mass"

    query_type = "variation_curve"

    def __post_init__(self):
        object.__setattr__(self, "sources", _as_int_tuple("sources", self.sources))
        object.__setattr__(self, "walk_lengths", _as_walk_lengths(self.walk_lengths))
        object.__setattr__(self, "laziness", _coerce(float, "laziness", self.laziness))
        _check_query_mode(self.mode, self.laziness)
        if self.mode == "uniform_start":
            object.__setattr__(self, "sources", (-1,))

    @property
    def operator_kind(self) -> str:
        return f"plain:{self.laziness!r}"

    def bucket(self) -> Tuple:
        """Queries differing only in sources share one block sweep."""
        return (
            self.query_type,
            self.dataset,
            self.laziness,
            self.walk_lengths,
            self.mode,
        )

    def fingerprint(self, graph_key: str) -> str:
        from .keys import query_fingerprint

        extra = {} if self.mode == "point_mass" else {"mode": self.mode}
        return query_fingerprint(
            self.query_type,
            graph_key,
            self.operator_kind,
            sources=list(self.sources),
            walk_lengths=list(self.walk_lengths),
            **extra,
        )


@dataclass(frozen=True)
class SlemQuery:
    """Second-largest eigenvalue modulus of the transition operator."""

    dataset: str
    method: str = "sparse"
    laziness: float = 0.0

    query_type = "slem"

    def __post_init__(self):
        object.__setattr__(self, "laziness", _coerce(float, "laziness", self.laziness))

    @property
    def operator_kind(self) -> str:
        return f"plain:{self.laziness!r}"

    def bucket(self) -> Tuple:
        return (self.query_type, self.dataset, self.laziness, self.method)

    def fingerprint(self, graph_key: str) -> str:
        from .keys import query_fingerprint

        return query_fingerprint(
            self.query_type, graph_key, self.operator_kind, method=self.method
        )


@dataclass(frozen=True)
class AdmissionQuery:
    """SybilLimit verdict for ``suspects`` at route length ``route_length``.

    Deliberately *not* coalescible: the balance condition makes the
    verdict a function of the whole suspect set and its order, so the
    only honest answer is the one computed for exactly this set.

    ``attack_strategy`` plants an adversary before verifying: the
    dataset graph becomes the honest region of a
    :func:`repro.sybil.attacks.build_attack_scenario` scenario with
    ``num_sybil`` identities behind ``num_attack_edges`` attack edges
    (deterministic in ``attack_seed``).  Sybil suspect ids live at
    ``n_honest .. n_honest + num_sybil - 1``.  The default (no strategy)
    keeps the historical no-attacker semantics *and* fingerprint, so
    existing cache entries survive the vocabulary extension.
    """

    dataset: str
    suspects: Tuple[int, ...]
    route_length: int
    verifier: int = 0
    seed: int = 0
    num_instances: Optional[int] = None
    attack_strategy: Optional[str] = None
    num_sybil: int = 0
    num_attack_edges: int = 0
    attack_seed: int = 0

    query_type = "admission"

    def __post_init__(self):
        object.__setattr__(self, "suspects", _as_int_tuple("suspects", self.suspects))
        for name in ("route_length", "verifier", "seed", "num_sybil",
                     "num_attack_edges", "attack_seed"):
            object.__setattr__(self, name, _coerce(int, name, getattr(self, name)))
        if self.num_instances is not None:
            object.__setattr__(
                self, "num_instances", _coerce(int, "num_instances", self.num_instances)
            )
        if self.route_length < 1:
            raise ConfigurationError(
                f"route_length must be >= 1, got {self.route_length}"
            )
        if self.attack_strategy is None:
            if self.num_sybil != 0 or self.num_attack_edges != 0:
                raise ConfigurationError(
                    "num_sybil/num_attack_edges need attack_strategy set"
                )
        else:
            from ..sybil.attacks import available_attack_strategies

            if self.attack_strategy not in available_attack_strategies():
                raise ConfigurationError(
                    f"unknown attack strategy {self.attack_strategy!r}; "
                    f"available: {', '.join(available_attack_strategies())}"
                )
            if self.num_attack_edges < 0:
                raise ConfigurationError("num_attack_edges must be nonnegative")
            if self.num_attack_edges > 0 and self.num_sybil < 2:
                raise ConfigurationError(
                    "an attack needs a sybil region of at least 2 nodes"
                )

    @property
    def operator_kind(self) -> str:
        return "sybillimit"

    def bucket(self) -> Tuple:
        # Unique per query object: admission never merges with anything.
        return (self.query_type, id(self))

    def fingerprint(self, graph_key: str) -> str:
        from .keys import query_fingerprint

        # No-attack queries keep their historical key; attack queries
        # answer a different question and key separately.
        extra = (
            {}
            if self.attack_strategy is None
            else {
                "attack_strategy": self.attack_strategy,
                "num_sybil": self.num_sybil,
                "num_attack_edges": self.num_attack_edges,
                "attack_seed": self.attack_seed,
            }
        )
        return query_fingerprint(
            self.query_type,
            graph_key,
            self.operator_kind,
            suspects=list(self.suspects),
            route_length=self.route_length,
            verifier=self.verifier,
            seed=self.seed,
            num_instances=-1 if self.num_instances is None else self.num_instances,
            **extra,
        )


def _as_times_tuple(times) -> Optional[Tuple[int, ...]]:
    if times is None:
        return None
    out = _as_int_tuple("times", times)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigurationError("times must be strictly increasing")
    return out


@dataclass(frozen=True)
class MixingTrendQuery:
    """TVD curves across a temporal dataset's windows (fig3-over-time).

    ``times=None`` measures every state boundary of the stream; an
    explicit tuple restricts the sweep.  Sources are sampled once from
    the first window (``num_sources``/``seed``) and reused on every
    window, so drift is attributable to the graph.  Trend queries are
    answered against the engine's live temporal graph and keyed on its
    :attr:`~repro.graph.temporal.TemporalGraph.version`, never coalesced.
    """

    dataset: str
    walk_lengths: Tuple[int, ...]
    num_sources: int = 25
    seed: int = 0
    times: Optional[Tuple[int, ...]] = None
    laziness: float = 0.0

    query_type = "mixing_trend"

    def __post_init__(self):
        object.__setattr__(self, "walk_lengths", _as_walk_lengths(self.walk_lengths))
        object.__setattr__(
            self, "num_sources", _coerce(int, "num_sources", self.num_sources)
        )
        if self.num_sources < 1:
            raise ConfigurationError(
                f"num_sources must be >= 1, got {self.num_sources}"
            )
        object.__setattr__(self, "seed", _coerce(int, "seed", self.seed))
        object.__setattr__(self, "times", _as_times_tuple(self.times))
        object.__setattr__(self, "laziness", _coerce(float, "laziness", self.laziness))

    @property
    def operator_kind(self) -> str:
        return f"plain:{self.laziness!r}"

    def bucket(self) -> Tuple:
        # Unique per query object: a trend is already one whole sweep.
        return (self.query_type, id(self))

    def fingerprint(self, graph_key: str) -> str:
        from .keys import query_fingerprint

        # graph_key is TemporalGraph.version here (it covers the delta-log
        # head), so one append invalidates every trend entry it outdates.
        return query_fingerprint(
            self.query_type,
            graph_key,
            self.operator_kind,
            walk_lengths=list(self.walk_lengths),
            num_sources=self.num_sources,
            seed=self.seed,
            times=[] if self.times is None else list(self.times),
        )


@dataclass(frozen=True)
class SlemTrendQuery:
    """SLEM across a temporal dataset's windows, warm-started by default.

    ``warm=False`` forces a cold solve per window (the benchmark
    baseline).  Warm answers agree with cold within
    :data:`repro.core.incremental.WARM_SLEM_ATOL` but are not bit-equal,
    so ``warm`` participates in the cache key.
    """

    dataset: str
    times: Optional[Tuple[int, ...]] = None
    warm: bool = True

    query_type = "slem_trend"

    def __post_init__(self):
        object.__setattr__(self, "times", _as_times_tuple(self.times))
        object.__setattr__(self, "warm", bool(self.warm))

    @property
    def operator_kind(self) -> str:
        return "plain:0.0"

    def bucket(self) -> Tuple:
        return (self.query_type, id(self))

    def fingerprint(self, graph_key: str) -> str:
        from .keys import query_fingerprint

        return query_fingerprint(
            self.query_type,
            graph_key,
            self.operator_kind,
            times=[] if self.times is None else list(self.times),
            warm=int(self.warm),
        )


Query = Union[
    MixingTimeQuery,
    VariationCurveQuery,
    SlemQuery,
    AdmissionQuery,
    MixingTrendQuery,
    SlemTrendQuery,
]

#: Query types answered against the engine's temporal graphs.
_TREND_TYPES = ("mixing_trend", "slem_trend")


@dataclass(frozen=True)
class QueryResult:
    """One answered query, with serving provenance.

    ``value`` is the answer (bit-identical to serial batch computation
    regardless of ``cache_hit``/``coalesced``/worker count — pinned by
    tests); the remaining fields say *how* it was served.
    """

    value: Any
    fingerprint: str
    cache_hit: bool
    coalesced: bool
    batch_size: int
    latency_s: float
    #: Version of the graph state the answer was computed against: the
    #: base snapshot's content fingerprint for registry-served queries,
    #: :attr:`TemporalGraph.version` for trend queries.  Every wire reply
    #: carries it.
    graph_version: str


class _Waiter:
    """One request parked in a coalescing bucket."""

    __slots__ = ("query", "key", "event", "value", "error", "batch_size")

    def __init__(self, query: Query, key: str) -> None:
        self.query = query
        self.key = key
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.batch_size = 0


class _Bucket:
    __slots__ = ("waiters", "flush", "claimed")

    def __init__(self) -> None:
        self.waiters: List[_Waiter] = []
        self.flush = threading.Event()
        self.claimed = False


class QueryEngine:
    """Long-lived query answering over a warm registry and result cache.

    Parameters
    ----------
    registry:
        Warm operator store; constructed with defaults when omitted.
    cache:
        Result cache; ``ResultCache(max_entries=0)`` disables caching.
    policy:
        :class:`~repro.core.runtime.ExecutionPolicy` applied to every
        sweep the engine runs.  Execution-only: answers are bit-identical
        under any policy, so the policy never enters a cache key.
    coalesce_window:
        Seconds the bucket leader waits for co-batchable requests before
        flushing.  ``0`` disables coalescing (every request sweeps alone).
    max_batch:
        Queue depth that flushes a bucket early, bounding latency under
        load bursts.
    temporal_loader:
        ``name -> TemporalGraph`` used the first time a trend query or
        :meth:`append_delta` names a temporal dataset; defaults to
        :func:`repro.datasets.load_temporal_cached`.  The engine keeps a
        *private* journal per dataset (the loader's shared instance is
        never mutated), so appends in one engine cannot leak into
        another.
    """

    def __init__(
        self,
        registry: Optional[OperatorRegistry] = None,
        cache: Optional[ResultCache] = None,
        *,
        policy: Optional[ExecutionPolicy] = None,
        coalesce_window: float = 0.005,
        max_batch: int = 64,
        temporal_loader=None,
    ) -> None:
        coalesce_window = float(coalesce_window)
        if coalesce_window < 0:
            raise ConfigurationError(
                f"coalesce_window must be >= 0, got {coalesce_window}"
            )
        max_batch = int(max_batch)
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        self.registry = registry if registry is not None else OperatorRegistry()
        self.cache = cache if cache is not None else ResultCache()
        self.policy = policy
        self.coalesce_window = coalesce_window
        self.max_batch = max_batch
        self._pending_lock = threading.Lock()
        self._pending: Dict[Tuple, _Bucket] = {}
        self._requests = 0
        self._coalesced_requests = 0
        self._stats_lock = threading.Lock()
        self._temporal_loader = temporal_loader
        self._temporal: Dict[str, Any] = {}
        self._temporal_appends = 0
        # Serialises trend answers with appends: a trend is computed
        # against exactly the version its cache key names.
        self._temporal_lock = threading.Lock()

    # -- convenience constructors ----------------------------------------
    def mixing_time(self, dataset, source, epsilon, **kwargs) -> QueryResult:
        return self.submit(MixingTimeQuery(dataset, source, epsilon, **kwargs))

    def variation_curve(self, dataset, sources, walk_lengths, **kwargs) -> QueryResult:
        return self.submit(
            VariationCurveQuery(dataset, tuple(sources), tuple(walk_lengths), **kwargs)
        )

    def slem(self, dataset, **kwargs) -> QueryResult:
        return self.submit(SlemQuery(dataset, **kwargs))

    def admission(self, dataset, suspects, route_length, **kwargs) -> QueryResult:
        return self.submit(
            AdmissionQuery(dataset, tuple(suspects), route_length, **kwargs)
        )

    def mixing_trend(self, dataset, walk_lengths, **kwargs) -> QueryResult:
        return self.submit(MixingTrendQuery(dataset, tuple(walk_lengths), **kwargs))

    def slem_trend(self, dataset, **kwargs) -> QueryResult:
        return self.submit(SlemTrendQuery(dataset, **kwargs))

    # -- the request path ------------------------------------------------
    def submit(self, query: Query) -> QueryResult:
        """Answer one query (cache hit, coalesced sweep, or direct sweep)."""
        start = time.perf_counter()
        with self._stats_lock:
            self._requests += 1
        with OBS.span(
            "service.request", query_type=query.query_type, dataset=query.dataset
        ):
            if query.query_type in _TREND_TYPES:
                return self._submit_trend(query, start)
            laziness = getattr(query, "laziness", 0.0)
            with self.registry.acquire(query.dataset, laziness=laziness) as lease:
                _check_sources(query, lease.operator.num_states)
                key = query.fingerprint(lease.graph_key)
                cached = self.cache.get(key)
                if cached is not None:
                    if OBS.enabled:
                        OBS.add("service.cache.hits")
                    return self._finish(
                        cached, key, True, False, 1, start, query,
                        graph_version=lease.graph_key,
                    )
                if OBS.enabled:
                    OBS.add("service.cache.misses")
                if (
                    self.coalesce_window > 0
                    and query.query_type in ("mixing_time", "variation_curve")
                    and getattr(query, "mode", "point_mass") == "point_mass"
                ):
                    value, batch_size = self._submit_coalesced(query, key, lease)
                else:
                    value = self.cache.put(key, self._compute_direct(query, lease))
                    batch_size = 1
                return self._finish(
                    value, key, False, batch_size > 1, batch_size, start, query,
                    graph_version=lease.graph_key,
                )

    def _finish(
        self, value, key, hit, coalesced, batch_size, start, query, *,
        graph_version: str,
    ):
        latency = time.perf_counter() - start
        if OBS.enabled:
            OBS.observe("service.request_seconds", latency)
            OBS.observe(f"service.{query.query_type}_seconds", latency)
        if coalesced:
            with self._stats_lock:
                self._coalesced_requests += 1
        return QueryResult(
            value=value,
            fingerprint=key,
            cache_hit=hit,
            coalesced=coalesced,
            batch_size=batch_size,
            latency_s=latency,
            graph_version=graph_version,
        )

    # -- temporal (trend) path -------------------------------------------
    def _temporal_locked(self, dataset: str):
        """The engine's private temporal graph for ``dataset`` (lock held).

        The loader's instance is copied via ``compact(base_time)`` — a
        zero-delta fold that shares the immutable base CSR and rebuilds
        the journal, so this engine's appends never mutate the (possibly
        process-wide memoised) loaded instance.  The copy's ``version``
        is identical to the original's.
        """
        temporal = self._temporal.get(dataset)
        if temporal is None:
            loader = self._temporal_loader
            if loader is None:
                from ..datasets import load_temporal_cached

                loader = load_temporal_cached
            loaded = loader(str(dataset))
            from ..graph.temporal import TemporalGraph

            if not isinstance(loaded, TemporalGraph):
                raise ConfigurationError(
                    f"temporal loader returned {type(loaded).__name__} for "
                    f"{dataset!r}; expected a TemporalGraph"
                )
            temporal = loaded.compact(loaded.base_time)
            self._temporal[dataset] = temporal
        return temporal

    def _submit_trend(self, query: Query, start: float) -> QueryResult:
        with self._temporal_lock:
            temporal = self._temporal_locked(query.dataset)
            version = temporal.version
            key = query.fingerprint(version)
            cached = self.cache.get(key)
            if cached is not None:
                if OBS.enabled:
                    OBS.add("service.cache.hits")
                return self._finish(
                    cached, key, True, False, 1, start, query,
                    graph_version=version,
                )
            if OBS.enabled:
                OBS.add("service.cache.misses")
            value = self.cache.put(key, self._compute_trend(query, temporal))
        return self._finish(
            value, key, False, False, 1, start, query, graph_version=version
        )

    def _compute_trend(self, query: Query, temporal) -> Any:
        from ..core.incremental import mixing_trend, slem_trend

        if query.query_type == "mixing_trend":
            trend = mixing_trend(
                temporal,
                list(query.walk_lengths),
                num_sources=query.num_sources,
                seed=query.seed,
                times=query.times,
                laziness=query.laziness,
                policy=self.policy,
            )
            return {
                "times": [int(t) for t in trend.times],
                "walk_lengths": [int(w) for w in trend.walk_lengths],
                "sources": [int(s) for s in trend.sources],
                "worst_case": trend.worst_case().tolist(),
                "average_case": trend.average_case().tolist(),
            }
        trend = slem_trend(
            temporal, times=query.times, warm=query.warm, policy=self.policy
        )
        return {
            "times": [int(t) for t in trend.times],
            "slem": trend.slem.tolist(),
            "lambda2": trend.lambda2.tolist(),
            "lambda_min": trend.lambda_min.tolist(),
            "warm_started": [bool(w) for w in trend.warm_started],
            "matvecs": [int(m) for m in trend.matvecs],
        }

    def append_delta(
        self, dataset, timestamp, insert=(), delete=(), *,
        expect_version: Optional[str] = None,
    ) -> str:
        """Append one edge delta to a temporal dataset; returns the new version.

        ``expect_version`` makes the append conditional (optimistic
        concurrency): when given and the dataset's current version
        differs, the append is refused with
        :class:`~repro.errors.ConfigurationError` and the journal is
        untouched.  Every append advances
        :attr:`~repro.graph.temporal.TemporalGraph.version`, so cached
        trend answers for the old state can no longer be served.
        """
        from ..graph.temporal import EdgeDelta

        delta = EdgeDelta(int(timestamp), insert=insert, delete=delete)
        with self._temporal_lock:
            temporal = self._temporal_locked(dataset)
            if expect_version is not None and temporal.version != expect_version:
                raise ConfigurationError(
                    f"graph_version mismatch for {dataset!r}: expected "
                    f"{expect_version}, current is {temporal.version}"
                )
            version = temporal.append(delta)
        with self._stats_lock:
            self._temporal_appends += 1
        if OBS.enabled:
            OBS.add("service.temporal.appends")
        return version

    # -- coalescing ------------------------------------------------------
    def _submit_coalesced(self, query: Query, key: str, lease) -> Tuple[Any, int]:
        bucket_key = query.bucket()
        waiter = _Waiter(query, key)
        with self._pending_lock:
            bucket = self._pending.get(bucket_key)
            if bucket is None or bucket.claimed:
                bucket = _Bucket()
                self._pending[bucket_key] = bucket
                leader = True
            else:
                leader = False
            bucket.waiters.append(waiter)
            if len(bucket.waiters) >= self.max_batch:
                bucket.flush.set()
        if not leader:
            waiter.event.wait()
            if waiter.error is not None:
                raise waiter.error
            return waiter.value, waiter.batch_size
        # Leader: give followers one window to pile in, then claim.
        bucket.flush.wait(self.coalesce_window)
        with self._pending_lock:
            bucket.claimed = True
            if self._pending.get(bucket_key) is bucket:
                del self._pending[bucket_key]
            waiters = list(bucket.waiters)
        try:
            self._execute_batch(waiters, lease)
        except BaseException as exc:
            for w in waiters:
                if not w.event.is_set():
                    w.error = exc
                    w.event.set()
        if waiter.error is not None:
            raise waiter.error
        return waiter.value, waiter.batch_size

    def _execute_batch(self, waiters: List["_Waiter"], lease) -> None:
        """One block sweep over the union of sources; scatter per-request.

        Bit-identity of the scattered rows to per-request serial sweeps
        is the PR-1 block-composition invariant; the coalescing-identity
        tests pin it end to end.
        """
        from ..core.mixing import measure_mixing

        queries = [w.query for w in waiters]
        head = queries[0]
        if OBS.enabled:
            OBS.observe("service.batch_size", len(waiters))
            if len(waiters) > 1:
                OBS.add("service.coalesced_sweeps")
        if head.query_type == "mixing_time":
            union = sorted({q.source for q in queries})
            index = {s: i for i, s in enumerate(union)}
            hit = lease.operator.hitting_times(
                union,
                head.epsilon,
                max_steps=head.max_steps,
                policy=self.policy,
            )
            for w in waiters:
                i = index[w.query.source]
                w.value = self.cache.put(
                    w.key,
                    {
                        "source": int(w.query.source),
                        "time": int(hit.times[i]),
                        "final_distance": float(hit.final_distances[i]),
                        "epsilon": float(head.epsilon),
                    },
                )
        else:  # variation_curve
            union = sorted({s for q in queries for s in q.sources})
            index = {s: i for i, s in enumerate(union)}
            mixing = measure_mixing(
                lease.graph,
                list(head.walk_lengths),
                sources=union,
                laziness=head.laziness,
                operator=lease.operator,
                policy=self.policy,
            )
            for w in waiters:
                rows = [index[s] for s in w.query.sources]
                w.value = self.cache.put(w.key, mixing.distances[rows, :])
        for w in waiters:
            w.batch_size = len(waiters)
            w.event.set()

    # -- direct (non-coalesced) computation ------------------------------
    def _compute_direct(self, query: Query, lease) -> Any:
        from ..core.mixing import measure_mixing

        if query.query_type == "mixing_time":
            mode = getattr(query, "mode", "point_mass")
            if mode == "uniform_start":
                n = lease.operator.num_states
                uniform = np.full((1, n), 1.0 / n, dtype=np.float64)
                hit = lease.operator.distribution_hitting_times(
                    uniform,
                    query.epsilon,
                    max_steps=query.max_steps,
                    policy=self.policy,
                )
            elif mode == "non_backtracking":
                from ..core.nonbacktracking import non_backtracking_hitting_times

                hit = non_backtracking_hitting_times(
                    lease.graph,
                    [query.source],
                    query.epsilon,
                    max_steps=query.max_steps,
                    operator=_warm_nonbacktracking(lease.graph),
                    policy=self.policy,
                )
            else:
                hit = lease.operator.hitting_times(
                    [query.source],
                    query.epsilon,
                    max_steps=query.max_steps,
                    policy=self.policy,
                )
            result = {
                "source": int(query.source),
                "time": int(hit.times[0]),
                "final_distance": float(hit.final_distances[0]),
                "epsilon": float(query.epsilon),
            }
            if mode != "point_mass":
                result["mode"] = mode
            return result
        if query.query_type == "variation_curve":
            mode = getattr(query, "mode", "point_mass")
            mixing = measure_mixing(
                lease.graph,
                list(query.walk_lengths),
                sources=None if mode == "uniform_start" else list(query.sources),
                laziness=query.laziness,
                operator=(
                    _warm_nonbacktracking(lease.graph)
                    if mode == "non_backtracking"
                    else lease.operator
                ),
                policy=self.policy,
                mode=mode,
            )
            return mixing.distances
        if query.query_type == "slem":
            from ..core.spectral import slem

            return float(slem(lease.graph, method=query.method))
        if query.query_type == "admission":
            from ..sybil.scenario import no_attack_scenario
            from ..sybil.sybillimit import SybilLimit, SybilLimitParams

            if query.attack_strategy is not None and query.num_attack_edges > 0:
                from ..sybil.attacks import build_attack_scenario

                scenario = build_attack_scenario(
                    lease.graph,
                    query.attack_strategy,
                    num_sybil=query.num_sybil,
                    num_attack_edges=query.num_attack_edges,
                    seed=query.attack_seed,
                )
            else:
                scenario = no_attack_scenario(lease.graph)
            params = SybilLimitParams(
                route_length=query.route_length,
                num_instances=query.num_instances,
            )
            protocol = SybilLimit(scenario, params, seed=query.seed)
            outcome = protocol.admission_sweep(
                query.verifier,
                [query.route_length],
                suspects=list(query.suspects),
                seed=query.seed,
                policy=self.policy,
            )[0]
            result = {
                "verifier": int(outcome.verifier),
                "suspects": [int(s) for s in outcome.suspects],
                "accepted": [bool(a) for a in outcome.accepted],
                "intersected": [bool(i) for i in outcome.intersected],
                "route_length": int(outcome.route_length),
                "num_instances": int(outcome.num_instances),
                "admission_rate": float(outcome.admission_rate),
            }
            if query.attack_strategy is not None:
                from ..sybil.metrics import evaluate_admission

                metrics = evaluate_admission(
                    scenario, np.asarray(outcome.suspects), outcome.accepted
                )
                result["attack"] = {
                    "strategy": query.attack_strategy,
                    "num_sybil": int(scenario.num_sybil),
                    "num_attack_edges": int(scenario.num_attack_edges),
                    "honest_accepted": int(metrics.honest_accepted),
                    "honest_total": int(metrics.honest_total),
                    "sybil_accepted": int(metrics.sybil_accepted),
                    "sybil_total": int(metrics.sybil_total),
                }
            return result
        raise ConfigurationError(f"unknown query type {query.query_type!r}")

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict:
        with self._stats_lock:
            requests = self._requests
            coalesced = self._coalesced_requests
            appends = self._temporal_appends
        with self._temporal_lock:
            temporal_versions = {
                name: t.version for name, t in self._temporal.items()
            }
        return {
            "requests": requests,
            "coalesced_requests": coalesced,
            "cache": self.cache.stats(),
            "registry": self.registry.stats(),
            "temporal": {
                "datasets": temporal_versions,
                "appends": appends,
            },
        }

    def close(self) -> None:
        """Retire the warm registry."""
        self.registry.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
