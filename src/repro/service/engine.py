"""Query engine: request vocabulary, coalescing and the cache hit-path.

The engine answers six query types.  Four are the questions the paper's
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

**One declaration per type.**  Each type is one frozen dataclass
(:class:`Query`) declaring its fields with their converters, which
fields enter the cache key, which hold node ids, whether it is a trend,
whether it coalesces, and its compute function.  The rest is derived
from :data:`QUERY_TYPES`: coercion, bucket, fingerprint and node checks
here, the verbs of the engine and both clients (:class:`QueryVerbs`),
and the wire codec's :func:`~repro.service.client.build_query`.  The
engine's request path has no per-type branch.

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
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, ClassVar, Dict, List, Optional, Tuple

import numpy as np

from ..core.mixing import MEASUREMENT_MODES
from ..core.runtime import ExecutionPolicy
from ..core.spectral import METHODS as SPECTRAL_METHODS
from ..errors import ConfigurationError
from ..obs import OBS
from .cache import ResultCache
from .registry import OperatorRegistry

__all__ = [
    "QUERY_TYPES",
    "AdmissionQuery",
    "MixingTimeQuery",
    "MixingTrendQuery",
    "Query",
    "QueryEngine",
    "QueryResult",
    "QueryVerbs",
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


def _scalar(kind, check=None, rule: str = ""):
    """A converter to ``kind``, refusing values that fail ``check``.

    Every client-supplied field goes through a converter, so a malformed
    value is a client error (HTTP 400), never an opaque internal one.
    """

    def convert(name: str, value):
        try:
            out = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(
                f"{name} must be {kind.__name__}, got {value!r}"
            ) from exc
        if check is not None and not check(out):
            raise ConfigurationError(f"{name} must be {rule}, got {out}")
        return out

    return convert


# -- field converters: ``convert(name, value) -> value`` ---------------------
_int = _scalar(int)
_float = _scalar(float)
_epsilon = _scalar(float, lambda eps: 0.0 < eps < 1.0, "in (0, 1)")


def _at_least(low: int):
    return _scalar(int, lambda value: value >= low, f">= {low}")


def _flag(name: str, value) -> bool:
    """A bool or the int 0/1; the truthiness of anything else is not asked."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)) and value in (0, 1):
        return bool(value)
    raise ConfigurationError(f"{name} must be a bool (or 0/1), got {value!r}")


def _int_tuple(name: str, values) -> Tuple[int, ...]:
    """A non-empty tuple of ints (a bare int is a one-element tuple)."""
    if isinstance(values, (int, np.integer)):
        return (int(values),)
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise ConfigurationError(f"{name} must be a list of integers, got {values!r}")
    out = tuple(_int(name, v) for v in values)
    if not out:
        raise ConfigurationError(f"{name} must be non-empty")
    return out


def _increasing(name: str, values) -> Tuple[int, ...]:
    out = _int_tuple(name, values)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigurationError(f"{name} must be strictly increasing, got {list(out)}")
    return out


def _walk_lengths(name: str, values) -> Tuple[int, ...]:
    """The sweep kernels' rule: non-empty, nonnegative, strictly increasing."""
    out = _increasing(name, values)
    if out[0] < 0:
        raise ConfigurationError(f"{name} must be nonnegative, got {list(out)}")
    return out


def _optional(convert):
    def optional(name: str, value):
        return None if value is None else convert(name, value)

    return optional


def _one_of(choices: Tuple[str, ...], what: str):
    def convert(name: str, value) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigurationError(f"unknown {what} {value!r}; expected one of {choices}")
        return value

    return convert


_mode = _one_of(MEASUREMENT_MODES, "measurement mode")


def _arg(convert=None, default=MISSING, *, key=True, node=False, if_none=None):
    """Declare one query field.

    ``convert(name, value)`` coerces and checks the value on construction
    (``None``: taken as given).  ``key=True`` hashes the field into the
    cache key, ``False`` leaves it out, and ``"variant"`` hashes it only
    when the type's first variant field differs from its default, so the
    default keeps the key it had before the variant existed.  ``if_none``
    is what a ``None`` value hashes as.  ``node=True`` marks node ids
    checked against the leased graph; ``node="planted"`` also admits the
    planted sybil region (:meth:`Query.planted_nodes`).
    """
    return field(
        default=default,
        metadata={"convert": convert, "key": key, "node": node, "if_none": if_none},
    )


#: Every query type by wire name: the engine's and both clients' verbs,
#: and the wire codec's :func:`~repro.service.client.build_query`, all
#: come from this table, which :func:`_declare` fills.
QUERY_TYPES: Dict[str, type] = {}


@dataclass(frozen=True)
class Query:
    """One service request; each query type is a frozen subclass.

    A type declares, once: its fields with :func:`_arg` (converter, cache
    key role, node-id role); ``query_type`` (wire and verb name);
    ``trend`` when it is answered against the engine's temporal graph;
    any cross-field rule in :meth:`_validate`; and one compute function —
    ``compute(self, state, policy)``, or, for a type whose requests
    coalesce, ``compute_batch(queries, lease, policy)``, one sweep that
    answers every request of a bucket.  :func:`_declare` derives the
    rest: coercion, bucket, fingerprint, node checks and registration in
    :data:`QUERY_TYPES`.
    """

    dataset: str

    query_type: ClassVar[str]
    trend: ClassVar[bool] = False

    def __post_init__(self):
        for name, convert in self._converters.items():
            object.__setattr__(self, name, convert(name, getattr(self, name)))
        self._validate()

    def _validate(self) -> None:
        """Cross-field rules, checked after every field is converted."""

    @property
    def operator_kind(self) -> str:
        """The operator flavour and its dynamics, part of the cache key."""
        return f"plain:{self.laziness!r}"

    def planted_nodes(self) -> int:
        """Ids past the graph that a ``node="planted"`` field may name."""
        return 0

    def check_nodes(self, num_states: int) -> None:
        """Reject node ids outside the leased graph.

        Runs before the cache and before coalescing, so one bad id is a
        client error for its own request and never fails a merged sweep.
        """
        for name, planted in self._node_fields:
            limit = num_states + (self.planted_nodes() if planted else 0)
            ids = getattr(self, name)
            for node in ids if isinstance(ids, tuple) else (ids,):
                if not 0 <= node < limit:
                    raise ConfigurationError(
                        f"{name} {node} out of range for dataset {self.dataset!r} "
                        f"with {limit} nodes"
                    )

    def coalesces(self) -> bool:
        """Whether concurrent requests of one :meth:`bucket` share a sweep."""
        return False

    def bucket(self) -> Tuple:
        """Coalescing bucket: requests differing only in node ids merge."""
        return (self.query_type, *(getattr(self, n) for n in self._bucket_fields))

    def fingerprint(self, graph_key: str) -> str:
        from .keys import query_fingerprint

        variant = self._variant and (
            getattr(self, self._variant[0][0]) != self._variant_default
        )
        params = {}
        for name, if_none in self._variant_key if variant else self._key:
            value = getattr(self, name)
            params[name] = if_none if value is None else value
        return query_fingerprint(self.query_type, graph_key, self.operator_kind, **params)

    def compute(self, state, policy) -> Any:
        """The answer against a lease (a temporal graph for trend types)."""
        return self.compute_batch([self], state, policy)[0]


def _declare(cls):
    """Make ``cls`` a frozen query dataclass and enter it in :data:`QUERY_TYPES`.

    The field metadata is read here, once per type, into the tables the
    shared methods walk on every request.
    """
    cls = dataclass(frozen=True)(cls)
    declared = [(f, f.metadata) for f in fields(cls)]
    variant = [f for f, meta in declared if meta.get("key") == "variant"]
    cls._field_names = tuple(f.name for f, _ in declared)
    cls._converters = {f.name: meta["convert"] for f, meta in declared if meta.get("convert")}
    cls._key = tuple((f.name, meta["if_none"]) for f, meta in declared if meta.get("key") is True)
    cls._variant = tuple((f.name, f.metadata["if_none"]) for f in variant)
    cls._variant_key = cls._key + cls._variant
    cls._variant_default = variant[0].default if variant else None
    cls._node_fields = tuple(
        (f.name, meta["node"] == "planted") for f, meta in declared if meta.get("node")
    )
    cls._bucket_fields = tuple(f.name for f, meta in declared if not meta.get("node"))
    QUERY_TYPES[cls.query_type] = cls
    return cls


class _WalkQuery(Query):
    """A walk measurement whose ``mode`` picks the estimator.

    ``point_mass`` (the default, the paper's definition) starts a walk at
    each node id.  ``uniform_start`` ignores them: each node field is
    reset to the sentinel ``-1`` in its own shape, so all uniform-start
    requests share one cache entry.  ``non_backtracking`` walks the
    Hashimoto arc operator.  See :data:`repro.core.mixing.MEASUREMENT_MODES`.
    Only point-mass requests coalesce; the other modes answer directly.
    """

    def _validate(self) -> None:
        if self.mode == "non_backtracking" and self.laziness != 0.0:
            raise ConfigurationError("non_backtracking mode does not support laziness")
        if self.mode == "uniform_start":
            for name, _ in self._node_fields:
                object.__setattr__(self, name, self._converters[name](name, -1))

    def check_nodes(self, num_states: int) -> None:
        if self.mode != "uniform_start":
            super().check_nodes(num_states)

    def coalesces(self) -> bool:
        return self.mode == "point_mass"


@_declare
class MixingTimeQuery(_WalkQuery):
    """Mixing time from one node: min ``t`` with ``||pi - pi^(v) P^t||_1 < eps``."""

    source: int = _arg(_int, node=True)
    epsilon: float = _arg(_epsilon)
    laziness: float = _arg(_float, 0.0, key=False)  # keyed as the operator kind
    max_steps: int = _arg(_at_least(0), 10_000)
    mode: str = _arg(_mode, "point_mass", key="variant")

    query_type = "mixing_time"

    @staticmethod
    def compute_batch(queries, lease, policy) -> List[dict]:
        """One ε-hitting sweep over the union of the queries' sources."""
        head = queries[0]
        union = sorted({q.source for q in queries})
        if head.mode == "uniform_start":
            n = lease.operator.num_states
            hit = lease.operator.distribution_hitting_times(
                np.full((1, n), 1.0 / n, dtype=np.float64),
                head.epsilon,
                max_steps=head.max_steps,
                policy=policy,
            )
        elif head.mode == "non_backtracking":
            from ..core.nonbacktracking import non_backtracking_hitting_times

            hit = non_backtracking_hitting_times(
                lease.graph,
                union,
                head.epsilon,
                max_steps=head.max_steps,
                operator=_warm_nonbacktracking(lease.graph),
                policy=policy,
            )
        else:
            hit = lease.operator.hitting_times(
                union, head.epsilon, max_steps=head.max_steps, policy=policy
            )
        index = {s: i for i, s in enumerate(union)}
        mode = {} if head.mode == "point_mass" else {"mode": head.mode}
        return [
            {
                "source": int(q.source),
                "time": int(hit.times[index[q.source]]),
                "final_distance": float(hit.final_distances[index[q.source]]),
                "epsilon": float(head.epsilon),
                **mode,
            }
            for q in queries
        ]


@_declare
class VariationCurveQuery(_WalkQuery):
    """Variation-distance curve(s): ``||pi - pi^(s) P^w||_1`` over ``w`` grid."""

    sources: Tuple[int, ...] = _arg(_int_tuple, node=True)
    walk_lengths: Tuple[int, ...] = _arg(_walk_lengths)
    laziness: float = _arg(_float, 0.0, key=False)  # keyed as the operator kind
    mode: str = _arg(_mode, "point_mass", key="variant")

    query_type = "variation_curve"

    @staticmethod
    def compute_batch(queries, lease, policy) -> List[np.ndarray]:
        """One block sweep over the union of sources, sliced per query."""
        from ..core.mixing import measure_mixing

        head = queries[0]
        union = sorted({s for q in queries for s in q.sources})
        mixing = measure_mixing(
            lease.graph,
            list(head.walk_lengths),
            sources=None if head.mode == "uniform_start" else union,
            laziness=head.laziness,
            operator=(
                _warm_nonbacktracking(lease.graph)
                if head.mode == "non_backtracking"
                else lease.operator
            ),
            policy=policy,
            mode=head.mode,
        )
        index = {s: i for i, s in enumerate(union)}
        return [mixing.distances[[index[s] for s in q.sources], :] for q in queries]


@_declare
class SlemQuery(Query):
    """Second-largest eigenvalue modulus of the transition operator."""

    method: str = _arg(_one_of(SPECTRAL_METHODS, "spectral method"), "sparse")
    laziness: float = _arg(_float, 0.0, key=False)  # keyed as the operator kind

    query_type = "slem"

    def compute(self, lease, policy) -> float:
        from ..core.spectral import slem

        return float(slem(lease.graph, method=self.method))


@_declare
class AdmissionQuery(Query):
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

    suspects: Tuple[int, ...] = _arg(_int_tuple, node="planted")
    route_length: int = _arg(_at_least(1))
    verifier: int = _arg(_int, 0, node=True)
    seed: int = _arg(_int, 0)
    num_instances: Optional[int] = _arg(_optional(_int), None, if_none=-1)
    attack_strategy: Optional[str] = _arg(default=None, key="variant")
    num_sybil: int = _arg(_int, 0, key="variant")
    num_attack_edges: int = _arg(_int, 0, key="variant")
    attack_seed: int = _arg(_int, 0, key="variant")

    query_type = "admission"
    operator_kind = "sybillimit"

    def _validate(self) -> None:
        if self.attack_strategy is None:
            if self.num_sybil != 0 or self.num_attack_edges != 0:
                raise ConfigurationError(
                    "num_sybil/num_attack_edges need attack_strategy set"
                )
            return
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

    def planted_nodes(self) -> int:
        planted = self.attack_strategy is not None and self.num_attack_edges > 0
        return self.num_sybil if planted else 0

    def compute(self, lease, policy) -> dict:
        from ..sybil.scenario import no_attack_scenario
        from ..sybil.sybillimit import SybilLimit, SybilLimitParams

        if self.planted_nodes():
            from ..sybil.attacks import build_attack_scenario

            scenario = build_attack_scenario(
                lease.graph,
                self.attack_strategy,
                num_sybil=self.num_sybil,
                num_attack_edges=self.num_attack_edges,
                seed=self.attack_seed,
            )
        else:
            scenario = no_attack_scenario(lease.graph)
        params = SybilLimitParams(
            route_length=self.route_length, num_instances=self.num_instances
        )
        protocol = SybilLimit(scenario, params, seed=self.seed)
        outcome = protocol.admission_sweep(
            self.verifier,
            [self.route_length],
            suspects=list(self.suspects),
            seed=self.seed,
            policy=policy,
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
        if self.attack_strategy is not None:
            from ..sybil.metrics import evaluate_admission

            metrics = evaluate_admission(
                scenario, np.asarray(outcome.suspects), outcome.accepted
            )
            result["attack"] = {
                "strategy": self.attack_strategy,
                "num_sybil": int(scenario.num_sybil),
                "num_attack_edges": int(scenario.num_attack_edges),
                "honest_accepted": int(metrics.honest_accepted),
                "honest_total": int(metrics.honest_total),
                "sybil_accepted": int(metrics.sybil_accepted),
                "sybil_total": int(metrics.sybil_total),
            }
        return result


@_declare
class MixingTrendQuery(Query):
    """TVD curves across a temporal dataset's windows (fig3-over-time).

    ``times=None`` measures every state boundary of the stream; an
    explicit tuple restricts the sweep.  Sources are sampled once from
    the first window (``num_sources``/``seed``) and reused on every
    window, so drift is attributable to the graph.  Trend queries are
    answered against the engine's live temporal graph and keyed on its
    :attr:`~repro.graph.temporal.TemporalGraph.version`, never coalesced.
    """

    walk_lengths: Tuple[int, ...] = _arg(_walk_lengths)
    num_sources: int = _arg(_at_least(1), 25)
    seed: int = _arg(_int, 0)
    times: Optional[Tuple[int, ...]] = _arg(_optional(_increasing), None, if_none=())
    laziness: float = _arg(_float, 0.0, key=False)  # keyed as the operator kind

    query_type = "mixing_trend"
    trend = True

    def compute(self, temporal, policy) -> dict:
        from ..core.incremental import mixing_trend

        trend = mixing_trend(
            temporal,
            list(self.walk_lengths),
            num_sources=self.num_sources,
            seed=self.seed,
            times=self.times,
            laziness=self.laziness,
            policy=policy,
        )
        return {
            "times": [int(t) for t in trend.times],
            "walk_lengths": [int(w) for w in trend.walk_lengths],
            "sources": [int(s) for s in trend.sources],
            "worst_case": trend.worst_case().tolist(),
            "average_case": trend.average_case().tolist(),
        }


@_declare
class SlemTrendQuery(Query):
    """SLEM across a temporal dataset's windows, warm-started by default.

    ``warm=False`` forces a cold solve per window (the benchmark
    baseline).  Warm answers agree with cold within
    :data:`repro.core.incremental.WARM_SLEM_ATOL` but are not bit-equal,
    so ``warm`` participates in the cache key.
    """

    times: Optional[Tuple[int, ...]] = _arg(_optional(_increasing), None, if_none=())
    warm: bool = _arg(_flag, True)

    query_type = "slem_trend"
    trend = True
    operator_kind = "plain:0.0"

    def compute(self, temporal, policy) -> dict:
        from ..core.incremental import slem_trend

        trend = slem_trend(temporal, times=self.times, warm=self.warm, policy=policy)
        return {
            "times": [int(t) for t in trend.times],
            "slem": trend.slem.tolist(),
            "lambda2": trend.lambda2.tolist(),
            "lambda_min": trend.lambda_min.tolist(),
            "warm_started": [bool(w) for w in trend.warm_started],
            "matvecs": [int(m) for m in trend.matvecs],
        }


class QueryVerbs:
    """The surface the engine and both clients share.

    One verb per :data:`QUERY_TYPES` entry, named after its
    ``query_type``: ``verb(*args, **kwargs)`` takes the type's
    constructor arguments and hands the type and the arguments to
    :meth:`_ask`, which by default builds the query and passes it
    to :meth:`submit`; the HTTP client sends them as a wire payload
    instead.  Declaring a query type is all it takes to add its verb to
    the engine and to both clients.  Used as a context manager, each
    closes on exit.
    """

    def _ask(self, query_type: type, args: tuple, kwargs: dict) -> "QueryResult":
        return self.submit(query_type(*args, **kwargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _verb(query_type: type):
    def verb(self, *args, **kwargs) -> "QueryResult":
        return self._ask(query_type, args, kwargs)

    verb.__name__ = query_type.query_type
    verb.__qualname__ = f"QueryVerbs.{query_type.query_type}"
    verb.__doc__ = f"Answer ``{query_type.__name__}(*args, **kwargs)``."
    return verb


for _type in QUERY_TYPES.values():
    setattr(QueryVerbs, _type.query_type, _verb(_type))


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


class QueryEngine(QueryVerbs):
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

    # -- the request path ------------------------------------------------
    def submit(self, query: Query) -> QueryResult:
        """Answer one query (cache hit, coalesced sweep, or direct sweep)."""
        start = time.perf_counter()
        with self._stats_lock:
            self._requests += 1
        with OBS.span(
            "service.request", query_type=query.query_type, dataset=query.dataset
        ):
            if query.trend:
                # A trend is computed against exactly the version its key names.
                with self._temporal_lock:
                    temporal = self._temporal_locked(query.dataset)
                    version = temporal.version
                    answer = self._answer(query, version, self._compute_trend, temporal)
            else:
                laziness = getattr(query, "laziness", 0.0)
                with self.registry.acquire(query.dataset, laziness=laziness) as lease:
                    query.check_nodes(lease.operator.num_states)
                    version = lease.graph_key
                    answer = self._answer(query, version, self._compute_direct, lease)
            key, value, hit, batch_size = answer
            latency = time.perf_counter() - start
            if OBS.enabled:
                OBS.observe("service.request_seconds", latency)
                OBS.observe(f"service.{query.query_type}_seconds", latency)
            if batch_size > 1:
                with self._stats_lock:
                    self._coalesced_requests += 1
            return QueryResult(
                value=value,
                fingerprint=key,
                cache_hit=hit,
                coalesced=batch_size > 1,
                batch_size=batch_size,
                latency_s=latency,
                graph_version=version,
            )

    def _answer(self, query: Query, graph_key: str, compute, state):
        """``(key, value, cache_hit, batch_size)``: the cached answer, else a
        coalesced sweep's, else ``compute(query, state)``'s (stored)."""
        key = query.fingerprint(graph_key)
        cached = self.cache.get(key)
        if cached is not None:
            if OBS.enabled:
                OBS.add("service.cache.hits")
            return key, cached, True, 1
        if OBS.enabled:
            OBS.add("service.cache.misses")
        if self.coalesce_window > 0 and query.coalesces():
            value, batch_size = self._submit_coalesced(query, key, state)
            return key, value, False, batch_size
        return key, self.cache.put(key, compute(query, state)), False, 1

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

    def _compute_trend(self, query: Query, temporal) -> Any:
        return query.compute(temporal, self.policy)

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
        queries = [w.query for w in waiters]
        if OBS.enabled:
            OBS.observe("service.batch_size", len(waiters))
            if len(waiters) > 1:
                OBS.add("service.coalesced_sweeps")
        values = queries[0].compute_batch(queries, lease, self.policy)
        for w, value in zip(waiters, values):
            w.value = self.cache.put(w.key, value)
        for w in waiters:
            w.batch_size = len(waiters)
            w.event.set()

    # -- direct (non-coalesced) computation ------------------------------
    def _compute_direct(self, query: Query, lease) -> Any:
        return query.compute(lease, self.policy)

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
