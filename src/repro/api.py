"""Curated public surface of the :mod:`repro` library in one namespace.

``repro.api`` re-exports the names documented in ``docs/API.md`` that
make up the supported, stability-guaranteed surface: the graph
substrate, the measurement machinery, the execution-policy runtime, the
Sybil defenses, the experiment harness and the error taxonomy.  Import
from here when you want one flat namespace and an explicit contract::

    from repro.api import ExecutionPolicy, load_dataset, measure_mixing

    graph = load_dataset("physics1")
    curves = measure_mixing(
        graph, [1, 5, 10, 20, 40], sources=100, seed=7,
        policy=ExecutionPolicy(workers=-1, checkpoint_dir="ckpt/"),
    )

Everything listed in ``__all__`` here is pinned by
``tests/test_public_api.py`` against the committed manifest
``tests/data/public_api_manifest.txt`` — adding, renaming or removing a
name shows up as an explicit diff in review, never as a silent break.
Deep imports (``repro.core.parallel``, ``repro.obs`` internals, private
``_``-prefixed helpers) remain implementation detail and may change
between versions without notice.
"""

from __future__ import annotations

from . import __version__
from .community import (
    label_propagation,
    louvain,
    modularity,
    spectral_sweep_cut,
)
from .core import (
    DEFAULT_POLICY,
    MEASUREMENT_MODES,
    DirectedTransitionOperator,
    ExecutionPolicy,
    HittingTimes,
    MarkovOperator,
    MixingTimeEstimate,
    NonBacktrackingOperator,
    PerSourceMixing,
    TransitionOperator,
    WeightedTransitionOperator,
    as_policy,
    cheeger_bounds,
    conductance_lower_bound,
    directed_variation_curves,
    empirical_cdf,
    estimate_mixing_time,
    fast_mixing_walk_length,
    lower_bound_curve,
    measure_mixing,
    mixing_time_lower_bound,
    mixing_time_upper_bound,
    non_backtracking_curves,
    non_backtracking_hitting_times,
    non_backtracking_slem,
    originator_biased_curves,
    parallel_backend_available,
    percentile_bands,
    resolve_workers,
    sample_sources,
    simulate_walk,
    slem,
    spectral_gap,
    stationary_distribution,
    total_variation_distance,
    upper_bound_curve,
    variation_distance_curve,
    weighted_slem,
)
from .core import (
    WARM_SLEM_ATOL,
    MixingTrend,
    SlemTrend,
    SpectralState,
    StationaryTracker,
    mixing_trend,
    slem_trend,
    warm_spectral_extremes,
)
from .datasets import (
    REGISTRY,
    TEMPORAL_REGISTRY,
    load_cached,
    load_dataset,
    load_temporal_cached,
)
from .errors import (
    CheckpointCorruption,
    ConfigurationError,
    ConvergenceError,
    DatasetError,
    GraphFormatError,
    NotConnectedError,
    NotErgodicError,
    ReproError,
    RouteError,
    RuntimeFailure,
    SamplingError,
    ScenarioError,
)
from .experiments import (
    FAST,
    FULL,
    ExperimentConfig,
    render_figure,
    render_table,
    run_with_manifest,
    validate_workers,
)
from .graph import (
    DeltaLog,
    DiGraph,
    EdgeDelta,
    Graph,
    TemporalGraph,
    apply_delta,
    is_connected,
    largest_connected_component,
    load_graph,
    load_npz,
    save_npz,
    trim_min_degree,
    undo_delta,
)
from .core.runtime import sweep_fingerprint
from .sampling import bfs_sample
from .service import (
    SCHEMA_V2,
    CacheStats,
    HTTPServiceClient,
    MixingTrendQuery,
    OperatorRegistry,
    QueryEngine,
    ResultCache,
    ServiceClient,
    ServiceServer,
    SlemTrendQuery,
    graph_fingerprint,
    query_fingerprint,
)
from .sybil import (
    AttackStrategy,
    RouteInstances,
    SybilGuard,
    SybilLimit,
    SybilLimitParams,
    SybilScenario,
    attach_sybil_region,
    available_attack_strategies,
    build_attack_scenario,
    evaluate_admission,
    ranking_quality,
    register_attack_strategy,
    sybilrank,
)
from .experiments import (
    ADVERSARIAL_DEFENSES,
    AdversarialSweepResult,
    adversarial_sweep,
    run_adversarial_sweep,
    run_fig3_over_time,
    trend_measurements,
)

__all__ = [
    # version
    "__version__",
    # substrate
    "Graph",
    "DiGraph",
    "load_graph",
    "load_npz",
    "save_npz",
    "is_connected",
    "largest_connected_component",
    "trim_min_degree",
    # sampling & datasets
    "bfs_sample",
    "load_dataset",
    "load_cached",
    "REGISTRY",
    # measurement machinery
    "TransitionOperator",
    "DirectedTransitionOperator",
    "WeightedTransitionOperator",
    "MarkovOperator",
    "HittingTimes",
    "stationary_distribution",
    "total_variation_distance",
    "slem",
    "spectral_gap",
    "cheeger_bounds",
    "conductance_lower_bound",
    "mixing_time_lower_bound",
    "mixing_time_upper_bound",
    "lower_bound_curve",
    "upper_bound_curve",
    "fast_mixing_walk_length",
    "measure_mixing",
    "MEASUREMENT_MODES",
    "PerSourceMixing",
    "estimate_mixing_time",
    "MixingTimeEstimate",
    "variation_distance_curve",
    "sample_sources",
    "simulate_walk",
    "directed_variation_curves",
    "originator_biased_curves",
    "weighted_slem",
    "empirical_cdf",
    "percentile_bands",
    # non-backtracking estimator
    "NonBacktrackingOperator",
    "non_backtracking_curves",
    "non_backtracking_hitting_times",
    "non_backtracking_slem",
    # execution runtime
    "ExecutionPolicy",
    "DEFAULT_POLICY",
    "as_policy",
    "parallel_backend_available",
    "resolve_workers",
    "sweep_fingerprint",
    # temporal graphs & incremental maintenance
    "TemporalGraph",
    "EdgeDelta",
    "DeltaLog",
    "apply_delta",
    "undo_delta",
    "TEMPORAL_REGISTRY",
    "load_temporal_cached",
    "SpectralState",
    "StationaryTracker",
    "warm_spectral_extremes",
    "WARM_SLEM_ATOL",
    "MixingTrend",
    "SlemTrend",
    "mixing_trend",
    "slem_trend",
    "run_fig3_over_time",
    "trend_measurements",
    # serving layer
    "QueryEngine",
    "OperatorRegistry",
    "ResultCache",
    "CacheStats",
    "ServiceClient",
    "HTTPServiceClient",
    "ServiceServer",
    "MixingTrendQuery",
    "SlemTrendQuery",
    "SCHEMA_V2",
    "graph_fingerprint",
    "query_fingerprint",
    # community structure
    "spectral_sweep_cut",
    "label_propagation",
    "louvain",
    "modularity",
    # sybil defenses
    "SybilScenario",
    "attach_sybil_region",
    "RouteInstances",
    "SybilGuard",
    "SybilLimit",
    "SybilLimitParams",
    "sybilrank",
    "ranking_quality",
    "evaluate_admission",
    # adversarial scenarios
    "AttackStrategy",
    "available_attack_strategies",
    "register_attack_strategy",
    "build_attack_scenario",
    "ADVERSARIAL_DEFENSES",
    "AdversarialSweepResult",
    "adversarial_sweep",
    "run_adversarial_sweep",
    # experiment harness
    "ExperimentConfig",
    "FAST",
    "FULL",
    "validate_workers",
    "run_with_manifest",
    "render_table",
    "render_figure",
    # error taxonomy
    "ReproError",
    "ConfigurationError",
    "GraphFormatError",
    "NotConnectedError",
    "NotErgodicError",
    "ConvergenceError",
    "DatasetError",
    "ScenarioError",
    "SamplingError",
    "RouteError",
    "RuntimeFailure",
    "CheckpointCorruption",
]
