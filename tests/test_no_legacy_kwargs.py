"""The ``ExecutionPolicy`` migration is finished.

``policy=ExecutionPolicy(...)`` is the only way to set execution knobs:
the deprecated ``workers=``/``block_size=`` keyword aliases, the
``ExperimentConfig.workers``/``evolution_block_size`` mirror fields,
the ``ExecutionPolicy.execution`` / ``telemetry`` / ``backend`` fields
and the CLI's ``--backend`` flag are gone, and passing any of them
fails loudly.
The remaining tests run representative slices of every layer with
``DeprecationWarning`` escalated to an error, so no path through the
package warns.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    TransitionOperator,
    as_policy,
    directed_variation_curves,
    estimate_mixing_time,
    measure_mixing,
    mixing_trend,
    originator_biased_curves,
    slem_trend,
)
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig
from repro.experiments.whanau_tails import tail_arc_distributions
from repro.graph import DiGraph, EdgeDelta, Graph, TemporalGraph
from repro.service import OperatorRegistry, QueryEngine, ResultCache, ServiceClient
from repro.sybil import (
    RouteInstances,
    SybilGuard,
    SybilLimit,
    SybilLimitParams,
    no_attack_scenario,
    sybilrank,
)


def _test_graph() -> Graph:
    """A small connected, non-bipartite graph (12-cycle plus +2 chords)."""
    edges = [(i, (i + 1) % 12) for i in range(12)]
    edges += [(i, (i + 2) % 12) for i in range(12)]
    return Graph.from_edges(np.array(edges, dtype=np.int64))


def _test_temporal() -> TemporalGraph:
    # Ring plus one chord: connected and non-bipartite in every window.
    base = Graph.from_edges(
        np.array([(i, (i + 1) % 12) for i in range(12)] + [(0, 2)], dtype=np.int64)
    )
    temporal = TemporalGraph(base)
    temporal.append(EdgeDelta(10, insert=[(3, 5), (4, 6)]))
    temporal.append(EdgeDelta(20, insert=[(1, 3), (7, 9)]))
    return temporal


@pytest.fixture()
def forbid_deprecation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


class TestInternalPathsAreWarningFree:
    """Every layer's sweep path, with DeprecationWarning as an error."""

    def test_core_sweeps(self, forbid_deprecation_warnings):
        graph = _test_graph()
        for policy in (None, ExecutionPolicy(workers=2)):
            measure_mixing(graph, [1, 3, 5], sources=[0, 4], policy=policy)
            estimate_mixing_time(graph, 0.25, sources=[0], policy=policy)

    def test_operator_paths(self, forbid_deprecation_warnings):
        operator = TransitionOperator(_test_graph())
        operator.hitting_times([0, 3], 0.25, policy=ExecutionPolicy(block_size=4))
        operator.stationary()

    def test_incremental_trend_paths(self, forbid_deprecation_warnings):
        temporal = _test_temporal()
        slem_trend(temporal, policy=ExecutionPolicy(workers=1))
        mixing_trend(temporal, [1, 3], num_sources=4, policy=None)

    def test_service_paths(self, forbid_deprecation_warnings):
        graph = _test_graph()
        temporal = _test_temporal()
        engine = QueryEngine(
            registry=OperatorRegistry(loader=lambda name: graph),
            cache=ResultCache(),
            policy=ExecutionPolicy(workers=1),
            coalesce_window=0.0,
            temporal_loader=lambda name: temporal,
        )
        with engine:
            client = ServiceClient(engine)
            client.mixing_time("toy", 0, 0.25)
            client.variation_curve("toy", [0, 5], [1, 3])
            client.slem("toy")
            client.admission("toy", [1, 2], 4)
            client.slem_trend("toy")
            client.mixing_trend("toy", [1, 3], num_sources=4)
            client.append_delta("toy", 30, insert=[(2, 5)])

    def test_experiment_runner_path(self, forbid_deprecation_warnings):
        # The harness threads config.execution_policy end to end; the
        # temporal runner is the newest (and cheapest end-to-end) one.
        from repro.experiments import FAST
        from repro.experiments.temporal import trend_measurements

        trend_measurements(FAST, names=("temporal_mathoverflow",))


#: Every removed keyword, per entry point: 23 aliases on 15 public entry
#: points, plus ``as_policy``'s own three.
REMOVED_KEYWORDS = [
    ("measure_mixing", "workers"),
    ("measure_mixing", "block_size"),
    ("estimate_mixing_time", "workers"),
    ("estimate_mixing_time", "block_size"),
    ("evolve_block", "workers"),
    ("variation_curve", "workers"),
    ("variation_curves", "workers"),
    ("variation_curves", "block_size"),
    ("hitting_times", "workers"),
    ("hitting_times", "block_size"),
    ("directed_variation_curves", "workers"),
    ("directed_variation_curves", "block_size"),
    ("originator_biased_curves", "workers"),
    ("originator_biased_curves", "block_size"),
    ("RouteInstances.tails", "workers"),
    ("RouteInstances.tails", "block_size"),
    ("RouteInstances.tails_at_lengths", "workers"),
    ("RouteInstances.tails_at_lengths", "block_size"),
    ("SybilGuard.run", "workers"),
    ("SybilLimit.run", "workers"),
    ("SybilLimit.admission_sweep", "workers"),
    ("sybilrank", "workers"),
    ("tail_arc_distributions", "workers"),
    ("as_policy", "workers"),
    ("as_policy", "block_size"),
    ("as_policy", "stacklevel"),
]


@pytest.fixture(scope="module")
def entry_points():
    """``name -> call(**kwargs)``: each entry point with otherwise valid
    arguments, so the only thing wrong is the extra keyword."""
    graph = _test_graph()
    operator = TransitionOperator(graph)
    digraph = DiGraph.from_edges([(i, (i + 1) % 6) for i in range(6)] + [(0, 2)])
    scenario = no_attack_scenario(graph)
    routes = RouteInstances(graph, 2, seed=1)
    nodes = np.arange(3, dtype=np.int64)
    guard = SybilGuard(scenario, 3, seed=1)
    limit = SybilLimit(scenario, SybilLimitParams(route_length=3), seed=1)
    return {
        "measure_mixing": lambda **kw: measure_mixing(graph, [1], sources=[0], **kw),
        "estimate_mixing_time": lambda **kw: estimate_mixing_time(
            graph, 0.25, sources=[0], **kw
        ),
        "evolve_block": lambda **kw: operator.evolve_block(
            operator.point_mass_block([0]), 1, **kw
        ),
        "variation_curve": lambda **kw: operator.variation_curve(0, 2, **kw),
        "variation_curves": lambda **kw: operator.variation_curves([0], [1], **kw),
        "hitting_times": lambda **kw: operator.hitting_times([0], 0.25, **kw),
        "directed_variation_curves": lambda **kw: directed_variation_curves(
            digraph, [0], [1], damping=0.85, **kw
        ),
        "originator_biased_curves": lambda **kw: originator_biased_curves(
            graph, [0], 0.2, [1], **kw
        ),
        "RouteInstances.tails": lambda **kw: routes.tails(nodes, 2, seed=1, **kw),
        "RouteInstances.tails_at_lengths": lambda **kw: routes.tails_at_lengths(
            nodes, [1, 2], seed=1, **kw
        ),
        "SybilGuard.run": lambda **kw: guard.run(0, [1, 2], **kw),
        "SybilLimit.run": lambda **kw: limit.run(0, [1, 2], seed=1, **kw),
        "SybilLimit.admission_sweep": lambda **kw: limit.admission_sweep(
            0, [3], [1, 2], seed=1, **kw
        ),
        "sybilrank": lambda **kw: sybilrank(scenario, [0], **kw),
        "tail_arc_distributions": lambda **kw: tail_arc_distributions(graph, [1], **kw),
        "as_policy": lambda **kw: as_policy(None, **kw),
    }


class TestAliasesAreGone:
    """The deprecated aliases, the config mirror fields and the SpMM
    backend knob are removed, not silently ignored."""

    @pytest.mark.parametrize(
        "name,keyword", REMOVED_KEYWORDS, ids=[f"{n}-{k}" for n, k in REMOVED_KEYWORDS]
    )
    def test_former_alias_raises_type_error(self, entry_points, name, keyword):
        call = entry_points[name]
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: 2})
        call()  # the same call without the keyword is valid

    @pytest.mark.parametrize("field", ["workers", "evolution_block_size"])
    def test_experiment_config_mirror_fields_removed(self, field):
        with pytest.raises(TypeError, match=field):
            ExperimentConfig(**{field: 2})

    @pytest.mark.parametrize(
        "field,value",
        [("execution", "threads"), ("telemetry", True), ("backend", "numpy")],
    )
    def test_execution_policy_removed_fields(self, field, value):
        with pytest.raises(TypeError, match=field):
            ExecutionPolicy(**{field: value})

    def test_backend_flag_removed(self, capsys):
        from repro import cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig1", "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert "--backend" not in cli.build_parser().format_help()

    def test_as_policy_normalises_none_and_checks_type(self):
        assert as_policy(None) is DEFAULT_POLICY
        policy = ExecutionPolicy(workers=2)
        assert as_policy(policy) is policy
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            as_policy({"workers": 2})
