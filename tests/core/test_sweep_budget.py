"""``ExecutionPolicy.memory_budget`` bounds the block every sweep steps.

Every TVD sweep evolves its rows in dense chunks; half the memory budget
(:func:`repro.core.operators.policy_block_bytes`) is the ceiling for one
chunk.  The test records the widest block each sweep kind measures (a
TVD reduction sees exactly the rows being stepped) and checks it against
that ceiling, in the state space the kind steps in: nodes for the plain,
distribution-start and originator sweeps, arcs for the non-backtracking
ones.  Chunking never changes results, so the same sweep under the
default budget must agree bit-for-bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro.core.nonbacktracking as nonbacktracking
import repro.core.operators as operators
import repro.core.trust as trust
from repro.core import TransitionOperator, originator_biased_curves
from repro.core.nonbacktracking import (
    NonBacktrackingOperator,
    non_backtracking_curves,
    non_backtracking_hitting_times,
)
from repro.core.operators import policy_block_bytes
from repro.core.runtime import ExecutionPolicy
from repro.graph.io import load_graph

KARATE_PATH = Path(__file__).parent.parent / "data" / "karate.txt"
WALKS = [0, 1, 3, 8, 20]
EPSILON = 0.05

#: Small enough that every kind must split the 34 karate sources.
BUDGET = ExecutionPolicy(memory_budget=4096)


def _sweep(kind: str, graph, policy: ExecutionPolicy):
    """Run one sweep kind over every node; returns (result, state count)."""
    sources = np.arange(graph.num_nodes)
    if kind.startswith("nb_"):
        op = NonBacktrackingOperator(graph)
        if kind == "nb_curves":
            out = non_backtracking_curves(graph, sources, WALKS, operator=op, policy=policy)
        else:
            out = non_backtracking_hitting_times(
                graph, sources, EPSILON, max_steps=200, operator=op, policy=policy
            )
        return out, op.num_arcs
    if kind == "originator":
        return originator_biased_curves(graph, sources, 0.1, WALKS, policy=policy), graph.num_nodes
    op = TransitionOperator(graph)
    if kind == "curves":
        out = op.variation_curves(sources, WALKS, policy=policy)
    elif kind == "hitting":
        out = op.hitting_times(sources, EPSILON, max_steps=200, policy=policy)
    elif kind == "distribution_curves":
        out = op.distribution_variation_curves(op.point_mass_block(sources), WALKS, policy=policy)
    else:
        out = op.distribution_hitting_times(
            op.point_mass_block(sources), EPSILON, max_steps=200, policy=policy
        )
    return out, op.num_states


KINDS = [
    "curves",
    "hitting",
    "distribution_curves",
    "distribution_hitting",
    "nb_curves",
    "nb_hitting",
    "originator",
]


@pytest.mark.parametrize("kind", KINDS)
def test_memory_budget_bounds_the_stepped_block(kind, monkeypatch):
    graph = load_graph(KARATE_PATH)
    reference, _ = _sweep(kind, graph, ExecutionPolicy())
    widest = [0]
    tvd = operators.total_variation_to_reference

    def recording_tvd(block, ref, **kwargs):
        widest[0] = max(widest[0], int(block.shape[0]))
        return tvd(block, ref, **kwargs)

    for module in (operators, nonbacktracking, trust):
        monkeypatch.setattr(module, "total_variation_to_reference", recording_tvd, raising=False)
    budgeted, num_states = _sweep(kind, graph, BUDGET)

    assert widest[0] >= 1
    assert widest[0] * num_states * 8 <= policy_block_bytes(BUDGET)
    pairs = zip(budgeted, reference) if isinstance(reference, tuple) else [(budgeted, reference)]
    for got, want in pairs:
        assert np.array_equal(got, want)
