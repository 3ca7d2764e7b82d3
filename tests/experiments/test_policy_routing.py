"""Execution-knob hygiene: runners route through ExecutionPolicy, and the
policy path emits no DeprecationWarning anywhere in the sweep stack."""

from __future__ import annotations

import warnings

import pytest

from repro.core.mixing import measure_mixing
from repro.core.runtime import ExecutionPolicy
from repro.experiments import FAST
from repro.experiments.ablations import run_sybil_bound_ablation
from repro.generators import erdos_renyi_gnm
from repro.graph import largest_connected_component


@pytest.fixture(scope="module")
def graph():
    return largest_connected_component(erdos_renyi_gnm(60, 180, seed=21))[0]


def _deprecations(caught):
    return [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestRunnersAreFullyPolicyRouted:
    def test_sybil_bound_ablation_emits_no_deprecation(self):
        # This runner held the last direct admission_sweep call site that
        # bypassed config.execution_policy.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = run_sybil_bound_ablation(
                FAST,
                dataset="physics1",
                attack_edges=(2,),
                route_lengths=(10,),
                sybil_size=50,
            )
        assert len(table.rows) == 1
        assert not _deprecations(caught)

    def test_policy_path_emits_no_deprecation(self, graph):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            measure_mixing(
                graph,
                [1, 2, 4],
                sources=[0, 1],
                policy=ExecutionPolicy(workers=1, block_size=8),
            )
        assert not _deprecations(caught)
