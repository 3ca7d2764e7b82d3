"""Pinned checkpoint fingerprints for every checkpointed sweep kind.

A checkpoint directory is keyed by the sweep's content fingerprint
(:func:`repro.core.runtime.sweep_fingerprint` over the operator arrays,
reference, sources and sweep parameters).  If a refactor changes what
goes into that hash, every checkpoint already on disk silently stops
resuming.  These tests run each checkpointed kind once on the karate
club graph and compare the fingerprint written to ``meta.json`` with a
literal recorded before the sweep loops were merged.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import TransitionOperator, originator_biased_curves
from repro.core.runtime import ExecutionPolicy
from repro.graph.io import load_graph
from repro.sybil import RouteInstances

KARATE_PATH = Path(__file__).parent.parent / "data" / "karate.txt"

SOURCES = [0, 1, 2, 3, 5, 8, 13, 21, 33]
WALKS = [0, 1, 2, 5, 10, 20]

PINNED = {
    "curves": (
        "5e466f6bf42ea44ffe8520a13865a75f"
        "44f2668d0457737fc75069caed583dff"
    ),
    "hitting": (
        "9690122969376e6e2d44755f8677382b"
        "8da966170af4f21b253eee0fc0ca2b85"
    ),
    "originator": (
        "988fe5d22c6fea1283f10a5830577e0f"
        "0a206cf7d2cdeafcc21ae4a9bd13a2d0"
    ),
    "route_tails": (
        "fd48943755201ce83302334eb6af4207"
        "b9f327ba04801a429e209df5534dc119"
    ),
}


def _run(kind: str, graph, policy: ExecutionPolicy) -> None:
    if kind == "curves":
        TransitionOperator(graph).variation_curves(SOURCES, WALKS, policy=policy)
    elif kind == "hitting":
        TransitionOperator(graph).hitting_times(
            SOURCES, 0.1, max_steps=200, policy=policy
        )
    elif kind == "originator":
        originator_biased_curves(graph, SOURCES, 0.15, WALKS, policy=policy)
    else:
        nodes = np.arange(graph.num_nodes, dtype=np.int64)
        RouteInstances(graph, 6, seed=11).tails_at_lengths(
            nodes, np.asarray([1, 3, 7]), seed=3, policy=policy
        )


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_checkpoint_fingerprint_is_pinned(kind, tmp_path):
    graph = load_graph(KARATE_PATH)
    _run(kind, graph, ExecutionPolicy(checkpoint_dir=str(tmp_path)))
    (meta_path,) = tmp_path.glob(f"{kind}-*/meta.json")
    meta = json.loads(meta_path.read_text())
    assert meta["kind"] == kind
    assert meta["fingerprint"] == PINNED[kind]
    assert meta_path.parent.name == f"{kind}-{PINNED[kind][:32]}"
