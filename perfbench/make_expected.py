"""Regenerate the committed answer tables in ``perfbench/expected/``.

Run from the repository root: ``python3 perfbench/make_expected.py``.
The tables hold one entry per source node, computed serially in one
process; benchmark calls over any subset of sources must reproduce
them bit for bit (rows do not depend on how sources are grouped).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import BLAS_ENV  # noqa: E402


def main() -> int:
    root = os.getcwd()
    os.environ.update(BLAS_ENV)
    cache = os.path.join(root, ".perfbench", "expected-cache")
    os.environ["REPRO_CACHE_DIR"] = cache
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from sweep_workloads import FIG4, HITTING, row_digest

    from repro.core.mixing import measure_mixing
    from repro.core.walks import TransitionOperator
    from repro.datasets import load_cached

    out_dir = os.path.join(HERE, "expected")
    os.makedirs(out_dir, exist_ok=True)

    graph = load_cached(FIG4["dataset"])
    curves = measure_mixing(graph, FIG4["walk_lengths"], operator=TransitionOperator(graph))
    _write(out_dir, "fig4_physics1.json", {
        "dataset": FIG4["dataset"],
        "walk_lengths": FIG4["walk_lengths"],
        "num_sources": int(graph.num_nodes),
        "row_sha256_16": [row_digest(row) for row in curves.distances],
    })

    graph = load_cached(HITTING["dataset"])
    hit = TransitionOperator(graph).hitting_times(np.arange(graph.num_nodes), HITTING["epsilon"])
    _write(out_dir, "hitting_slashdot1.json", {
        "dataset": HITTING["dataset"],
        "epsilon": HITTING["epsilon"],
        "num_sources": int(graph.num_nodes),
        "times": [int(t) for t in hit.times],
    })
    shutil.rmtree(cache, ignore_errors=True)
    return 0


def _write(out_dir: str, name: str, payload: dict) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
