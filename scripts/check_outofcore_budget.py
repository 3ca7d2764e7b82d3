#!/usr/bin/env python
"""Prove the streaming stripe kernel's memory claim under a hard OS ceiling.

The out-of-core pitch (DESIGN.md §5, EXPERIMENTS.md "Paper scale") is
that a Figure 3-style variation-curve sweep over a graph whose
transition matrix dwarfs the stripe budget completes — checkpointed and
resumed — while the in-memory path cannot even build its operator.
This driver makes the OS referee that claim:

1. chunk-generate a paper-shaped community graph straight into an
   on-disk CSR container (never materialising the edge list);
2. clamp ``RLIMIT_DATA`` — the kernel's cap on the data segment plus
   anonymous mappings (what malloc/numpy allocations draw from; clean
   file-backed mmap pages such as the container are deliberately
   outside it, they are reclaimable cache) — to the current footprint
   plus a fixed headroom far below the matrix size;
3. show the in-memory route dies with ``MemoryError``;
4. run the streaming sweep with a checkpoint store, then resume it,
   and require both to finish under the same ceiling with bit-identical
   curves.

Exit status 0 means the claim held; any other outcome (the dense path
fitting, the streaming path OOMing, curves drifting) is a failure.
Runs in tier-2 CI; locally: ``PYTHONPATH=src python
scripts/check_outofcore_budget.py``.
"""

from __future__ import annotations

import gc
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import ExecutionPolicy, TransitionOperator
from repro.generators.chunked import chunked_community_csr

NODES = 600_000
COMMUNITIES = 600
MEAN_EXTRA_DEGREE = 8.0
WALKS = [1, 2, 5, 10]
NUM_SOURCES = 16
STRIPE_BUDGET = 16 << 20
HEADROOM_BYTES = 100 << 20


def data_segment_bytes() -> int:
    """Current ``VmData`` — the quantity RLIMIT_DATA caps."""
    for line in open("/proc/self/status"):
        if line.startswith("VmData:"):
            return int(line.split()[1]) * 1024
    raise RuntimeError("VmData not found; this driver is Linux-only")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="outofcore-budget-"))
    t0 = time.perf_counter()
    graph = chunked_community_csr(
        tmp / "huge.csr",
        NODES,
        num_communities=COMMUNITIES,
        mu_frac=0.02,
        mean_extra_degree=MEAN_EXTRA_DEGREE,
        seed=29,
    )
    matrix_bytes = 2 * graph.num_edges * (8 + 8)
    print(
        f"generated n={graph.num_nodes:,} m={graph.num_edges:,} "
        f"(transition matrix ~{matrix_bytes >> 20} MiB) "
        f"in {time.perf_counter() - t0:.1f}s"
    )

    gc.collect()
    ceiling = data_segment_bytes() + HEADROOM_BYTES
    if matrix_bytes < 1.5 * HEADROOM_BYTES:
        print("FAIL: matrix fits the headroom; the ceiling proves nothing")
        return 1
    resource.setrlimit(resource.RLIMIT_DATA, (ceiling, ceiling))
    print(f"RLIMIT_DATA clamped to {ceiling >> 20} MiB")

    # The in-memory route must be impossible under the ceiling.
    try:
        dense = TransitionOperator(graph.materialize())
        dense.variation_curves(np.arange(2, dtype=np.int64), [1])
    except MemoryError:
        print("in-memory path: MemoryError under the ceiling (expected)")
        dense = None
        gc.collect()
    else:
        print("FAIL: the in-memory operator fit under the ceiling")
        return 1

    sources = np.arange(NUM_SOURCES, dtype=np.int64) * (NODES // NUM_SOURCES)
    op = TransitionOperator(graph)
    ckpt = tmp / "ckpt"

    t0 = time.perf_counter()
    first = op.variation_curves(
        sources,
        WALKS,
        policy=ExecutionPolicy(memory_budget=STRIPE_BUDGET, checkpoint_dir=ckpt),
    )
    print(f"streaming sweep finished in {time.perf_counter() - t0:.1f}s")

    t0 = time.perf_counter()
    resumed = op.variation_curves(
        sources,
        WALKS,
        policy=ExecutionPolicy(
            memory_budget=STRIPE_BUDGET, checkpoint_dir=ckpt, resume=True
        ),
    )
    print(f"checkpoint resume finished in {time.perf_counter() - t0:.1f}s")

    if not np.array_equal(first, resumed):
        print("FAIL: resumed curves drifted from the first pass")
        return 1
    if not np.all(np.isfinite(first)):
        print("FAIL: non-finite variation distances")
        return 1
    print(
        "OK: streaming + checkpoint/resume bit-identical under a ceiling "
        f"{matrix_bytes / HEADROOM_BYTES:.1f}x smaller than the matrix"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
