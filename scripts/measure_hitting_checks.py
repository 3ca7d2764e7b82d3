#!/usr/bin/env python
"""Where ε-hitting time goes: the two tables of EXPERIMENTS.md.

``costs`` prints the per-row cost of one SpMM step and of one TVD
reduction at the block widths the sweep runs (slashdot1, rows evolved
ten steps from point masses so they are dense), for the reduction as it
is and for the old two-temporary form ``abs(x - ref)``.

``call`` prints the median wall time of the ``hitting-pool`` benchmark
call, ``estimate_mixing_time(slashdot1, ε=0.1, 64 sources, workers=2)``,
over fresh source sets (``--workers 1`` for the serial call).  Three
switches take parts of the sweep back out, for the variant rows of the
table:

* ``--check-every K`` — distance checks every K steps (1: every step);
* ``--two-temporaries`` — the TVD reduction with its old second temporary;
* ``--no-shard-floor`` — four shards per worker whatever the chunk width.

Every variant's answers are checked against the per-step sweep.  Run
each variant in its own process, interleaved, on a quiet host::

    PYTHONPATH=src python scripts/measure_hitting_checks.py costs
    PYTHONPATH=src python scripts/measure_hitting_checks.py call --calls 30
    PYTHONPATH=src python scripts/measure_hitting_checks.py call --check-every 1
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.core import ExecutionPolicy, TransitionOperator, estimate_mixing_time
from repro.core import operators, parallel
from repro.datasets import load_cached

WIDTHS = (1, 8, 16, 32, 64)


def _two_temporaries(block, reference, *, validate=True):
    diff = np.abs(block - reference)
    out = np.empty(block.shape[0], dtype=np.float64)
    for i in range(block.shape[0]):
        out[i] = diff[i].sum()
    out *= 0.5
    return out


def _per_row_us(fn, rows, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / rows * 1e6


def costs(op, repeats):
    pi = op.stationary()
    print("| Rows per block | " + " | ".join(str(w) for w in WIDTHS) + " |")
    print("|---" * (len(WIDTHS) + 1) + "|")
    rows = {"step": [], "TVD, two temporaries": [], "TVD, one temporary": []}
    for width in WIDTHS:
        x = op.point_mass_block(np.arange(width) * 53 % op.num_states)
        for _ in range(10):
            x = op._apply_block(x)
        rows["step"].append(_per_row_us(lambda: op._apply_block(x), width, repeats))
        rows["TVD, two temporaries"].append(
            _per_row_us(lambda: _two_temporaries(x, pi), width, repeats)
        )
        rows["TVD, one temporary"].append(
            _per_row_us(
                lambda: operators.total_variation_to_reference(x, pi, validate=False),
                width, repeats,
            )
        )
    for name, values in rows.items():
        print(f"| {name}, µs/row | " + " | ".join(f"{v:.0f}" for v in values) + " |")


def per_step(run):
    """``run()`` with a distance check at every step, where there are checks."""
    every = getattr(operators, "_CHECK_EVERY", 1)
    operators._CHECK_EVERY = 1
    try:
        return run()
    finally:
        operators._CHECK_EVERY = every


def call(graph, op, calls, seed, workers):
    rng = np.random.default_rng(seed)
    policy = ExecutionPolicy(workers=workers)
    estimate_mixing_time(graph, 0.1, sources=np.arange(64), operator=op, policy=policy)
    samples = []
    for _ in range(calls):
        sources = np.sort(rng.choice(graph.num_nodes, 64, replace=False))
        start = time.perf_counter()
        got = estimate_mixing_time(graph, 0.1, sources=sources, operator=op, policy=policy)
        samples.append(time.perf_counter() - start)
        want = per_step(
            lambda: op.hitting_times(sources, 0.1)
        )
        assert np.array_equal(got.per_source, want.times), "variant changed an answer"
    print(f"median {statistics.median(samples) * 1e3:.1f} ms over {calls} calls")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("costs", "call"))
    parser.add_argument("--calls", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--check-every", type=int, default=None)
    parser.add_argument("--two-temporaries", action="store_true")
    parser.add_argument("--no-shard-floor", action="store_true")
    args = parser.parse_args()
    if args.check_every is not None:
        operators._CHECK_EVERY = args.check_every
    if args.two_temporaries:
        operators.total_variation_to_reference = _two_temporaries
    if args.no_shard_floor:
        parallel.resolve_block_size = lambda *_args, **_kwargs: 1
    graph = load_cached("slashdot1")
    op = TransitionOperator(graph)
    op.stationary()
    if args.what == "costs":
        costs(op, args.repeats)
    else:
        call(graph, op, args.calls, args.seed, args.workers)


if __name__ == "__main__":
    main()
