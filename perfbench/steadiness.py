"""Repeat the benchmark and record how steady each end-to-end metric is.

Run from the repository root::

    python3 perfbench/steadiness.py                 # two sets of ten runs
    python3 perfbench/steadiness.py --traced-only   # one traced run each

Each of the two sets runs every workload ten times with distinct seeds
and the window length of ``BENCHMARK.json``, the workloads interleaved
so slow drift in host speed lands on all of them alike.  For every
metric the record gives each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the second set's median shift against the
first, next to the bound in ``BENCHMARK.json``.  Writes
``perfbench/steadiness.json`` and ``perfbench/STEADINESS.md``
(``--traced-only``: ``perfbench/traced_runs.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS, SETS = 10, 2

DESIGN_NOTE = (
    "Run-to-run drift on this class of host comes from the host's speed "
    "changing, not from scheduling: the same 32-source physics1 sweep call "
    "takes ~93 ms in fast spells and ~150-170 ms in slow ones, spells last "
    "seconds to minutes and hit every freshly built operator alike.  A "
    "single long timed pass inherits whichever spell it lands in.  This "
    "benchmark instead reports medians over many "
    "equal-size operations per run (sweep calls, requests, writes), takes "
    "set-up as the median of repeated cold set-ups spread across the run, "
    "keeps at most two processes busy (the caller and one server, or two "
    "pool workers while the caller waits) on the two vCPUs, and pins BLAS "
    "threads to 1 in every process.  CPU-bound durations are reported at a "
    "reference host speed: a fixed kernel that does not use the library "
    "(common.HostSpeed) is timed next to each operation (before every "
    "sweep call and cold set-up, after every churn write, between ten "
    "blocks of the service-mixed window) and each duration is scaled by "
    "the median of the samples nearest to it.  The service-mixed median "
    "and throughput, set by the HTTP round trip, stay as measured; the "
    "record line keeps every time as measured."
)


def _run(workload: str, seed: int, seconds: int, trace: int = 0):
    """The result line (and, traced, the record line) of one run."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return (result, json.loads(lines[-2])) if trace else result


def _traced(workloads, seconds: int) -> None:
    """One traced run per workload: the per-layer split and its checks."""
    out = {}
    for workload in workloads:
        result, record = _run(workload, 7, seconds, trace=1)
        out[workload] = {
            "correct": result["correct"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "accounting": record["accounting"],
            "tracing_overhead_pct": record["details"].get("tracing_overhead_pct"),
        }
        print(f"traced {workload} done", file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "traced_runs.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def _stats(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="*", help="default: those of BENCHMARK.json")
    parser.add_argument(
        "--traced-only", action="store_true",
        help="only record one traced run per workload (traced_runs.json)",
    )
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if args.traced_only:
        _traced(workloads, seconds)
        return 0
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {}  # (set, workload, metric) -> list
    started = time.time()
    for set_index in range(SETS):
        for run in range(RUNS):
            seed = 1000 * (set_index + 1) + run
            for workload in workloads:
                result = _run(workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
                for name, metric in result["metrics"].items():
                    values.setdefault((set_index, workload, name), []).append(metric["value"])
                print(f"set {set_index} run {run} {workload} done", file=sys.stderr, flush=True)
    report = {
        "design_note": DESIGN_NOTE,
        "runs_per_set": RUNS,
        "sets": SETS,
        "run_seconds": seconds,
        "elapsed_s": time.time() - started,
        "workloads": {},
    }
    for workload in workloads:
        per_metric = {}
        for name, spec in bounds.items():
            sets = [_stats(values[(s, workload, name)]) for s in range(SETS)]
            first, second = sets[0]["median"], sets[1]["median"]
            worse = (second - first) if spec["better"] == "lower" else (first - second)
            per_metric[name] = {
                "bound": spec["bound"],
                "better": spec["better"],
                "sets": sets,
                "second_vs_first_worse": worse / first if first else 0.0,
            }
        report["workloads"][workload] = per_metric
    with open(os.path.join(HERE, "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    _markdown(report)
    return 0


def _markdown(report: dict) -> None:
    lines = [
        "# Steadiness of the benchmark",
        "",
        f"{report['sets']} sets x {report['runs_per_set']} runs per workload, "
        f"{report['run_seconds']} s windows, workloads interleaved; "
        "regenerate with `python3 perfbench/steadiness.py`.",
        "",
        report["design_note"],
        "",
        "Spread is (q3 - q1) / median; shift is how much worse set 2's median "
        "is than set 1's.  Both are compared with the metric's bound.",
        "",
    ]
    for workload, metrics in report["workloads"].items():
        lines += [
            f"## {workload}",
            "",
            "| metric | bound | set | median | q1 | q3 | spread | shift |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for name, entry in metrics.items():
            for index, stats in enumerate(entry["sets"]):
                shift = f"{entry['second_vs_first_worse']:+.3f}" if index == 1 else ""
                lines.append(
                    f"| {name} | {entry['bound']} | {index + 1} | {stats['median']:.4g} "
                    f"| {stats['q1']:.4g} | {stats['q3']:.4g} | {stats['spread']:.3f} | {shift} |"
                )
        lines.append("")
    traced_path = os.path.join(HERE, "traced_runs.json")
    if os.path.exists(traced_path):
        with open(traced_path, encoding="utf-8") as fh:
            lines += _traced_markdown(json.load(fh))
    with open(os.path.join(HERE, "STEADINESS.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _traced_markdown(traced: dict) -> list:
    """Where the time goes, per workload, from ``traced_runs.json``."""
    lines = [
        "# Where the time goes (one traced run per workload, seed 7)",
        "",
        "Self seconds per layer over the traced set-up plus the traced blocks "
        "of the window, summed over the caller, the server and pool workers; "
        "`--trace 1` output, regenerated by `--traced-only`.  The accounting "
        "checks compare the spans with the benchmark's own clocks: the "
        "library's layers must add up to the time spent inside library "
        "calls, and with the load generator's own work (input generation, "
        "answer checks, pacing) to the wall time, each within 2% + 5 ms.  "
        "The tracing overhead is the traced blocks' per-operation median "
        "against the untraced blocks' in the same window.",
        "",
    ]
    for workload, entry in traced.items():
        layers = entry["per_layer"]
        timed = sorted(
            ((k, v) for k, v in layers.items() if k.endswith("_s") and k != "trace.wall_s" and v > 0),
            key=lambda kv: -kv[1],
        )
        checks = all(all(acc["checks"].values()) for acc in entry["accounting"].values())
        lines += [
            f"## {workload}",
            "",
            f"Accounting checks pass: {checks}; tracing overhead "
            f"{entry['tracing_overhead_pct']:+.1f}% (traced vs untraced blocks).",
            "",
            "| layer | self s |",
            "|---|---|",
        ]
        lines += [f"| {k} | {v:.4f} |" for k, v in timed]
        ratios = {
            k: v for k, v in layers.items()
            if k.endswith(("_ratio", "_util", "_sweep", "matvecs", "fallbacks", "shards", "late_ms"))
        }
        if any(ratios.values()):
            lines += [""] + [f"- {k} = {v:.4g}" for k, v in ratios.items() if v]
        window = entry["accounting"].get("window", {})
        workers = window.get("workers")
        if workers:
            total = sum(workers["layers_self_s"].values())
            shares = ", ".join(
                f"{k} {v / total:.0%}" for k, v in sorted(workers["layers_self_s"].items())
            )
            lines += ["", f"Worker self-time shares (window): {shares}."]
        lines.append("")
    return lines


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
