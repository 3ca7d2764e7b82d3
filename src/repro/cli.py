"""Command-line interface: ``repro-mixing <experiment> [--full]``.

Runs any paper experiment and prints its table or figure series as text.

Examples
--------
::

    repro-mixing table1
    repro-mixing fig8 --full
    repro-mixing all            # every experiment, fast mode
    repro-mixing list           # show available experiments
    repro-mixing serve          # long-lived HTTP query service

Exit codes
----------
Errors raised intentionally by the library are caught at this boundary
and mapped to distinct non-zero exit codes with a clean one-line
message (no traceback):

======  ============================================================
code    meaning
======  ============================================================
``0``   success
``2``   usage / configuration error (bad flag value, unknown
        experiment, invalid :class:`~repro.ExecutionPolicy`)
``3``   any other :class:`~repro.errors.ReproError` (bad graph,
        non-ergodic walk, failed convergence, …)
``4``   :class:`~repro.errors.CheckpointCorruption` — a resume
        checkpoint failed validation; delete it and rerun
``5``   :class:`~repro.errors.RuntimeFailure` — the fault-tolerant
        sweep runtime exhausted every recovery avenue
======  ============================================================

Unexpected exceptions (bugs) still propagate with a full traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Callable, Dict, Optional, Sequence

from ._util import atomic_write_text
from .core.runtime import ExecutionPolicy
from .errors import (
    CheckpointCorruption,
    ConfigurationError,
    ReproError,
    RuntimeFailure,
)
from .experiments import (
    ExperimentConfig,
    run_with_manifest,
    validate_workers,
    average_case_table,
    run_average_case,
    run_directed_conversion,
    run_trust_models,
    run_sybilguard_admission,
    run_sybilrank_iterations,
    replication_table,
    run_replication,
    run_whanau_lookup,
    run_whanau_tails,
    render_figure,
    render_table,
    run_adversarial_sweep,
    run_conductance_ablation,
    run_figure1,
    run_figure2,
    run_fig3_over_time,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_sampling_bias_ablation,
    run_sybil_bound_ablation,
    run_table1,
    table1_result,
)

__all__ = ["main", "EXPERIMENTS", "EXIT_CODES"]

#: Exit-code mapping applied at the CLI boundary (see module docstring).
#: Ordered most-specific-first; the first matching class wins.
EXIT_CODES = (
    (ConfigurationError, 2),
    (CheckpointCorruption, 4),
    (RuntimeFailure, 5),
    (ReproError, 3),
)


def _run_table1(config: ExperimentConfig) -> str:
    return render_table(table1_result(run_table1(config)))


EXPERIMENTS: Dict[str, Callable[[ExperimentConfig], str]] = {
    "table1": _run_table1,
    "fig1": lambda c: render_figure(run_figure1(c)),
    "fig2": lambda c: render_figure(run_figure2(c)),
    "fig3": lambda c: render_figure(run_figure3(c)),
    "fig3-over-time": lambda c: render_figure(run_fig3_over_time(c)),
    "fig4": lambda c: render_figure(run_figure4(c)),
    "fig5": lambda c: render_figure(run_figure5(c)),
    "fig6": lambda c: render_figure(run_figure6(c)),
    "fig7": lambda c: render_figure(run_figure7(c)),
    "fig8": lambda c: render_figure(run_figure8(c)),
    "adversarial-sweep": lambda c: render_figure(run_adversarial_sweep(c)),
    "whanau-tails": lambda c: render_figure(run_whanau_tails(c)),
    "whanau-lookup": lambda c: render_figure(run_whanau_lookup(c)),
    "sybilguard-admission": lambda c: render_figure(run_sybilguard_admission(c)),
    "sybilrank-iterations": lambda c: render_figure(run_sybilrank_iterations(c)),
    "replication": lambda c: render_table(replication_table(run_replication(c))),
    "average-case": lambda c: render_table(average_case_table(run_average_case(c))),
    "trust-models": lambda c: render_figure(run_trust_models(c)),
    "directed-conversion": lambda c: render_figure(run_directed_conversion(c)),
    "ablation-conductance": lambda c: render_table(run_conductance_ablation(c)),
    "ablation-sybil-bound": lambda c: render_table(run_sybil_bound_ablation(c)),
    "ablation-sampling-bias": lambda c: render_table(run_sampling_bias_ablation(c)),
}


def _workers_arg(raw: str) -> int:
    """Argparse ``type`` for ``--workers``: strict parse-time validation.

    Invalid values (``0``, ``-2``, ``2.5``, ``two``) fail immediately
    with argparse's usage error instead of surfacing hours into a sweep.
    """
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer, got {raw!r}"
        ) from None
    try:
        validate_workers(value)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _memory_budget_arg(raw: str) -> int:
    """Argparse ``type`` for ``--memory-budget``: bytes with K/M/G suffix."""
    text = raw.strip().upper()
    scale = 1
    for suffix, factor in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            text, scale = text[: -len(suffix)], factor
            break
    try:
        scaled = float(text) * scale
    except ValueError:
        scaled = math.nan
    if not math.isfinite(scaled):
        raise argparse.ArgumentTypeError(
            f"memory budget must be a finite number of bytes with optional "
            f"K/M/G suffix, got {raw!r}"
        )
    value = int(scaled)
    if value <= 0:
        raise argparse.ArgumentTypeError("memory budget must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mixing",
        description="Reproduce tables/figures of 'Measuring the Mixing Time of Social Graphs' (IMC 2010)",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'all', 'list', 'datasets', 'fetch-dataset', or 'serve'",
    )
    parser.add_argument(
        "--datasets",
        metavar="NAMES",
        default=None,
        help="comma-separated registry names restricting dataset-driven "
        "experiments (e.g. 'table1 --datasets huge_livejournal' runs the "
        "paper-scale out-of-core stand-in, which default rosters skip)",
    )
    parser.add_argument(
        "--memory-budget",
        type=_memory_budget_arg,
        default=None,
        metavar="BYTES",
        help="working-memory target of a sweep; accepts K/M/G suffixes "
        "(e.g. 256M). Dense evolution chunks get half of it; a "
        "memory-mapped graph's double-buffered stripes are planned from "
        "all of it (see ExecutionPolicy.memory_budget); results are "
        "bit-identical at any setting",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run with the paper's full parameters (slower) instead of fast mode",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the master seed",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="also write each experiment's text output to DIR/<name>.txt",
    )
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=None,
        metavar="N",
        help="processes for multi-source sweeps (-1 = all usable cores; "
        "default serial; results are identical at any setting)",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        metavar="N",
        help="sources per evolution chunk (default: sized from the "
        "memory budget; results are identical at any setting)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="persist completed sweep shards under DIR and resume from "
        "them on restart (results are bit-identical to an "
        "uninterrupted run)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="with --checkpoint-dir: discard existing checkpoints "
        "instead of resuming from them",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failed sweep shard before degrading to "
        "in-process serial execution (default 2)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard straggler timeout; a shard exceeding it is "
        "re-dispatched (default: no timeout)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="enable telemetry and write the metric snapshot (JSON) to FILE "
        "after all experiments finish",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="enable telemetry and write the span trace (JSON) to FILE "
        "after all experiments finish",
    )
    fetch = parser.add_argument_group(
        "fetch-dataset options", "only used with the 'fetch-dataset' command"
    )
    fetch.add_argument(
        "--name",
        default=None,
        metavar="SOURCE",
        help="SNAP source to fetch (see repro.datasets.snap.SNAP_SOURCES)",
    )
    fetch.add_argument(
        "--dest",
        default=None,
        metavar="DIR",
        help="directory receiving the ingested .csr container "
        "(default: the dataset cache directory)",
    )
    fetch.add_argument(
        "--sha256",
        default=None,
        metavar="HEX",
        help="expected SHA-256 of the downloaded archive; required when "
        "the source registry carries no pin (unverified downloads are "
        "always refused)",
    )
    fetch.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="override the registry URL (file:// works for local archives)",
    )
    fetch.add_argument(
        "--keep-all-components",
        action="store_true",
        help="skip the largest-connected-component extraction after ingest",
    )
    serve = parser.add_argument_group(
        "serve options", "only used with the 'serve' command"
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for 'serve' (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8377,
        metavar="N",
        help="bind port for 'serve' (0 = ephemeral; default 8377)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        metavar="N",
        help="result-cache capacity for 'serve' (0 disables caching)",
    )
    serve.add_argument(
        "--registry-capacity",
        type=int,
        default=8,
        metavar="N",
        help="warm operators kept by the service registry (LRU beyond)",
    )
    serve.add_argument(
        "--coalesce-window",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="batching window for coalescing concurrent point-mass "
        "queries into one block sweep (0 disables coalescing)",
    )
    return parser


def _fetch_dataset(args) -> int:
    """The ``repro-mixing fetch-dataset`` command.

    Network acquisition is strictly opt-in: nothing else in the CLI, the
    test suite, or CI ever triggers a download.
    """
    from .datasets.cache import default_cache_dir
    from .datasets.snap import fetch_dataset

    if args.name is None:
        print("fetch-dataset requires --name <source>", file=sys.stderr)
        return 2
    dest = args.dest if args.dest is not None else default_cache_dir()
    path = fetch_dataset(
        args.name,
        dest,
        sha256=args.sha256,
        url=args.url,
        keep_largest_component=not args.keep_all_components,
    )
    print(f"ingested {args.name} -> {path}")
    return 0


def _serve(args) -> int:
    """The ``repro-mixing serve`` command: a long-lived HTTP query service.

    Binds, prints the served address (machine-parseable first line, for
    smoke scripts binding port 0), and blocks until SIGINT/SIGTERM.
    A parallel sweep's shared-memory segment is unlinked on every exit
    path: the sweep closes it when it ends, and
    :func:`~repro.core.parallel.install_signal_cleanup` covers fatal
    signals landing mid-request.
    """
    from .core.parallel import install_signal_cleanup
    from .service import OperatorRegistry, QueryEngine, ResultCache, ServiceServer

    install_signal_cleanup()
    telemetry = args.metrics_out is not None or args.trace_out is not None
    if telemetry:
        from .obs import OBS

        OBS.enable()
    policy = ExecutionPolicy(
        workers=args.workers,
        block_size=args.block_size,
        memory_budget=args.memory_budget,
    )
    engine = QueryEngine(
        OperatorRegistry(capacity=args.registry_capacity),
        ResultCache(max_entries=args.cache_entries),
        policy=policy,
        coalesce_window=args.coalesce_window,
    )
    server = ServiceServer(engine, host=args.host, port=args.port, own_engine=True)
    host, port = server.address
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-mixing: shutting down", file=sys.stderr)
    finally:
        server.stop()
        if args.metrics_out is not None:
            from .obs import OBS

            OBS.write_metrics(args.metrics_out)
        if args.trace_out is not None:
            from .obs import OBS

            OBS.write_trace(args.trace_out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Intentional library errors (:class:`~repro.errors.ReproError`) are
    mapped to the distinct exit codes documented in the module docstring
    with a clean one-line message; only unexpected exceptions (bugs)
    escape with a traceback.
    """
    try:
        return _main(argv)
    except ReproError as exc:
        code = next(c for cls, c in EXIT_CODES if isinstance(exc, cls))
        kind = type(exc).__name__
        print(f"repro-mixing: {kind}: {exc}", file=sys.stderr)
        return code


def _main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("\n".join(EXPERIMENTS))
        return 0
    if args.experiment == "datasets":
        from .datasets import REGISTRY, load_cached

        for spec in REGISTRY.values():
            if spec.scale == "huge":
                # Paper-scale tier: listed from the spec alone — realising
                # it here would silently generate a multi-hundred-MB
                # container on a listing command.
                print(
                    f"{spec.name:15s} {spec.category:12s} scale={spec.scale:5s} "
                    f"n={spec.nodes:7,} m={spec.edges:8,} "
                    f"(target sizes; generate via --datasets {spec.name})"
                )
                continue
            graph = load_cached(spec.name)
            print(
                f"{spec.name:15s} {spec.category:12s} scale={spec.scale:5s} "
                f"n={graph.num_nodes:7,} m={graph.num_edges:8,} "
                f"(paper: n={spec.paper_nodes:,}, m={spec.paper_edges:,})"
            )
        return 0
    if args.experiment == "fetch-dataset":
        return _fetch_dataset(args)
    if args.experiment == "serve":
        return _serve(args)
    telemetry = args.metrics_out is not None or args.trace_out is not None
    policy = ExecutionPolicy(
        workers=args.workers,
        block_size=args.block_size,
        shard_timeout=args.shard_timeout,
        checkpoint_dir=args.checkpoint_dir,
        resume=not args.no_resume,
        memory_budget=args.memory_budget,
        **({"max_retries": args.max_retries} if args.max_retries is not None else {}),
    )
    config = ExperimentConfig(
        mode="full" if args.full else "fast",
        telemetry=telemetry,
        policy=policy,
        **({"seed": args.seed} if args.seed is not None else {}),
        **(
            {"datasets": tuple(args.datasets.split(","))}
            if args.datasets is not None
            else {}
        ),
    )
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    out_dir = None
    if args.output is not None:
        from pathlib import Path

        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        start = time.time()
        output, _manifest, manifest_path = run_with_manifest(
            name, EXPERIMENTS[name], config, out_dir=out_dir
        )
        elapsed = time.time() - start
        print(output)
        print(f"[{name} finished in {elapsed:.1f}s]\n")
        if out_dir is not None:
            atomic_write_text(out_dir / f"{name}.txt", output + "\n")
            print(f"[manifest: {manifest_path}]\n")
    if args.metrics_out is not None or args.trace_out is not None:
        from .obs import OBS

        if args.metrics_out is not None:
            OBS.write_metrics(args.metrics_out)
            print(f"[metrics: {args.metrics_out}]")
        if args.trace_out is not None:
            OBS.write_trace(args.trace_out)
            print(f"[trace: {args.trace_out}]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly the
        # way well-behaved Unix tools do.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)
