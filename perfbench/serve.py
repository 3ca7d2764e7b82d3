"""Launch ``repro-mixing serve`` with the benchmark's span wrappers.

Usage: ``python3 perfbench/serve.py [--trace-dir DIR] -- serve --port 0``

Without ``--trace-dir`` this is exactly the CLI.  With it, the wrappers
are installed before the server imports its engine and tracing starts
on; the load generator then steers the tracer through SIGUSR1 plus a
command file ``DIR/cmd`` (first line: sequence number; then one command
per line: ``reset``, ``enable``, ``disable`` or ``dump NAME``), and each
handled signal is acknowledged by ``DIR/ack-<seq>``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def _control(tracer, trace_dir: str) -> None:
    with open(os.path.join(trace_dir, "cmd"), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    seq, commands = lines[0].strip(), [c.strip() for c in lines[1:] if c.strip()]
    for command in commands:
        verb, _, arg = command.partition(" ")
        if verb == "reset":
            tracer.reset()
        elif verb == "enable":
            tracer.enabled = True
        elif verb == "disable":
            tracer.enabled = False
        elif verb == "dump":
            path = os.path.join(trace_dir, arg)
            with open(path + ".tmp", "w", encoding="utf-8") as out:
                json.dump(tracer.snapshot(), out)
            os.replace(path + ".tmp", path)
    ack = os.path.join(trace_dir, f"ack-{seq}")
    with open(ack, "w", encoding="utf-8") as fh:
        fh.write("ok\n")


def main(argv) -> int:
    trace_dir = None
    if argv and argv[0] == "--trace-dir":
        trace_dir, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    if trace_dir is not None:
        import layers
        from tracer import TRACER

        layers.install(TRACER)
        TRACER.trace_dir = trace_dir
        TRACER.enabled = True
        signal.signal(signal.SIGUSR1, lambda *_: _control(TRACER, trace_dir))
    from common import stop_helper_processes
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        stop_helper_processes()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
