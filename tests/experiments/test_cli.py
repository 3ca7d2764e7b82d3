"""Unit tests for the CLI (argument handling; heavy runners are mocked)."""

import os
import subprocess
import sys

import pytest

import repro
from repro import cli
from repro.errors import (
    CheckpointCorruption,
    ConfigurationError,
    ReproError,
    RuntimeFailure,
    ScenarioError,
)


class TestParser:
    def test_defaults(self):
        args = cli.build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert not args.full
        assert args.seed is None

    def test_full_and_seed(self):
        args = cli.build_parser().parse_args(["fig3", "--full", "--seed", "7"])
        assert args.full
        assert args.seed == 7

    def test_runtime_flags(self):
        args = cli.build_parser().parse_args(
            [
                "fig1",
                "--workers", "2",
                "--block-size", "64",
                "--checkpoint-dir", "ckpt",
                "--no-resume",
                "--max-retries", "5",
                "--shard-timeout", "30",
            ]
        )
        assert args.workers == 2
        assert args.block_size == 64
        assert args.checkpoint_dir == "ckpt"
        assert args.no_resume
        assert args.max_retries == 5
        assert args.shard_timeout == 30.0

    @pytest.mark.parametrize("bad", ["0", "-2", "2.5", "two"])
    def test_invalid_workers_fail_at_parse_time(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["fig1", "--workers", bad])
        assert excinfo.value.code == 2
        assert "workers" in capsys.readouterr().err

    def test_memory_budget_suffixes(self):
        parse = cli.build_parser().parse_args
        assert parse(["fig1", "--memory-budget", "64K"]).memory_budget == 64 << 10
        assert parse(["fig1", "--memory-budget", "1.5m"]).memory_budget == 3 << 19
        assert parse(["fig1"]).memory_budget is None

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e400K", "0", "-1M", "lots"])
    def test_invalid_memory_budget_is_usage_error(self, bad, capsys):
        # A non-finite budget used to escape argparse as an
        # OverflowError traceback instead of the exit-2 usage error.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["list", f"--memory-budget={bad}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "memory budget" in err
        assert "Traceback" not in err


class TestExitCodes:
    """Intentional library errors map to distinct exit codes with a
    clean one-line message — never a traceback."""

    def _run_with(self, monkeypatch, exc):
        def boom(config):
            raise exc

        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", boom)
        return cli.main(["fig1"])

    def test_configuration_error_is_2(self, monkeypatch, capsys):
        assert self._run_with(monkeypatch, ConfigurationError("bad knob")) == 2
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        assert "bad knob" in err
        assert "Traceback" not in err

    def test_generic_repro_error_is_3(self, monkeypatch, capsys):
        assert self._run_with(monkeypatch, ScenarioError("bad scenario")) == 3
        assert "ScenarioError" in capsys.readouterr().err

    def test_checkpoint_corruption_is_4(self, monkeypatch, capsys):
        assert self._run_with(monkeypatch, CheckpointCorruption("bad shard")) == 4
        err = capsys.readouterr().err
        assert "CheckpointCorruption" in err

    def test_runtime_failure_is_5(self, monkeypatch, capsys):
        assert self._run_with(monkeypatch, RuntimeFailure("pool gone")) == 5
        assert "RuntimeFailure" in capsys.readouterr().err

    def test_policy_validation_error_is_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", lambda c: "")
        # Negative shard timeout passes argparse (it is a float) but
        # fails ExecutionPolicy validation → usage error, not traceback.
        assert cli.main(["fig1", "--shard-timeout", "-3"]) == 2
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        assert "shard_timeout" in err

    def test_infinite_shard_timeout_is_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", lambda c: "")
        assert cli.main(["fig1", "--shard-timeout", "inf"]) == 2
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        assert "shard_timeout" in err and "finite" in err

    def test_unknown_backend_is_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", lambda c: "")
        # The operand picks the SpMM kernel; there is no --backend flag,
        # so any value is an unrecognised argument → usage error.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig1", "--backend", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend" in err
        assert "Traceback" not in err

    def test_unexpected_exceptions_still_propagate(self, monkeypatch):
        def boom(config):
            raise ZeroDivisionError("bug")

        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", boom)
        with pytest.raises(ZeroDivisionError):
            cli.main(["fig1"])

    def test_exit_code_table_is_most_specific_first(self):
        seen = []
        for cls, _code in cli.EXIT_CODES:
            assert not any(issubclass(cls, earlier) for earlier in seen), (
                f"{cls.__name__} is unreachable: a superclass precedes it"
            )
            seen.append(cls)
        assert cli.EXIT_CODES[-1][0] is ReproError


class TestPolicyPlumbing:
    def test_checkpoint_flags_reach_config_policy(self, monkeypatch, tmp_path):
        seen = {}

        def fake(config):
            seen["policy"] = config.execution_policy
            return ""

        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", fake)
        assert (
            cli.main(
                [
                    "fig1",
                    "--workers", "2",
                    "--checkpoint-dir", str(tmp_path),
                    "--no-resume",
                    "--max-retries", "4",
                    "--shard-timeout", "12",
                ]
            )
            == 0
        )
        policy = seen["policy"]
        assert policy.workers == 2
        assert policy.checkpoint_dir == str(tmp_path)
        assert policy.resume is False
        assert policy.max_retries == 4
        assert policy.shard_timeout == 12.0


class TestMain:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig8" in out

    def test_unknown_experiment(self, capsys):
        assert cli.main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_selected_experiment(self, capsys, monkeypatch):
        calls = []

        def fake(config):
            calls.append(config.mode)
            return "RESULT-TEXT"

        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", fake)
        assert cli.main(["fig1"]) == 0
        assert calls == ["fast"]
        out = capsys.readouterr().out
        assert "RESULT-TEXT" in out
        assert "finished in" in out

    def test_full_flag_propagates(self, monkeypatch, capsys):
        seen = {}

        def fake(config):
            seen["mode"] = config.mode
            seen["seed"] = config.seed
            return ""

        monkeypatch.setitem(cli.EXPERIMENTS, "fig2", fake)
        assert cli.main(["fig2", "--full", "--seed", "99"]) == 0
        assert seen == {"mode": "full", "seed": 99}

    def test_all_runs_everything(self, monkeypatch, capsys):
        ran = []
        for name in list(cli.EXPERIMENTS):
            monkeypatch.setitem(
                cli.EXPERIMENTS, name, (lambda n: lambda c: ran.append(n) or "")(name)
            )
        assert cli.main(["all"]) == 0
        assert set(ran) == set(cli.EXPERIMENTS)

    def test_experiment_registry_covers_all_figures(self):
        for name in ["table1"] + [f"fig{i}" for i in range(1, 9)]:
            assert name in cli.EXPERIMENTS


class TestOutputFlag:
    def test_writes_output_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", lambda c: "SERIES-DATA")
        assert cli.main(["fig1", "--output", str(tmp_path / "out")]) == 0
        written = (tmp_path / "out" / "fig1.txt").read_text()
        assert "SERIES-DATA" in written

    def test_no_output_flag_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", lambda c: "X")
        assert cli.main(["fig1"]) == 0
        assert not (tmp_path / "fig1.txt").exists()


class TestDatasetsCommand:
    def test_lists_registry(self, capsys, monkeypatch):
        # Patch the loader so the test does not generate all 15 graphs.
        from repro.datasets import registry as reg
        from repro.graph import Graph

        import repro.datasets as ds

        monkeypatch.setattr(
            ds, "load_cached", lambda name: Graph.from_edges([(0, 1)]), raising=True
        )
        assert cli.main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("wiki_vote", "dblp", "livejournal_a"):
            assert name in out
        assert "paper: n=614,981" in out


# With the server's allocator setting: a sweep-sized block freed on the
# main thread (as after the first request), then one allocated and freed
# on each of two live request threads; prints the KiB the process kept.
_RETAINED_SCRIPT = """
import sys, threading
sys.path.insert(0, {src!r})
import numpy as np
from repro import cli

cli._one_malloc_arena()

def rss_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])

def sweep():
    block = np.ones(2 << 20)  # 16 MiB, an admission key block on physics1
    del block

def request_thread(swept):
    sweep()
    swept.set()
    done.wait()

sweep()
before = rss_kib()
done = threading.Event()
threads = []
for _ in range(2):  # one after the other, as requests on two connections
    swept = threading.Event()
    threads.append(threading.Thread(target=request_thread, args=(swept,)))
    threads[-1].start()
    swept.wait()
print(rss_kib() - before)
done.set()
for thread in threads:
    thread.join()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestServeAllocator:
    def _retained_kib(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = _RETAINED_SCRIPT.format(src=src)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        return int(done.stdout.strip())

    def test_request_threads_reuse_one_freed_block(self):
        # With an arena per thread glibc keeps both 16 MiB blocks, so the
        # server's peak depended on which thread had swept what.
        assert self._retained_kib() < 24 << 10
