"""Shared helpers: statistics, provenance, memory, scratch directories."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid

#: Thread settings every benchmark process runs with (set before numpy loads).
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Latency (ms) a failed operation is charged: beyond any tail.
FAILED_MS = 1.0e9

#: Blocks a traced run's window is cut into (see :func:`traced_block`).
TRACE_BLOCKS = 12


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """``(value, percentile, beyond)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it (the 11th-largest sample)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, 0
    index = n - TAIL_BEYOND - 1
    return float(ordered[index]), 100.0 * index / (n - 1), TAIL_BEYOND


def latency_summary(latencies_ms, failed: int) -> dict:
    """p50 and tail of one operation class; failures count as misses."""
    sample = list(latencies_ms) + [FAILED_MS] * failed
    value, pct, beyond = tail(sample)
    return {
        "count": len(sample),
        "p50_ms": median(sample),
        "tail_ms": value,
        "tail_percentile": round(pct, 2),
        "tail_beyond": beyond,
        "mean_ms": statistics.fmean(sample) if sample else 0.0,
    }


def traced_block(index: int) -> bool:
    """Whether block ``index`` of a traced run's window is traced.

    The window alternates untraced and traced blocks as U T T U U T T U
    ..., so a steady drift in host speed lands on both kinds alike."""
    return index % 4 in (1, 2)


def overhead_pct(plain_ms, traced_ms) -> float:
    """Tracing overhead: the traced blocks' per-operation median latency
    against the untraced blocks', in percent."""
    if not plain_ms or not traced_ms:
        return 0.0
    return 100.0 * (median(traced_ms) / median(plain_ms) - 1.0)


def peak_rss_mb(extra_pids=()) -> float:
    """Largest resident set (MB) of this process, its reaped children and
    any still-running ``extra_pids``."""
    kib = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    for pid in extra_pids:
        kib.append(vm_hwm_kib(pid))
    return max(kib) / 1024.0


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process in KiB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class HostSpeed:
    """Times a fixed kernel that does not use the library, to track host speed.

    On a shared host the same CPU-bound call runs up to ~1.8x slower in
    slow spells that last seconds to minutes, and a pure Python loop and
    a scipy SpMM slow down alike.  The kernel mixes both (a CSR times a
    64-column block, an elementwise reduction, a Python loop), so its time
    tracks the speed the library's CPU-bound work gets.  :meth:`factor` turns a
    duration measured next to some samples into the duration at the
    reference speed, where the kernel takes :data:`REFERENCE_MS`.
    """

    #: Kernel time (ms) at the reference speed: about its median on a
    #: 2-vCPU x86-64 cloud host, so scaled times stay near measured ones.
    REFERENCE_MS = 7.0

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse

        n, nnz = 4000, 40000
        rng = np.random.default_rng(20100101)
        rows, cols = rng.integers(n, size=nnz), rng.integers(n, size=nnz)
        self._matrix = scipy.sparse.csr_matrix((rng.random(nnz), (rows, cols)), shape=(n, n))
        self._block = rng.random((n, 64))

    def sample(self) -> float:
        """One timing of the kernel, in ms."""
        # Fresh copies each time, so no sample inherits one allocation's
        # placement in memory.
        matrix, block = self._matrix.copy(), self._block.copy()
        start = time.perf_counter()
        product = matrix @ block
        float(abs(product - block).sum())
        total = 0
        for i in range(10000):
            total += i * i
        return (time.perf_counter() - start) * 1e3

    #: A duration is scaled by the samples taken next to the operations up
    #: to ``NEAR`` either side of it.
    NEAR = 4

    @classmethod
    def factor(cls, samples_ms) -> float:
        """Reference-speed factor for durations measured next to ``samples_ms``."""
        return cls.REFERENCE_MS / median(samples_ms)

    @classmethod
    def at_reference(cls, durations, sample_at, samples_ms) -> list:
        """Each duration at the reference speed; ``sample_at[i]`` indexes
        the sample taken next to duration ``i``."""
        return [
            d * cls.factor(samples_ms[max(0, at - cls.NEAR): at + cls.NEAR + 1])
            for d, at in zip(durations, sample_at)
        ]


def stop_helper_processes() -> None:
    """Stop the helper process the library's shared memory starts, and wait.

    Publishing a shared-memory segment starts multiprocessing's resource
    tracker, a child that otherwise outlives this process (orphaned, or a
    zombie nobody reaps).  Leftover segments are unlinked first, since an
    unlink after the stop would start a new tracker.
    """
    parallel = sys.modules.get("repro.core.parallel")
    if parallel is not None:
        parallel.cleanup_published_segments()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, then waits for it


class Scratch:
    """A per-run directory under ``.perfbench/`` in the checkout."""

    def __init__(self, root: str, workload: str) -> None:
        self.root = root
        self.path = os.path.join(
            root, ".perfbench", "runs", f"{workload}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        os.makedirs(self.path)
        self._fresh = 0

    def fresh_dir(self, prefix: str) -> str:
        """A new empty directory (e.g. a cold ``REPRO_CACHE_DIR``)."""
        self._fresh += 1
        path = os.path.join(self.path, f"{prefix}-{self._fresh}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        if not entry.startswith("index"):
            continue
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _blas_info(np) -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy: no dict mode
        return {}


def machine_fingerprint() -> dict:
    """``repro.obs.manifest.environment_fingerprint()`` plus what it lacks:
    CPU model, L2/L3 sizes, the BLAS build and the BLAS thread settings."""
    import numpy as np
    from repro.obs.manifest import environment_fingerprint

    record = environment_fingerprint()
    record.update(
        cpu_model=_cpu_model(),
        caches=_cache_sizes(),
        blas=_blas_info(np),
        blas_env={key: os.environ.get(key) for key in BLAS_ENV},
    )
    return record


def source_revision(root: str) -> dict:
    """Git revision when the checkout is a repository, plus a digest of
    ``src/`` that identifies the code either way."""
    rev = None
    try:
        # The ceiling stops git from reporting an enclosing repository's
        # revision when the checkout itself is not a repository.
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if done.returncode == 0:
            rev = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def provenance(root: str, workload: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "revision": source_revision(root),
        "machine": machine_fingerprint(),
        "argv": sys.argv,
        "started_unix": time.time(),
    }
