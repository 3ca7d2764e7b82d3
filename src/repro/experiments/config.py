"""Experiment configuration: one switch between *fast* and *full* runs.

Every experiment runner takes an :class:`ExperimentConfig`.  ``fast``
(the default, used by the pytest-benchmark suite) shrinks source samples
and walk-length grids so the whole suite finishes in minutes; ``full``
matches the paper's parameters (1000 sampled sources, brute force over
all sources on the physics graphs, walk lengths to 500).  The *series
shapes* are the same in both modes — fast mode only adds sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.runtime import DEFAULT_POLICY, ExecutionPolicy
from ..errors import ConfigurationError

__all__ = ["ExperimentConfig", "FAST", "FULL", "validate_workers"]


def validate_workers(workers: Optional[int]) -> Optional[int]:
    """Parse-time validation of a ``workers`` knob; returns it unchanged.

    Accepts ``None`` (serial), ``-1`` (every usable core) and positive
    integers.  Rejects ``0``, other negatives, booleans and non-integers with
    :class:`~repro.errors.ConfigurationError` — *before* any sweep runs,
    so a typo'd ``--workers`` fails in milliseconds instead of silently
    degrading a multi-hour run.  (The runtime-level
    :func:`repro.core.parallel.resolve_workers` keeps its lenient
    ``0 -> serial`` contract for programmatic callers; this gate is the
    strict front door for configuration surfaces.)
    """
    if workers is None:
        return None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigurationError(
            f"workers must be an integer, got {workers!r} ({type(workers).__name__})"
        )
    if workers == 0:
        raise ConfigurationError(
            "workers=0 is ambiguous; use workers=None (or omit the flag) for serial"
        )
    if workers < -1:
        raise ConfigurationError(f"workers must be >= -1, got {workers}")
    return workers


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment runners.

    Attributes
    ----------
    mode:
        ``"fast"`` or ``"full"`` (affects the derived properties below).
    seed:
        Master seed; every runner derives independent streams from it.
    epsilon_grid:
        The ε values at which bound curves are reported (Figures 1-2).
    short_walks / long_walks:
        Figure 3 / Figure 4 walk-length checkpoints (paper values).
    telemetry:
        When true, the process-wide :data:`repro.obs.OBS` registry is
        enabled before the runner executes (via
        :func:`repro.experiments.harness.run_with_manifest` or the CLI),
        so hot paths record metrics and spans.  Telemetry is provably
        inert — flipping this never changes any numeric output.
    policy:
        Optional :class:`~repro.core.runtime.ExecutionPolicy` bundling
        *all* execution knobs (workers, block size, retries, shard
        timeout, checkpoint directory, memory budget); runners
        read it via :attr:`execution_policy`, and it runs on the fork +
        shared-memory process pool when ``workers`` exceeds one.  Its
        ``workers`` is validated at construction time by
        :func:`validate_workers`.  Set via the ``--workers``/
        ``--block-size``/``--checkpoint-dir``/``--max-retries``/
        ``--shard-timeout`` CLI flags.
    """

    mode: str = "fast"
    seed: int = 20101103  # IMC'10 started November 1-3, 2010
    #: Restrict dataset-driven runners (table1, figures) to these
    #: registry names; ``None`` = each runner's default roster.  The only
    #: way the paper-scale ``huge`` tier ever enters a run — default
    #: rosters exclude it.  Set via the ``--datasets`` CLI flag.
    datasets: Optional[Tuple[str, ...]] = None
    epsilon_grid: Tuple[float, ...] = (0.25, 0.1, 0.05, 0.01, 1e-3, 1e-4)
    short_walks: Tuple[int, ...] = (1, 5, 10, 20, 40)
    long_walks: Tuple[int, ...] = (80, 100, 200, 300, 400, 500)
    telemetry: bool = False
    policy: Optional[ExecutionPolicy] = None

    def __post_init__(self):
        if self.mode not in ("fast", "full"):
            raise ConfigurationError("mode must be 'fast' or 'full'")
        if self.datasets is not None:
            names = tuple(self.datasets)
            if not names or not all(isinstance(n, str) for n in names):
                raise ConfigurationError(
                    "datasets must be a non-empty sequence of registry names"
                )
            object.__setattr__(self, "datasets", names)
        if self.policy is not None:
            if not isinstance(self.policy, ExecutionPolicy):
                raise ConfigurationError(
                    f"policy must be an ExecutionPolicy, got {type(self.policy).__name__}"
                )
            validate_workers(self.policy.workers)

    @property
    def execution_policy(self) -> ExecutionPolicy:
        """The :class:`~repro.core.runtime.ExecutionPolicy` runners forward.

        The explicit ``policy=``, or :data:`DEFAULT_POLICY` (serial,
        auto-sized chunks) when none was given.
        """
        return self.policy or DEFAULT_POLICY

    @property
    def is_fast(self) -> bool:
        return self.mode == "fast"

    @property
    def sampled_sources(self) -> int:
        """Sources for the sampling measurement (paper: 1000)."""
        return 120 if self.is_fast else 1000

    @property
    def brute_force_sources(self):
        """Sources for the "every possible source" experiments
        (Figures 3-5); ``None`` means all nodes."""
        return 250 if self.is_fast else None

    @property
    def max_walk(self) -> int:
        """Longest walk evolved in sampling measurements."""
        return 300 if self.is_fast else 800

    @property
    def figure7_sizes(self) -> Tuple[int, ...]:
        """BFS sample sizes standing in for the paper's 10K/100K/1000K."""
        return (800, 2500, 8000) if self.is_fast else (1000, 3200, 10000)

    @property
    def figure8_walks(self) -> Tuple[int, ...]:
        """Route lengths swept in the SybilLimit admission experiment."""
        if self.is_fast:
            return (5, 10, 20, 40, 80, 160, 320)
        return (5, 10, 15, 20, 30, 40, 60, 80, 120, 160, 240, 320, 480)

    @property
    def adversarial_sample_size(self) -> Optional[int]:
        """Honest-region BFS sample for the adversarial sweep
        (``None`` would use the full stand-in graph)."""
        return 400 if self.is_fast else 2500

    @property
    def adversarial_strategies(self) -> Tuple[str, ...]:
        """Attacker strategies swept by ``adversarial-sweep``.

        Fast mode picks one representative per attachment policy plus
        the cluster-bomb topology; full mode sweeps the whole registry.
        """
        if self.is_fast:
            return ("random", "targeted", "seam", "cluster-bomb")
        from ..sybil.attacks import available_attack_strategies

        return available_attack_strategies()

    @property
    def adversarial_sybil_sizes(self) -> Tuple[int, ...]:
        """Sybil-region sizes swept by ``adversarial-sweep``."""
        return (60,) if self.is_fast else (200, 500)

    @property
    def adversarial_budgets(self) -> Tuple[int, ...]:
        """Attack-edge budgets g (0 = the no-attacker baseline)."""
        return (0, 2, 6, 12, 24) if self.is_fast else (0, 4, 8, 16, 32, 64)

    @property
    def trend_windows(self) -> int:
        """Windows sampled per temporal dataset in fig3-over-time."""
        return 6 if self.is_fast else 12

    @property
    def trend_sources(self) -> int:
        """Fixed sources measured on every window of a trend sweep."""
        return 40 if self.is_fast else 200

    @property
    def trim_walks(self) -> Tuple[int, ...]:
        """Walk checkpoints for the Figure 6 average-mixing panel
        (the paper's w = 80..500 grid, truncated in fast mode)."""
        return (80, 100, 200, 300) if self.is_fast else (80, 100, 200, 300, 400, 500)


FAST = ExperimentConfig(mode="fast")
FULL = ExperimentConfig(mode="full")
