"""Figure 8 with attackers: adversarial admission sweeps over six defenses.

The historical Figure 8 path (:mod:`repro.experiments.admission`) is the
paper's *no-attacker baseline* — it measures only the honest-rejection
cost of long routes.  This module adds the other half of the Section 5
threat model: planted sybil regions (:mod:`repro.sybil.attacks`) swept
over attack-edge budget ``g`` x sybil-region size x attacker strategy x
defense, reporting both sides of the trade-off —

* **false-admit** — fraction of sybil identities a verifier admits,
* **honest-reject** — fraction of honest suspects it turns away,

plus the security-bound comparison: admitted sybils against the
``g * w`` (O(log n) per attack edge) guarantee SybilGuard/SybilLimit
advertise.

Every cell of the sweep is an independent deterministic computation, so
the sweep runs through :func:`repro.core.runtime.run_sharded` with
per-cell checkpoint shards: a killed sweep resumes mid-grid, results
are bit-identical at any worker count, and the checkpoint fingerprint
covers every input that affects the numbers (honest graph, strategy
definitions, budgets, sizes, defense knobs, seed) but no execution knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.runtime import ExecutionPolicy, run_sharded, sweep_fingerprint
from ..datasets import load_cached
from ..errors import ConfigurationError
from ..obs import OBS
from ..sampling import bfs_sample
from ..sybil import (
    AdmissionMetrics,
    SumUpParams,
    SybilGuard,
    SybilInfer,
    SybilInferParams,
    SybilLimit,
    SybilLimitParams,
    build_whanau,
    evaluate_admission,
    recommended_route_length,
    sybil_bound_per_attack_edge,
    sybilrank,
)
from ..sybil.attacks import AttackStrategy, build_attack_scenario, get_attack_strategy
from ..sybil.scenario import SybilScenario
from ..sybil.sumup import sumup_admission
from .config import ExperimentConfig, FAST
from .harness import FigureResult, Series

__all__ = [
    "ADVERSARIAL_DEFENSES",
    "AdversarialKnobs",
    "AdversarialSweepResult",
    "adversarial_sweep",
    "default_adversarial_knobs",
    "run_adversarial_sweep",
    "run_defense_admission",
]

#: The six implemented defenses, in sweep (and display) order.
ADVERSARIAL_DEFENSES: Tuple[str, ...] = (
    "sybilguard",
    "sybillimit",
    "sybilinfer",
    "sumup",
    "whanau",
    "sybilrank",
)

#: Columns of one sweep cell: honest total/accepted, sybil total/accepted.
_CELL_COLUMNS = 4


@dataclass(frozen=True)
class AdversarialKnobs:
    """Per-defense protocol knobs shared by every cell of one sweep.

    One knob set for the whole grid keeps cells comparable: the only
    things varying across a frontier are the attacker parameters.
    """

    route_length: int
    sybillimit_instances: Optional[int] = None
    infer_samples: int = 80
    infer_burn_in: int = 40
    infer_steps: int = 2
    sumup_c_max: int = 10
    whanau_walk_length: int = 8

    def __post_init__(self):
        if self.route_length < 1:
            raise ConfigurationError("route_length must be >= 1")
        if self.sybillimit_instances is not None and self.sybillimit_instances < 1:
            raise ConfigurationError("sybillimit_instances must be >= 1")
        for name in ("infer_samples", "infer_burn_in", "infer_steps",
                     "sumup_c_max", "whanau_walk_length"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")

    def fingerprint_parts(self) -> Tuple:
        return (
            int(self.route_length),
            -1 if self.sybillimit_instances is None else int(self.sybillimit_instances),
            int(self.infer_samples),
            int(self.infer_burn_in),
            int(self.infer_steps),
            int(self.sumup_c_max),
            int(self.whanau_walk_length),
        )


def default_adversarial_knobs(num_honest: int, *, fast: bool = True) -> AdversarialKnobs:
    """Scale-aware defaults: route lengths from the SybilGuard analysis,
    clamped so fast-mode grids stay interactive."""
    w = recommended_route_length(num_honest)
    if fast:
        return AdversarialKnobs(
            route_length=int(np.clip(w, 4, 20)),
            sybillimit_instances=32,
            infer_samples=80,
            infer_burn_in=40,
            infer_steps=2,
            sumup_c_max=max(2, num_honest // 10),
            whanau_walk_length=8,
        )
    return AdversarialKnobs(
        route_length=int(np.clip(w, 4, 64)),
        sybillimit_instances=None,
        infer_samples=300,
        infer_burn_in=150,
        infer_steps=5,
        sumup_c_max=max(2, num_honest // 10),
        whanau_walk_length=12,
    )


def _derive_seed(*parts) -> int:
    """An order-independent 63-bit seed from sweep coordinates.

    Cells draw their randomness from their *coordinates*, never from a
    shared stream, so results are independent of execution order,
    sharding and worker count."""
    return int(sweep_fingerprint("adversarial-seed", *parts)[:15], 16)


def run_defense_admission(
    defense: str,
    scenario: SybilScenario,
    suspects: np.ndarray,
    *,
    seed: int,
    knobs: AdversarialKnobs,
    policy: Optional[ExecutionPolicy] = None,
    verifier: int = 0,
) -> np.ndarray:
    """One verifier's boolean verdict per suspect under one defense.

    The admission rule per defense:

    * ``sybilguard`` / ``sybillimit`` — the protocols' own verdicts.
    * ``sybilinfer`` — membership in the sampled honest set.
    * ``sumup`` — the suspect's vote is fully collected.
    * ``whanau`` — the verifier can resolve the suspect's record key.
    * ``sybilrank`` — ranked within the top ``num_honest`` trust scores.
    """
    suspects = np.asarray(suspects, dtype=np.int64)
    if defense == "sybilguard":
        protocol = SybilGuard(scenario, knobs.route_length, seed=seed)
        return protocol.run(verifier, suspects, policy=policy).accepted
    if defense == "sybillimit":
        params = SybilLimitParams(
            route_length=knobs.route_length,
            num_instances=knobs.sybillimit_instances,
        )
        protocol = SybilLimit(scenario, params, seed=seed)
        return protocol.run(verifier, suspects, seed=seed, policy=policy).accepted
    if defense == "sybilinfer":
        params = SybilInferParams(
            num_samples=knobs.infer_samples,
            burn_in=knobs.infer_burn_in,
            steps_per_sample=knobs.infer_steps,
        )
        result = SybilInfer(scenario, params, seed=seed).run(verifier)
        return result.honest_mask()[suspects]
    if defense == "sumup":
        params = SumUpParams(c_max=knobs.sumup_c_max)
        return sumup_admission(scenario, verifier, suspects, params)
    if defense == "whanau":
        tables = build_whanau(scenario.graph, knobs.whanau_walk_length, seed=seed)
        return np.array(
            [tables.lookup(verifier, float(tables.keys[s])) for s in suspects],
            dtype=bool,
        )
    if defense == "sybilrank":
        result = sybilrank(scenario, [verifier], policy=policy)
        top = result.accept_top(scenario.num_honest)
        return np.isin(suspects, top)
    raise ConfigurationError(
        f"unknown defense {defense!r}; available: {', '.join(ADVERSARIAL_DEFENSES)}"
    )


@dataclass
class AdversarialSweepResult:
    """The full sweep grid plus frontier/bound accessors.

    ``counts[s, z, g, d]`` holds ``(honest_total, honest_accepted,
    sybil_total, sybil_accepted)`` for strategy ``s``, sybil size ``z``,
    budget ``g``, defense ``d``.
    """

    strategies: Tuple[str, ...]
    sybil_sizes: Tuple[int, ...]
    attack_budgets: Tuple[int, ...]
    defenses: Tuple[str, ...]
    route_length: int
    num_honest: int
    counts: np.ndarray

    def metrics(
        self, strategy: str, size: int, budget: int, defense: str
    ) -> AdmissionMetrics:
        """The admission statistics of one cell."""
        cell = self.counts[
            self.strategies.index(strategy),
            self.sybil_sizes.index(size),
            self.attack_budgets.index(budget),
            self.defenses.index(defense),
        ]
        return AdmissionMetrics(
            honest_total=int(cell[0]),
            honest_accepted=int(cell[1]),
            sybil_total=int(cell[2]),
            sybil_accepted=int(cell[3]),
        )

    def frontier(
        self, defense: str, strategy: str, size: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(budgets, sybil_admit_rate, honest_reject_rate)`` along g."""
        size = self.sybil_sizes[0] if size is None else size
        admit, reject = [], []
        for g in self.attack_budgets:
            m = self.metrics(strategy, size, g, defense)
            admit.append(m.sybil_acceptance_rate)
            reject.append(m.honest_rejection_rate)
        return (
            np.asarray(self.attack_budgets, dtype=np.int64),
            np.asarray(admit, dtype=np.float64),
            np.asarray(reject, dtype=np.float64),
        )

    def bound_comparison(self) -> List[Dict[str, float]]:
        """Admitted sybils vs the ``g * w`` security bound, per cell.

        Rows cover every positive-budget cell; ``within_bound`` says
        whether the defense kept its advertised O(w)-per-attack-edge
        guarantee on that attack.
        """
        per_edge = sybil_bound_per_attack_edge(self.route_length)
        rows: List[Dict[str, float]] = []
        for strategy in self.strategies:
            for size in self.sybil_sizes:
                for g in self.attack_budgets:
                    if g <= 0:
                        continue
                    for defense in self.defenses:
                        m = self.metrics(strategy, size, g, defense)
                        bound = per_edge * g
                        rows.append(
                            {
                                "strategy": strategy,
                                "size": int(size),
                                "budget": int(g),
                                "defense": defense,
                                "sybil_accepted": int(m.sybil_accepted),
                                "bound": float(bound),
                                "within_bound": bool(m.sybil_accepted <= bound),
                            }
                        )
        return rows


def _honest_suspects(
    num_honest: int, verifier: int, max_suspects: Optional[int], seed: int
) -> np.ndarray:
    """The fixed honest suspect sample shared by every cell."""
    pool = np.setdiff1d(np.arange(num_honest, dtype=np.int64), [int(verifier)])
    if max_suspects is not None and pool.size > max_suspects:
        rng = np.random.default_rng(_derive_seed(seed, "honest-suspects"))
        pool = np.sort(rng.choice(pool, size=max_suspects, replace=False))
    return pool


def adversarial_sweep(
    honest,
    *,
    strategies: Sequence[Union[str, AttackStrategy]],
    sybil_sizes: Sequence[int],
    attack_budgets: Sequence[int],
    defenses: Sequence[str] = ADVERSARIAL_DEFENSES,
    seed: int = 0,
    knobs: Optional[AdversarialKnobs] = None,
    policy: Optional[ExecutionPolicy] = None,
    max_suspects: Optional[int] = 400,
    verifier: int = 0,
) -> AdversarialSweepResult:
    """Sweep attacker strategy x sybil size x budget x defense.

    Each grid cell rebuilds its scenario from coordinates (one seed per
    (strategy, size), so budgets nest along g and every defense sees the
    identical attack), runs one defense, and reduces to four admission
    counts.  Cells run in order, one shard each, through
    :func:`~repro.core.runtime.run_sharded`: with
    ``policy.checkpoint_dir`` set, each finished cell persists and an
    interrupted sweep resumes without recomputation.  Each cell's
    defense fans its own sweeps out under ``policy``; the worker count
    never changes the numbers.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    resolved: List[AttackStrategy] = [
        get_attack_strategy(s) if isinstance(s, str) else s for s in strategies
    ]
    if not resolved:
        raise ConfigurationError("need at least one attack strategy")
    sybil_sizes = tuple(int(z) for z in sybil_sizes)
    attack_budgets = tuple(int(g) for g in attack_budgets)
    defenses = tuple(defenses)
    if not sybil_sizes or not attack_budgets or not defenses:
        raise ConfigurationError("need at least one size, budget and defense")
    unknown = [d for d in defenses if d not in ADVERSARIAL_DEFENSES]
    if unknown:
        raise ConfigurationError(
            f"unknown defenses {unknown!r}; available: {', '.join(ADVERSARIAL_DEFENSES)}"
        )
    if verifier != 0:
        # The verifier must be an honest node whose id survives the
        # honest-region embedding; 0 always does.
        raise ConfigurationError("the adversarial sweep verifies from node 0")
    if knobs is None:
        knobs = default_adversarial_knobs(honest.num_nodes)

    suspects_honest = _honest_suspects(honest.num_nodes, verifier, max_suspects, seed)
    cells = [
        (si, zi, gi, di)
        for si in range(len(resolved))
        for zi in range(len(sybil_sizes))
        for gi in range(len(attack_budgets))
        for di in range(len(defenses))
    ]

    def _run_cell(index: int) -> np.ndarray:
        si, zi, gi, di = cells[index]
        strategy = resolved[si]
        size = sybil_sizes[zi]
        g = attack_budgets[gi]
        defense = defenses[di]
        scenario = build_attack_scenario(
            honest,
            strategy,
            num_sybil=size,
            num_attack_edges=g,
            seed=_derive_seed(seed, "scenario", strategy.name, size),
        )
        suspects = np.concatenate([suspects_honest, scenario.sybil_nodes()])
        # g=0 cells all see the identical no-attack scenario; deriving
        # their defense seed without the attacker coordinates makes the
        # baseline column strategy-independent, not just statistically so.
        defense_coords = (
            ("baseline", g, defense) if g == 0 else (strategy.name, size, g, defense)
        )
        accepted = run_defense_admission(
            defense,
            scenario,
            suspects,
            seed=_derive_seed(seed, "defense", *defense_coords),
            knobs=knobs,
            policy=policy,
            verifier=verifier,
        )
        m = evaluate_admission(scenario, suspects, accepted)
        if OBS.enabled:
            OBS.add("sybil.attack.cells")
            OBS.add("sybil.attack.suspects_judged", int(suspects.size))
        return np.array(
            [m.honest_total, m.honest_accepted, m.sybil_total, m.sybil_accepted],
            dtype=np.float64,
        )

    def _serial_run(lo: int, hi: int) -> np.ndarray:
        return np.stack([_run_cell(i) for i in range(lo, hi)], axis=0)

    fingerprint = sweep_fingerprint(
        "adversarial",
        honest.indptr,
        honest.indices,
        [
            (s.name, s.attachment, s.region,
             -1 if s.branching is None else int(s.branching),
             int(s.degree), int(s.cluster_size))
            for s in resolved
        ],
        sybil_sizes,
        attack_budgets,
        defenses,
        int(seed),
        -1 if max_suspects is None else int(max_suspects),
        knobs.fingerprint_parts(),
    )
    with OBS.span(
        "sybil.attack.sweep",
        cells=len(cells),
        strategies=len(resolved),
        defenses=len(defenses),
    ):
        shards = run_sharded(
            kind="adversarial",
            total=len(cells),
            policy=policy,
            workers=1,
            make_task=None,
            serial_run=_serial_run,
            fingerprint=fingerprint,
            shards=len(cells),
        )
    flat = np.concatenate(shards, axis=0)
    counts = flat.reshape(
        len(resolved), len(sybil_sizes), len(attack_budgets), len(defenses),
        _CELL_COLUMNS,
    )
    return AdversarialSweepResult(
        strategies=tuple(s.name for s in resolved),
        sybil_sizes=sybil_sizes,
        attack_budgets=attack_budgets,
        defenses=defenses,
        route_length=knobs.route_length,
        num_honest=int(honest.num_nodes),
        counts=counts,
    )


def run_adversarial_sweep(
    config: ExperimentConfig = FAST,
    *,
    dataset: str = "physics1",
    strategies: Optional[Sequence[str]] = None,
    sybil_sizes: Optional[Sequence[int]] = None,
    attack_budgets: Optional[Sequence[int]] = None,
    defenses: Sequence[str] = ADVERSARIAL_DEFENSES,
    sample_size: Optional[int] = None,
    max_suspects: Optional[int] = None,
) -> FigureResult:
    """The fig8-with-attackers experiment (CLI: ``adversarial-sweep``).

    One panel per defense; per attacker strategy, two series over the
    attack-edge budget g — admitted sybils (%) and rejected honest
    suspects (%).  g=0 is the no-attacker baseline of the historical
    Figure 8.  The notes carry the ``g * w`` security-bound verdicts.
    """
    graph = load_cached(dataset)
    if sample_size is None:
        sample_size = config.adversarial_sample_size
    if sample_size is not None and sample_size < graph.num_nodes:
        graph, _node_map = bfs_sample(graph, sample_size, seed=config.seed)
    if strategies is None:
        strategies = config.adversarial_strategies
    if sybil_sizes is None:
        sybil_sizes = config.adversarial_sybil_sizes
    if attack_budgets is None:
        attack_budgets = config.adversarial_budgets
    if max_suspects is None:
        max_suspects = 200 if config.is_fast else 1000
    knobs = default_adversarial_knobs(graph.num_nodes, fast=config.is_fast)
    result = adversarial_sweep(
        graph,
        strategies=strategies,
        sybil_sizes=list(sybil_sizes),
        attack_budgets=list(attack_budgets),
        defenses=defenses,
        seed=config.seed,
        knobs=knobs,
        policy=config.execution_policy,
        max_suspects=max_suspects,
    )

    size = result.sybil_sizes[0]
    figure = FigureResult(
        title=(
            f"Adversarial sweep: admission under attack on {dataset} "
            f"(n={result.num_honest}, sybil region {size}, w={result.route_length})"
        ),
        xlabel="attack-edge budget g (g=0 is the no-attacker baseline)",
        ylabel="rate (%)",
    )
    for defense in result.defenses:
        series: List[Series] = []
        for strategy in result.strategies:
            budgets, admit, reject = result.frontier(defense, strategy, size)
            # There are no sybils to admit at g=0; only the honest-reject
            # series carries the no-attacker baseline point.
            attacked = budgets > 0
            series.append(
                Series(
                    label=f"{strategy} sybil-admit",
                    x=budgets[attacked],
                    y=100.0 * admit[attacked],
                )
            )
            series.append(
                Series(label=f"{strategy} honest-reject", x=budgets, y=100.0 * reject)
            )
        figure.panels[defense] = series

    rows = result.bound_comparison()
    breaches = [r for r in rows if not r["within_bound"]]
    note_lines = [
        "Security bound: accepted sybils <= g * w "
        f"(w={result.route_length}; SybilLimit's t*g guarantee).",
        f"Cells with g>0: {len(rows)}; bound breaches: {len(breaches)}.",
    ]
    for row in breaches[:6]:
        note_lines.append(
            "  breach: {defense} vs {strategy} (size {size}, g={budget}): "
            "{sybil_accepted} sybils > bound {bound:.0f}".format(**row)
        )
    figure.notes = "\n".join(note_lines)
    return figure
