"""Sweep harness: batches of seeded instances across densities and solvers.

Within a cell (density, instance index) every algorithm solves the very
same instance with the very same run seed, so comparisons are paired. The
row seed is derived from the master seed and the cell coordinates (see
udcop.rng), which also makes the CSV output byte-reproducible. Cells are
independent, so a caller may farm them out in parallel; this sequential
implementation already keeps rows in deterministic cell order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from udcop.engine import DEFAULT_ROUND_BUDGET, SolverParams, format_float, run
from udcop.generator import GenConfig, generate
from udcop.rng import derive_seed

CSV_HEADER = ("algorithm,density,seed,privacy_loss_per_agent,"
              "solution_quality_per_agent,total_cost_per_agent,rounds,"
              "messages,satisfied")

DEFAULT_DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_ALGORITHMS = ("dbo", "dbou", "dsa", "dsau")

# Calibrated benchmark defaults. The disagreement penalty is deliberately on
# the same scale as the unary costs (0..9): with a dominating penalty the
# stochastic baselines herd on conflict counts alone and their privacy loss
# goes flat in density. The high activation probability keeps the search
# moving until a genuine local equilibrium. See README, experimental notes.
DEFAULT_SWEEP_SOLVER_PARAMS = SolverParams(p=0.95, penalty=8.5)
DEFAULT_MASTER_SEED = 3


@dataclass(frozen=True)
class SweepConfig:
    densities: tuple[float, ...] = DEFAULT_DENSITIES
    instances_per_cell: int = 50
    n: int = 10
    d: int = 10
    kind: str = "udcop"
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    solver_params: SolverParams = field(default_factory=lambda: DEFAULT_SWEEP_SOLVER_PARAMS)
    master_seed: int = DEFAULT_MASTER_SEED
    round_budget: int = DEFAULT_ROUND_BUDGET


@dataclass(frozen=True)
class MetricsRow:
    algorithm: str
    density: float
    seed: int
    privacy_loss_per_agent: float
    solution_quality_per_agent: float
    total_cost_per_agent: float
    rounds: int
    messages: int
    satisfied: bool


def row_seed(cfg: SweepConfig, density_index: int, instance_index: int) -> int:
    """Published seed scheme for cell (density_index, instance_index)."""
    return derive_seed(cfg.master_seed, density_index, instance_index)


def run_sweep(cfg: SweepConfig) -> list[MetricsRow]:
    """Run every (density, instance, algorithm) cell; deterministic order."""
    if not cfg.densities or not cfg.algorithms:
        raise ValueError("densities and algorithms must be non-empty")
    if cfg.instances_per_cell < 1:
        raise ValueError("instances_per_cell ≥ 1 required")
    from udcop.solvers import SOLVER_KINDS
    unknown = [a for a in cfg.algorithms if a not in SOLVER_KINDS]
    if unknown:
        raise ValueError(f"unknown algorithms {unknown}; expected {SOLVER_KINDS}")
    rows: list[MetricsRow] = []
    for di, density in enumerate(cfg.densities):
        for k in range(cfg.instances_per_cell):
            seed = row_seed(cfg, di, k)
            inst = generate(GenConfig(n=cfg.n, d=cfg.d, density=density,
                                      seed=seed, kind=cfg.kind))
            for algo in cfg.algorithms:
                try:
                    outcome, _ = run(inst, algo, cfg.solver_params, seed=seed,
                                     round_budget=cfg.round_budget)
                except Exception as e:
                    raise RuntimeError(
                        f"cell (density={density}, instance={k}, algo={algo}) "
                        f"failed: {e}") from e
                rows.append(MetricsRow(
                    algorithm=algo,
                    density=density,
                    seed=seed,
                    privacy_loss_per_agent=outcome.privacy_loss_per_agent,
                    solution_quality_per_agent=outcome.solution_quality_per_agent,
                    total_cost_per_agent=outcome.total_cost_per_agent,
                    rounds=outcome.rounds,
                    messages=outcome.messages,
                    satisfied=outcome.satisfied,
                ))
    return rows


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellSummary:
    algorithm: str
    density: float
    runs: int
    mean_privacy: float
    hw_privacy: float
    mean_quality: float
    hw_quality: float
    mean_total: float
    hw_total: float
    satisfied_rate: float


@dataclass(frozen=True)
class SweepSummary:
    cells: tuple[CellSummary, ...]
    quality_by_algorithm: dict[str, float]   # pooled across densities

    def cell(self, algorithm: str, density: float) -> CellSummary:
        for c in self.cells:
            if c.algorithm == algorithm and c.density == density:
                return c
        raise KeyError((algorithm, density))


def _mean_hw(xs: Sequence[float]) -> tuple[float, float]:
    k = len(xs)
    mean = sum(xs) / k
    if k < 2:
        return mean, 0.0
    # Imported on first use, so the commands other than `sweep` do not pay
    # for loading scipy; stdtrit is Student's t quantile, and loading it
    # takes a third of the time and half the memory of scipy's stats module.
    from scipy.special import stdtrit

    var = sum((x - mean) ** 2 for x in xs) / (k - 1)
    hw = float(stdtrit(k - 1, 0.975)) * (var ** 0.5) / (k ** 0.5)
    return mean, hw


def aggregate(rows: Sequence[MetricsRow]) -> SweepSummary:
    """Per-(algorithm, density) means with 95% confidence half-widths, plus
    the pooled mean solution quality per algorithm."""
    if not rows:
        raise ValueError("no rows to aggregate")
    algorithms = sorted({r.algorithm for r in rows})
    densities = sorted({r.density for r in rows})
    cells = []
    for algo in algorithms:
        for density in densities:
            sel = [r for r in rows if r.algorithm == algo and r.density == density]
            if not sel:
                continue
            mp, hp = _mean_hw([r.privacy_loss_per_agent for r in sel])
            mq, hq = _mean_hw([r.solution_quality_per_agent for r in sel])
            mt, ht = _mean_hw([r.total_cost_per_agent for r in sel])
            cells.append(CellSummary(
                algorithm=algo, density=density, runs=len(sel),
                mean_privacy=mp, hw_privacy=hp,
                mean_quality=mq, hw_quality=hq,
                mean_total=mt, hw_total=ht,
                satisfied_rate=sum(r.satisfied for r in sel) / len(sel),
            ))
    pooled = {
        algo: sum(r.solution_quality_per_agent for r in rows if r.algorithm == algo)
        / max(1, sum(1 for r in rows if r.algorithm == algo))
        for algo in algorithms
    }
    return SweepSummary(cells=tuple(cells), quality_by_algorithm=pooled)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def rows_to_csv(rows: Iterable[MetricsRow]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(",".join((
            r.algorithm,
            format_float(r.density),
            str(r.seed),
            format_float(r.privacy_loss_per_agent),
            format_float(r.solution_quality_per_agent),
            format_float(r.total_cost_per_agent),
            str(r.rounds),
            str(r.messages),
            "true" if r.satisfied else "false",
        )) + "\n")
    return out.getvalue()


def summary_to_text(summary: SweepSummary) -> str:
    """Plain-text tables: privacy per agent, total cost per agent and the
    agreement rate by (algorithm, density), and pooled solution quality per
    algorithm."""
    algorithms = sorted({c.algorithm for c in summary.cells})
    densities = sorted({c.density for c in summary.cells})
    lines = []

    def table(title: str, pick) -> None:
        lines.append(title)
        header = "algorithm " + " ".join(f"{d:>8.2f}" for d in densities)
        lines.append(header)
        for algo in algorithms:
            cells = []
            for d in densities:
                try:
                    cells.append(f"{pick(summary.cell(algo, d)):>8.2f}")
                except KeyError:
                    cells.append(f"{'-':>8}")
            lines.append(f"{algo:<9} " + " ".join(cells))
        lines.append("")

    table("Privacy loss per agent (mean by density)", lambda c: c.mean_privacy)
    table("Total cost per agent (mean by density)", lambda c: c.mean_total)
    table("Agreement rate (share of runs that agree, by density)",
          lambda c: c.satisfied_rate)
    lines.append("Average solution quality per agent")
    for algo in algorithms:
        lines.append(f"{algo:<9} {summary.quality_by_algorithm[algo]:>8.2f}")
    lines.append("")
    return "\n".join(lines)


def write_outputs(rows: Sequence[MetricsRow], out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    summary_path = out / "summary.txt"
    csv_path.write_text(rows_to_csv(rows), encoding="utf-8")
    summary_path.write_text(summary_to_text(aggregate(rows)), encoding="utf-8")
    return csv_path, summary_path
