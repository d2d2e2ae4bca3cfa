"""Sweep harness: batches of seeded instances across densities and solvers.

Within a cell (density, instance index) every algorithm solves the very
same instance with the very same run seed, so comparisons are paired. The
row seed is derived from the master seed and the cell coordinates (see
udcop.rng), which also makes the CSV output byte-reproducible. Cells are
independent, so a caller may farm them out in parallel; this sequential
implementation already keeps rows in deterministic cell order. A
`SweepConfig` checks itself when built, by the engine's and the generator's
own rules, so a bad input fails before the first cell. The CSV columns are
the fields of `MetricsRow`, in order, filled by name from the run's `Outcome`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from udcop.engine import (DEFAULT_ROUND_BUDGET, SolverParams, check_run_inputs,
                          format_float, run)
from udcop.generator import GenConfig, generate
from udcop.rng import check_seed, derive_seed
from udcop.solvers import SOLVER_KINDS

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
    """Sweep inputs, checked when built: a ValueError names the field."""

    densities: tuple[float, ...] = DEFAULT_DENSITIES
    instances_per_cell: int = 50
    n: int = 10
    d: int = 10
    kind: str = "udcop"
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    solver_params: SolverParams = DEFAULT_SWEEP_SOLVER_PARAMS
    master_seed: int = DEFAULT_MASTER_SEED
    round_budget: int = DEFAULT_ROUND_BUDGET

    def __post_init__(self):
        if not self.densities:
            raise ValueError("densities: must be non-empty")
        # a repeated density would pool two cells' runs into one summary row
        if len(set(self.densities)) < len(self.densities):
            raise ValueError(f"densities: each value may appear once, got {self.densities}")
        if not self.algorithms:
            raise ValueError("algorithms: must be non-empty")
        if self.instances_per_cell < 1:
            raise ValueError(f"instances_per_cell: must be ≥ 1, got {self.instances_per_cell}")
        unknown = [a for a in self.algorithms if a not in SOLVER_KINDS]
        if unknown:
            raise ValueError(f"algorithms: unknown algorithms {unknown}; "
                             f"expected {SOLVER_KINDS}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"algorithms: each name may appear once, got {self.algorithms}")
        for density in self.densities:
            self.gen_config(density)
        check_run_inputs(self.n, self.round_budget, self.solver_params.penalty)
        check_seed(self.master_seed, "master_seed")

    def gen_config(self, density: float, seed: int = 0) -> GenConfig:
        """The generator config of a sweep instance at `density`."""
        return GenConfig(n=self.n, d=self.d, density=density, seed=seed, kind=self.kind)


@dataclass(frozen=True)
class MetricsRow:
    """One sweep run; its fields are the CSV columns, in order."""

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


CSV_HEADER = ",".join(f.name for f in fields(MetricsRow))
_OUTCOME_COLUMNS = [f.name for f in fields(MetricsRow)][3:]  # after the cell coordinates


def run_sweep(cfg: SweepConfig) -> list[MetricsRow]:
    """Run every (density, instance, algorithm) cell; deterministic order."""
    rows: list[MetricsRow] = []
    for di, density in enumerate(cfg.densities):
        for k in range(cfg.instances_per_cell):
            seed = row_seed(cfg, di, k)
            inst = generate(cfg.gen_config(density, seed))
            for algo in cfg.algorithms:
                outcome, _ = run(inst, algo, cfg.solver_params, seed=seed,
                                 round_budget=cfg.round_budget, trace=False)
                rows.append(MetricsRow(algo, density, seed, *(
                    getattr(outcome, name) for name in _OUTCOME_COLUMNS)))
    return rows


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellSummary:
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
    cells: dict[tuple[str, float], CellSummary]   # by (algorithm, density)
    quality_by_algorithm: dict[str, float]         # pooled across densities

    def cell(self, algorithm: str, density: float) -> CellSummary:
        return self.cells[algorithm, density]


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
    # one pass; each group keeps the row order, so every sum adds as before
    groups: dict[tuple[str, float], list[MetricsRow]] = {}
    qualities: dict[str, list[float]] = {}
    for r in rows:
        groups.setdefault((r.algorithm, r.density), []).append(r)
        qualities.setdefault(r.algorithm, []).append(r.solution_quality_per_agent)
    cells = {}
    for (algo, density), sel in sorted(groups.items()):
        mp, hp = _mean_hw([r.privacy_loss_per_agent for r in sel])
        mq, hq = _mean_hw([r.solution_quality_per_agent for r in sel])
        mt, ht = _mean_hw([r.total_cost_per_agent for r in sel])
        cells[algo, density] = CellSummary(
            runs=len(sel),
            mean_privacy=mp, hw_privacy=hp,
            mean_quality=mq, hw_quality=hq,
            mean_total=mt, hw_total=ht,
            satisfied_rate=sum(r.satisfied for r in sel) / len(sel),
        )
    pooled = {algo: sum(qs) / len(qs) for algo, qs in sorted(qualities.items())}
    return SweepSummary(cells=cells, quality_by_algorithm=pooled)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _csv_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return format_float(x) if isinstance(x, float) else str(x)


def rows_to_csv(rows: Iterable[MetricsRow]) -> str:
    """CSV text with one column per `MetricsRow` field, in field order."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(",".join(_csv_cell(getattr(r, f.name)) for f in fields(r)) + "\n")
    return out.getvalue()


def summary_to_text(summary: SweepSummary) -> str:
    """Plain-text tables: privacy per agent, total cost per agent and the
    agreement rate by (algorithm, density), and pooled solution quality per
    algorithm."""
    algorithms = sorted({algo for algo, _ in summary.cells})
    densities = sorted({density for _, density in summary.cells})
    lines = []

    def table(title: str, pick) -> None:
        lines.append(title)
        lines.append("algorithm " + " ".join(f"{d:>8.2f}" for d in densities))
        for algo in algorithms:
            cells = (summary.cells.get((algo, d)) for d in densities)
            lines.append(f"{algo:<9} " + " ".join(
                f"{'-':>8}" if c is None else f"{pick(c):>8.2f}" for c in cells))
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
