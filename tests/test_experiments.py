import random
import re
import statistics
from dataclasses import fields

import pytest

from udcop import solvers
from udcop.engine import Outcome, SolverParams, run
from udcop.experiments import (CSV_HEADER, MetricsRow, SweepConfig, aggregate,
                               row_seed, rows_to_csv, run_sweep,
                               summary_to_text, write_outputs)
from udcop.generator import GenConfig, generate


@pytest.fixture(scope="module")
def small_cfg():
    return SweepConfig(densities=(0.2, 0.5), instances_per_cell=3,
                       n=6, d=5, algorithms=("dsa", "dsau"),
                       master_seed=99, round_budget=30)


@pytest.fixture(scope="module")
def small_rows(small_cfg):
    return run_sweep(small_cfg)


def test_row_count(small_cfg, small_rows):
    assert len(small_rows) == 2 * 3 * 2


def test_rows_in_cell_order(small_cfg, small_rows):
    # density, then instance, then algorithm; each instance's rows carry its
    # published seed, and the seeds differ between instances
    expected = [(d, row_seed(small_cfg, di, k), a)
                for di, d in enumerate(small_cfg.densities) for k in range(3)
                for a in small_cfg.algorithms]
    assert len({seed for _, seed, _ in expected}) == 2 * 3
    assert [(r.density, r.seed, r.algorithm) for r in small_rows] == expected


def test_sweep_is_deterministic(small_cfg, small_rows):
    again = run_sweep(small_cfg)
    assert rows_to_csv(again) == rows_to_csv(small_rows)


def test_algorithms_share_instances(small_cfg, small_rows):
    # rows of the same cell carry the same seed, and that seed reproduces
    # the very instance both algorithms solved
    by_cell = {}
    for r in small_rows:
        by_cell.setdefault((r.density, r.seed), []).append(r.algorithm)
    for (density, seed), algos in by_cell.items():
        assert sorted(algos) == ["dsa", "dsau"]
        inst = generate(GenConfig(n=6, d=5, density=density, seed=seed))
        assert inst == generate(GenConfig(n=6, d=5, density=density, seed=seed))


def test_row_seed_scheme_is_stable(small_cfg):
    assert row_seed(small_cfg, 0, 0) == row_seed(small_cfg, 0, 0)
    assert row_seed(small_cfg, 0, 1) != row_seed(small_cfg, 1, 0)


def test_row_identity(small_rows):
    for r in small_rows:
        assert r.total_cost_per_agent == pytest.approx(
            r.privacy_loss_per_agent + r.solution_quality_per_agent, abs=1e-9)


def test_csv_header_and_shape(small_rows):
    text = rows_to_csv(small_rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(small_rows)
    assert all(len(line.split(",")) == 9 for line in lines[1:])


def test_aggregate_single_row():
    row = MetricsRow("dsa", 0.3, 7, 2.0, 1.0, 3.0, 5, 40, True)
    summary = aggregate([row])
    cell = summary.cell("dsa", 0.3)
    assert cell.mean_privacy == 2.0 and cell.hw_privacy == 0.0
    assert summary.quality_by_algorithm == {"dsa": 1.0}


def test_half_width_is_the_95_percent_t_interval():
    from scipy import stats
    rows = [MetricsRow("dsa", 0.3, k, x, 1.0, x + 1.0, 5, 40, True)
            for k, x in enumerate((1.0, 2.0, 4.0, 8.5))]
    cell = aggregate(rows).cell("dsa", 0.3)
    sd = statistics.stdev([1.0, 2.0, 4.0, 8.5])
    assert cell.hw_privacy == pytest.approx(stats.t.ppf(0.975, 3) * sd / 2.0, rel=1e-12)


def test_aggregate_mean_identity(small_rows):
    summary = aggregate(small_rows)
    for cell in summary.cells.values():
        assert cell.mean_total == pytest.approx(
            cell.mean_privacy + cell.mean_quality, abs=1e-9)


def test_aggregate_adds_each_group_in_row_order(small_rows):
    # in any row order, a cell's mean and the pooled quality add their
    # floats in the order the rows come, as a filter over the rows would
    rows = list(small_rows)
    random.Random(5).shuffle(rows)
    summary = aggregate(rows)
    assert list(summary.cells) == sorted(summary.cells)
    for (algo, density), cell in summary.cells.items():
        sel = [r for r in rows if (r.algorithm, r.density) == (algo, density)]
        assert cell.runs == len(sel)
        assert cell.mean_privacy == sum(r.privacy_loss_per_agent for r in sel) / len(sel)
        assert cell is summary.cell(algo, density)
    for algo, quality in summary.quality_by_algorithm.items():
        qs = [r.solution_quality_per_agent for r in rows if r.algorithm == algo]
        assert quality == sum(qs) / len(qs)


def test_summary_marks_a_missing_cell(small_rows):
    rows = [r for r in small_rows if (r.algorithm, r.density) != ("dsa", 0.5)]
    privacy = summary_to_text(aggregate(rows)).split("\n\n")[0].splitlines()
    assert privacy[2].split()[0] == "dsa" and privacy[2].split()[-1] == "-"


def test_csv_columns_are_the_row_fields():
    row = MetricsRow("dsa", 0.3, 7, 2.0, 1.0, 3.0, 5, 40, False)
    assert CSV_HEADER == ("algorithm,density,seed,privacy_loss_per_agent,"
                          "solution_quality_per_agent,total_cost_per_agent,rounds,"
                          "messages,satisfied")
    assert rows_to_csv([row]).splitlines()[1] == "dsa,0.3,7,2,1,3,5,40,false"
    # run_sweep copies every column after the cell coordinates by name from
    # the run's Outcome, so renaming either side must fail here first
    outcome_fields = {f.name for f in fields(Outcome)}
    assert [f.name for f in fields(MetricsRow)[3:]
            if f.name not in outcome_fields] == []


def test_quality_table_has_one_entry_per_algorithm(small_rows):
    summary = aggregate(small_rows)
    assert sorted(summary.quality_by_algorithm) == ["dsa", "dsau"]


def test_summary_text_mentions_everything(small_rows):
    text = summary_to_text(aggregate(small_rows))
    assert "Privacy loss per agent" in text
    assert "Total cost per agent" in text
    assert "Average solution quality per agent" in text
    assert "dsau" in text
    # the agreement table shows each cell's satisfied rate
    summary = aggregate(small_rows)
    agreement = text.split("Agreement rate")[1].split("\n\n")[0].splitlines()
    for algo in ("dsa", "dsau"):
        row = next(line for line in agreement if line.startswith(algo + " "))
        assert row.split()[1:] == [f"{summary.cell(algo, d).satisfied_rate:.2f}"
                                   for d in (0.2, 0.5)]


def test_write_outputs_round_trip(tmp_path, small_rows):
    csv_path, summary_path = write_outputs(small_rows, tmp_path / "out")
    assert csv_path.read_text().startswith(CSV_HEADER)
    assert summary_path.read_text().strip()


def test_bad_configs_rejected():
    with pytest.raises(ValueError, match="^densities: must be non-empty$"):
        SweepConfig(densities=())
    with pytest.raises(ValueError, match="^algorithms: must be non-empty$"):
        SweepConfig(algorithms=())
    with pytest.raises(ValueError, match="^instances_per_cell: must be ≥ 1, got 0$"):
        SweepConfig(instances_per_cell=0)
    with pytest.raises(ValueError, match="^algorithms: unknown algorithms"):
        SweepConfig(densities=(0.1,), instances_per_cell=1, algorithms=("nope",))


@pytest.mark.parametrize("fields, message", [
    (dict(algorithms=("dsa", "dsa")),
     "algorithms: each name may appear once, got ('dsa', 'dsa')"),
    (dict(round_budget=0), "round_budget: must be ≥ 1, got 0"),
    (dict(solver_params=SolverParams(penalty=5e-324)),
     "penalty: the per-pair share W/(n-1) of the disagreement penalty W is 0 at n=10"),
    (dict(densities=(0.1, 0.2, 0.3, 0.4, 5.0)), "density: must lie in [0, 1], got 5.0"),
    (dict(densities=(0.3, 0.3)), "densities: each value may appear once, got (0.3, 0.3)"),
    (dict(n=0), "n: must be ≥ 1, got 0"),
    (dict(d=0), "d: must be ≥ 1, got 0"),
    (dict(kind="dcop"), "kind: must be 'udcop' or 'udcoppc', got 'dcop'"),
], ids=["repeated-algorithm", "rounds-0", "share-0", "density-5", "repeated-density",
        "n-0", "d-0", "kind-dcop"])
def test_config_checks_itself(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepConfig(**fields)


def test_a_single_agent_has_no_penalty_share_to_check():
    # with one agent there is no pair to share W, as in engine.run
    SweepConfig(n=1, solver_params=SolverParams(penalty=5e-324))


def test_rounds_an_untraced_dbou_run_skips_are_idle(monkeypatch):
    # The sweep runs untraced, so a stuck breakout run is not simulated to
    # its budget. The traced run of the same inputs shows what was skipped.
    cfg = SweepConfig(densities=(0.3,), instances_per_cell=10)
    steps = []          # one entry per simulated breakout round
    stuck_at = []       # rounds simulated when breakout_stuck first held

    def counted(fn):
        def wrapper(*args, **kwargs):
            steps.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    def spy(*args, **kwargs):
        held = stuck(*args, **kwargs)
        if held:
            stuck_at.append(len(steps))
        return held

    stuck = solvers.breakout_stuck
    monkeypatch.setattr(solvers, "breakout_stuck", spy)
    monkeypatch.setattr(solvers, "dbo_send_improve", counted(solvers.dbo_send_improve))
    monkeypatch.setattr(solvers, "dbo_resolve", counted(solvers.dbo_resolve))
    for k in range(cfg.instances_per_cell):
        seed = row_seed(cfg, 0, k)
        inst = generate(cfg.gen_config(0.3, seed))
        steps.clear()
        stuck_at.clear()
        outcome, _ = run(inst, "dbou", cfg.solver_params, seed=seed,
                         round_budget=cfg.round_budget, trace=False)
        assert len(stuck_at) == 1, k
        traced, traces = run(inst, "dbou", cfg.solver_params, seed=seed,
                             round_budget=cfg.round_budget)
        assert traced == outcome
        assert len(traces) == cfg.round_budget
        for t in traces[stuck_at[0]:]:
            assert "change" not in t.actions and not any(c > 0 for c in t.charged), k
