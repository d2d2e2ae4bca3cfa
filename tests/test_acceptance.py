"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import functools
import time

import numpy as np
import pytest
from scipy import stats

from reference_engine import dense_weights
from udcop import solvers
from udcop.engine import SolverParams, format_trace, run
from udcop.experiments import SweepConfig, aggregate, rows_to_csv, run_sweep
from udcop.generator import GenConfig, generate
from udcop.model import solution_cost
from udcop.oracle import exact_optimum_dms, exact_optimum_enum
from udcop.presets import scripted_meeting_params, three_student_meeting
from udcop.rng import round_half_up


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def stochastic_pair_sweep():
    cfg = SweepConfig(algorithms=("dsa", "dsau"))
    start = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return cfg, rows, elapsed


@criterion("1 worked-example trace")
def test_c1_worked_example_trace():
    start = time.perf_counter()
    outcome, traces = run(three_student_meeting(), "dsau",
                          scripted_meeting_params(), seed=0, round_budget=10)
    elapsed = time.perf_counter() - start
    first = traces[0]
    assert first.est_current == pytest.approx((150.0, 220.0, 240.0), abs=1e-9)
    assert first.est_next == pytest.approx((250.0, 265.0, 225.0), abs=1e-9)
    assert first.actions == ("keep", "keep", "change")
    assert outcome.assignment == (1, 1, 1)
    assert outcome.per_agent_utilities == pytest.approx((150.0, 220.0, 130.0), abs=1e-9)
    assert elapsed < 1.0


@criterion("2 estimate values")
def test_c2_estimate_values():
    inst = three_student_meeting()
    cases = [
        (0, {1}, 150.0),
        (0, {1, 2}, 250.0),
        (1, {1}, 220.0),
        (1, {1, 3}, 265.0),
        (2, {3}, 240.0),
        (2, {3, 1}, 225.0),
    ]
    for agent, revealed, expected in cases:
        ctx = solvers.build_agent_context(inst, agent)
        mask = np.isin(np.arange(1, inst.d + 1), sorted(revealed))
        got = solvers.estimate_cost(ctx.unary, ctx.privacy, mask,
                                    len(ctx.domain_values), divisor_mode="revealed")
        assert got == pytest.approx(expected, abs=1e-9), (agent, revealed)


@criterion("3 lexicographic trace")
def test_c3_lex_comparison_trace():
    start = time.perf_counter()
    outcome, _ = run(three_student_meeting(), "molex",
                     scripted_meeting_params(), seed=0, round_budget=2)
    value_based, _ = run(three_student_meeting(), "dsau",
                         scripted_meeting_params(), seed=0, round_budget=2)
    elapsed = time.perf_counter() - start
    assert outcome.assignment == (2, 3, 3)
    assert outcome.per_agent_privacy == pytest.approx((100.0, 110.0, 10.0), abs=1e-9)
    extra = outcome.per_agent_privacy[1] - value_based.per_agent_privacy[1]
    assert extra == pytest.approx(10.0, abs=1e-9)
    assert elapsed < 1.0


@criterion("4 decomposition identity")
def test_c4_total_is_privacy_plus_quality(stochastic_pair_sweep):
    _, rows, _ = stochastic_pair_sweep
    satisfied = [r for r in rows if r.satisfied]
    assert satisfied
    for r in satisfied:
        assert abs(r.total_cost_per_agent
                   - (r.privacy_loss_per_agent + r.solution_quality_per_agent)) <= 1e-9


@criterion("5 qualitative sweep relationships")
def test_c5_sweep_gates(stochastic_pair_sweep):
    cfg, rows, elapsed = stochastic_pair_sweep
    assert cfg.n == 10 and cfg.d == 10 and cfg.instances_per_cell == 50
    assert cfg.densities == (0.1, 0.2, 0.3, 0.4, 0.5)
    summary = aggregate(rows)
    dsa = {d: summary.cell("dsa", d) for d in cfg.densities}
    dsau = {d: summary.cell("dsau", d) for d in cfg.densities}

    # (a) privacy ratios
    for d in (0.2, 0.3, 0.4, 0.5):
        assert dsau[d].mean_privacy <= 0.7 * dsa[d].mean_privacy, d
    assert dsau[0.5].mean_privacy <= 0.5 * dsa[0.5].mean_privacy

    # (b) baseline privacy loss non-decreasing in density
    profile = [dsa[d].mean_privacy for d in cfg.densities]
    assert all(a <= b for a, b in zip(profile, profile[1:])), profile

    # (c) utilitarian variant wins on total cost everywhere
    for d in cfg.densities:
        assert dsau[d].mean_total < dsa[d].mean_total, d

    # (d) solution quality within 10% relative
    qa = summary.quality_by_algorithm
    gap = abs(qa["dsa"] - qa["dsau"]) / max(qa["dsa"], qa["dsau"])
    assert gap <= 0.10, qa

    assert elapsed < 60.0


@criterion("6 breakout properties")
def test_c6_breakout_properties(monkeypatch):
    captured = []
    real = solvers.dbo_send_improve

    def spy(state, tables, values, revealed, gate_estimates=False):
        n, d = tables.eval_unary.shape
        snapshot = (tables, values - 1, dense_weights(state.weights, n, d))
        res = real(state, tables, values, revealed, gate_estimates)
        captured.append((snapshot, res.candidate.copy()))
        return res

    monkeypatch.setattr(solvers, "dbo_send_improve", spy)

    for k in range(20):
        inst = generate(GenConfig(n=5, d=4, density=0.5, seed=7_000 + k))
        for algo in ("dbo", "dbou"):
            captured.clear()
            _, traces = run(inst, algo, SolverParams(), seed=k, round_budget=40)
            assert captured

            # at most one mover per round on a complete graph
            for t in traces:
                assert sum(a == "change" for a in t.actions) <= 1

            # offered candidate equals the exhaustive-scan argmin, on the
            # weights rebuilt densely: weights[i, j, v, w] is agent i's
            # weight for the pair (self=v, neighbor j=w)
            previous = None
            for (tables, codes, weights), candidates in captured:
                for i in range(inst.n):
                    evals = []
                    for code in range(inst.d):
                        total = tables.eval_unary[i, code]
                        for j, vj in enumerate(codes):
                            if j != i and vj != code:
                                total += tables.w_unit * weights[i, j, code, vj]
                        evals.append(total)
                    best = min(range(inst.d), key=lambda c: (evals[c], c)) + 1
                    assert candidates[i] == best

                # weights start at 1 and never decrease
                assert (weights >= 1).all()
                if previous is not None:
                    assert (weights >= previous).all()
                previous = weights


@criterion("7 oracle equivalence")
def test_c7_oracle_equivalence():
    densities = (0.0, 0.2, 0.4, 0.6, 0.8)
    for k in range(100):
        inst = generate(GenConfig(n=5, d=4, density=densities[k % 5],
                                  seed=90_000 + k))
        enum = exact_optimum_enum(inst)       # 4^5 = 1024 assignments
        dms = exact_optimum_dms(inst)
        assert enum.cost == pytest.approx(dms.cost, abs=1e-9)
        for algo in ("dsa", "dsau", "dbo", "dbou", "molex"):
            outcome, _ = run(inst, algo, SolverParams(), seed=k, round_budget=60)
            if outcome.satisfied:
                assert solution_cost(inst, outcome.assignment) >= enum.cost - 1e-12


@criterion("8 determinism")
def test_c8_byte_identical_reruns():
    inst = generate(GenConfig(n=10, d=10, density=0.3, seed=314))
    for algo in ("dsa", "dsau", "dbo", "dbou", "molex"):
        first = run(inst, algo, SolverParams(), seed=99, round_budget=50)
        second = run(inst, algo, SolverParams(), seed=99, round_budget=50)
        assert format_trace(first[1]).encode() == format_trace(second[1]).encode()

    cfg = SweepConfig(densities=(0.2, 0.4), instances_per_cell=5,
                      algorithms=("dsa", "dsau"), master_seed=77)
    assert rows_to_csv(run_sweep(cfg)).encode() == rows_to_csv(run_sweep(cfg)).encode()


@criterion("9 generator statistics")
def test_c9_generator_statistics():
    unary_counts = np.zeros(10)
    privacy_counts = np.zeros(10)
    for i in range(100):
        inst = generate(GenConfig(n=10, d=10, density=1.0, seed=50_000 + i))
        for table in inst.unary:
            for cost in table.values():
                unary_counts[int(cost)] += 1
        for table in inst.privacy:
            for cost in table.values():
                privacy_counts[int(cost)] += 1
    assert unary_counts.sum() == 10_000 and privacy_counts.sum() == 10_000
    assert stats.chisquare(unary_counts).pvalue > 0.01
    assert stats.chisquare(privacy_counts).pvalue > 0.01

    for density in (0.0, 0.1, 0.15, 0.25, 0.3, 0.5, 0.77, 1.0):
        inst = generate(GenConfig(n=4, d=10, density=density, seed=9))
        expected = round_half_up(density * 10)
        assert all(len(t) == expected for t in inst.unary), density
