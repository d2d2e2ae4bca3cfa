import json
import os
import subprocess
import sys
from pathlib import Path

from inspect import signature

import pytest

from udcop import engine, experiments
from udcop.cli import _build_parser, main
from udcop.engine import DEFAULT_ROUND_BUDGET, SolverParams, run
from udcop.experiments import SweepConfig
from udcop.generator import GenConfig
from udcop.model import instance_to_json, load_instance
from udcop.presets import three_student_meeting
from udcop.solvers import SOLVER_KINDS


def _src_env() -> dict:
    """The environment of a child Python that imports udcop from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(["gen", "--agents", "6", "--values", "5", "--density", "0.4",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    inst = load_instance(out)
    assert inst.n == 6 and inst.d == 5
    assert "wrote" in capsys.readouterr().out


def test_solve_prints_outcome(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "5", "--values", "4", "--density", "0.5",
          "--seed", "3", "--out", str(inst_path)])
    trace_path = tmp_path / "trace.tsv"
    code = main(["solve", "--in", str(inst_path), "--algo", "dsau",
                 "--seed", "2", "--trace", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "privacy_loss_per_agent" in out
    assert trace_path.read_text().startswith("round\tagent")


def test_solve_prints_the_same_with_and_without_trace(tmp_path, capsys):
    # without --trace the run is untraced, and a stuck breakout run is not
    # simulated to its budget: the printed outcome must not show it
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "10", "--values", "10", "--density", "0.3",
          "--seed", "3", "--out", str(inst_path)])
    capsys.readouterr()
    for algo in SOLVER_KINDS:
        solve = ["solve", "--in", str(inst_path), "--algo", algo, "--seed", "5"]
        assert main(solve) == 0
        untraced = capsys.readouterr().out
        assert main(solve + ["--trace", str(tmp_path / f"{algo}.tsv")]) == 0
        assert capsys.readouterr().out == untraced, algo


def test_solve_missing_file_is_exit_2(tmp_path, capsys):
    code = main(["solve", "--in", str(tmp_path / "missing.json"),
                 "--algo", "dsa"])
    assert code == 2
    assert "missing.json" in capsys.readouterr().err


def test_invalid_instance_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "udcop", "n": 0, "d": 1, "domains": [],
                               "unary": [], "privacy": [],
                               "global": {"type": "all_equal", "penalty": 1}}))
    code = main(["solve", "--in", str(bad), "--algo", "dsa"])
    assert code == 2
    assert "n ≥ 1" in capsys.readouterr().err


def test_malformed_domain_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "udcop", "n": 2, "d": 2,
                               "domains": [5, [1, 2]], "unary": [{}, {}],
                               "privacy": [{}, {}],
                               "global": {"type": "all_equal", "penalty": 1}}))
    code = main(["solve", "--in", str(bad), "--algo", "dsa"])
    assert code == 2
    assert "domains[0]" in capsys.readouterr().err


def test_bad_penalty_is_exit_2(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "3", "--values", "3", "--density", "0.5",
          "--seed", "1", "--out", str(inst_path)])
    code = main(["solve", "--in", str(inst_path), "--algo", "dsa", "--penalty", "nan"])
    assert code == 2
    assert "penalty: must be a finite number > 0, got nan" in capsys.readouterr().err


def test_negative_solve_seed_is_exit_2(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "3", "--values", "3", "--density", "0.5",
          "--seed", "1", "--out", str(inst_path)])
    code = main(["solve", "--in", str(inst_path), "--algo", "dsa", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == \
        "udcop: error: seed: must be a 64-bit non-negative integer, got -1\n"


def test_instance_path_that_is_a_directory_is_exit_2(tmp_path, capsys):
    code = main(["solve", "--in", str(tmp_path), "--algo", "dsa"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"udcop: error: {tmp_path}: ")


def test_unwritable_trace_path_is_exit_2(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "3", "--values", "3", "--density", "0.5",
          "--seed", "1", "--out", str(inst_path)])
    trace = tmp_path / "missing" / "t.tsv"
    code = main(["solve", "--in", str(inst_path), "--algo", "dsa", "--trace", str(trace)])
    assert code == 2
    assert capsys.readouterr().err == f"udcop: error: {trace}: No such file or directory\n"


def test_unwritable_trace_path_fails_before_the_run(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "3", "--values", "3", "--density", "0.5",
          "--seed", "1", "--out", str(inst_path)])
    capsys.readouterr()

    def no_run(*args, **kwargs):
        raise AssertionError("engine.run called")

    monkeypatch.setattr(engine, "run", no_run)
    trace = tmp_path / "missing" / "t.tsv"
    code = main(["solve", "--in", str(inst_path), "--algo", "dsa", "--trace", str(trace)])
    assert code == 2
    assert capsys.readouterr().err == f"udcop: error: {trace}: No such file or directory\n"


@pytest.mark.parametrize("flags, message", [
    (["--rounds", "0"], "round_budget: must be ≥ 1, got 0"),
    (["--seed", "-1"], "seed: must be a 64-bit non-negative integer, got -1"),
], ids=["rounds-0", "seed-negative"])
def test_rejected_solve_keeps_an_existing_trace(flags, message, tmp_path, capsys):
    # the trace records what a run revealed; a run that never happened
    # must not wipe the record of one that did
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "3", "--values", "3", "--density", "0.5",
          "--seed", "1", "--out", str(inst_path)])
    trace = tmp_path / "t.tsv"
    assert main(["solve", "--in", str(inst_path), "--algo", "dsau",
                 "--trace", str(trace)]) == 0
    before = trace.read_bytes()
    assert before.startswith(b"round\tagent")
    capsys.readouterr()
    code = main(["solve", "--in", str(inst_path), "--algo", "dsau", *flags,
                 "--trace", str(trace)])
    assert code == 2
    assert capsys.readouterr().err == f"udcop: error: {message}\n"
    assert trace.read_bytes() == before


@pytest.mark.parametrize("flags, message", [
    (["--rounds", "0"], "round_budget: must be ≥ 1, got 0"),
    (["--seed", "-1"], "seed: must be a 64-bit non-negative integer, got -1"),
], ids=["rounds-0", "seed-negative"])
def test_rejected_solve_leaves_no_new_trace(flags, message, tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "3", "--values", "3", "--density", "0.5",
          "--seed", "1", "--out", str(inst_path)])
    capsys.readouterr()
    trace = tmp_path / "new.tsv"
    code = main(["solve", "--in", str(inst_path), "--algo", "dsau", *flags,
                 "--trace", str(trace)])
    assert code == 2
    assert capsys.readouterr().err == f"udcop: error: {message}\n"
    assert not trace.exists()


def test_rejected_input_through_the_module_entry_point(tmp_path):
    out = tmp_path / "x.json"
    proc = subprocess.run([sys.executable, "-m", "udcop.cli", "gen", "--agents", "0",
                           "--values", "3", "--density", "0.5", "--seed", "1",
                           "--out", str(out)],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "udcop: error: n: must be ≥ 1, got 0\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_bad_p_fails_before_the_first_sweep_cell(tmp_path, capsys, monkeypatch):
    def no_sweep(cfg):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(experiments, "run_sweep", no_sweep)
    code = main(["sweep", "--p", "3", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "udcop: error: p: must lie in [0, 1], got 3.0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--rounds", "0"], "round_budget: must be ≥ 1, got 0"),
    (["--penalty", "5e-324"],
     "penalty: the per-pair share W/(n-1) of the disagreement penalty W is 0 at n=10"),
    (["--densities", "0.1,0.2,0.3,0.4,5"], "density: must lie in [0, 1], got 5.0"),
    (["--densities", "0.3,0.3"], "densities: each value may appear once, got (0.3, 0.3)"),
    (["--agents", "0"], "n: must be ≥ 1, got 0"),
    (["--algos", "dsa,dsa"], "algorithms: each name may appear once, got ('dsa', 'dsa')"),
    (["--seed", "-1"], "master_seed: must be a 64-bit non-negative integer, got -1"),
    (["--densities", "abc"],
     "densities: expected numbers separated by commas, got 'abc'"),
    (["--densities", "0.1,"],
     "densities: expected numbers separated by commas, got '0.1,'"),
], ids=["rounds-0", "penalty-share-0", "density-5", "repeated-density", "agents-0",
        "repeated-algo", "seed-negative", "densities-not-numbers",
        "densities-trailing-comma"])
def test_bad_sweep_input_fails_before_the_first_cell(flags, message, tmp_path, capsys,
                                                     monkeypatch):
    def no_generate(cfg):
        raise AssertionError("experiments.generate called")

    monkeypatch.setattr(experiments, "generate", no_generate)
    code = main(["sweep", *flags, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"udcop: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_dcop_privacy_of_wrong_length_is_exit_2(tmp_path, capsys):
    doc = json.loads(instance_to_json(three_student_meeting("dcop")))
    doc["privacy"] = [{}]
    path = tmp_path / "dcop.json"
    path.write_text(json.dumps(doc))
    for argv in (["solve", "--in", str(path), "--algo", "dsa"], ["oracle", "--in", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"udcop: error: {path}: invalid instance: "
            "privacy: must be empty for kind=dcop (3 empty tables or none)\n")


def test_unwritable_gen_output_is_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = main(["gen", "--agents", "3", "--values", "3", "--density", "0.5",
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"udcop: error: {out}: No such file or directory\n"


def test_sweep_out_dir_that_is_a_file_is_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["sweep", "--densities", "0.2", "--instances", "1", "--algos", "dsa",
                 "--agents", "3", "--values", "3", "--rounds", "5",
                 "--out-dir", str(taken)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"udcop: error: {taken}: ")


def test_parser_defaults_read_the_dataclass_defaults():
    parser = _build_parser()
    gen = parser.parse_args(["gen", "--agents", "1", "--values", "1", "--density", "0",
                             "--seed", "0", "--out", "x"])
    assert (gen.cost_max, gen.privacy_max) == (GenConfig.cost_max, GenConfig.privacy_max)
    solve = parser.parse_args(["solve", "--in", "x", "--algo", "dsa"])
    params = SolverParams()
    assert (solve.rounds, solve.p, solve.divisor, solve.penalty, solve.pure_alg2) == \
        (DEFAULT_ROUND_BUDGET, params.p, params.divisor_mode, params.penalty,
         params.pure_alg2)
    sweep = parser.parse_args(["sweep", "--out-dir", "x"])
    cfg = SweepConfig()
    assert tuple(float(x) for x in sweep.densities.split(",")) == cfg.densities
    assert tuple(sweep.algos.split(",")) == cfg.algorithms
    assert (sweep.instances, sweep.agents, sweep.values, sweep.seed, sweep.rounds) == \
        (cfg.instances_per_cell, cfg.n, cfg.d, cfg.master_seed, cfg.round_budget)
    assert (sweep.p, sweep.penalty) == (cfg.solver_params.p, cfg.solver_params.penalty)
    assert cfg.round_budget == DEFAULT_ROUND_BUDGET
    assert signature(run).parameters["round_budget"].default == DEFAULT_ROUND_BUDGET


def test_usage_error_is_exit_1(capsys):
    assert main(["solve", "--algo", "dsa"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_oracle_command(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "4", "--values", "3", "--density", "0.3",
          "--seed", "5", "--out", str(inst_path)])
    capsys.readouterr()
    assert main(["oracle", "--in", str(inst_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("assignment:") and "cost:" in out


def test_oracle_pays_a_finite_penalty_when_cheaper(tmp_path, capsys):
    # too many assignments to enumerate; agreeing costs 5, while each
    # agent on its cheapest value pays only the penalty 1
    inst_path = tmp_path / "inst.json"
    main(["gen", "--agents", "10", "--values", "10", "--density", "0.3",
          "--seed", "7", "--out", str(inst_path)])
    doc = json.loads(inst_path.read_text())
    doc["global"]["penalty"] = 1
    inst_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["oracle", "--in", str(inst_path)]) == 0
    out = capsys.readouterr().out
    inst = load_instance(inst_path)
    cheapest = [min(sorted(dom), key=lambda v, i=i: inst.unary_cost(i, v))
                for i, dom in enumerate(inst.domains)]
    assert all(inst.unary_cost(i, v) == 0.0 for i, v in enumerate(cheapest))
    assert out == f"assignment: {' '.join(map(str, cheapest))}\ncost: 1\n"


def test_oracle_without_finite_assignment_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "apart.json"
    bad.write_text(json.dumps({"kind": "dcop", "n": 2, "d": 2,
                               "domains": [[1], [2]], "unary": [{}, {}],
                               "global": {"type": "all_equal", "penalty": "inf"}}))
    assert main(["oracle", "--in", str(bad)]) == 2
    assert "every assignment costs inf" in capsys.readouterr().err


def test_trace_example_dsau(capsys):
    assert main(["trace-example", "dsau"]) == 0
    out = capsys.readouterr().out
    for token in ("150", "220", "240", "250", "265", "225"):
        assert token in out
    assert "final assignment: (1, 1, 1)" in out
    assert "150, 220, 130" in out


def test_trace_example_molex(capsys):
    assert main(["trace-example", "molex"]) == 0
    out = capsys.readouterr().out
    assert "achieved values: (2, 3, 3)" in out
    assert "cumulative privacy: 100, 110, 10" in out
    assert "extra privacy loss" in out and ": 10" in out


def test_sweep_command(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--densities", "0.2,0.4", "--instances", "2",
                 "--algos", "dsa,dsau", "--agents", "5", "--values", "4",
                 "--seed", "11", "--rounds", "20", "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "sweep.csv").exists()
    out = capsys.readouterr().out
    assert "Average solution quality" in out
    assert out.endswith((out_dir / "summary.txt").read_text())     # printed as written


def test_import_does_not_load_scipy_stats():
    # only the sweep's confidence intervals need scipy, and then only
    # scipy.special, not the much larger scipy.stats
    code = ("import sys, udcop.cli\n"
            "from udcop.experiments import MetricsRow, aggregate\n"
            "print('scipy' in sys.modules)\n"
            "aggregate([MetricsRow('dsa', 0.1, s, s, 1.0, s + 1.0, 4, 5, True)"
            " for s in (1, 2)])\n"
            "print('scipy.stats' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
