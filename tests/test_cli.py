import json

from udcop.cli import main
from udcop.model import load_instance


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
    assert (out_dir / "summary.txt").exists()
    assert "Average solution quality" in capsys.readouterr().out
