"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import udcop  # noqa: E402
from udcop import engine, experiments, solvers  # noqa: E402
from udcop.generator import GenConfig, generate  # noqa: E402

from perfbench import checks, run as bench, tracer as tracing, workloads  # noqa: E402


def _bindings():
    """Every name bound in a loaded udcop module, plus the traced method."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "udcop" or name.startswith("udcop."):
            for key, value in vars(module).items():
                out[(name, key)] = value
    out[("RevealLedger", "record")] = engine.RevealLedger.__dict__["record"]
    return out


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def test_install_rebinds_imported_names_and_restore_puts_originals_back():
    before = _bindings()
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        assert engine.build_agent_context is solvers.build_agent_context
        assert engine.build_agent_context.__wrapped__ is before[
            ("udcop.solvers", "build_agent_context")]
        assert experiments.run is engine.run is udcop.run
        assert engine.run.__wrapped__ is before[("udcop.engine", "run")]
        assert engine.RevealLedger.record.__wrapped__ is before[("RevealLedger", "record")]
        for target in tracing.TARGETS:
            owner, attr, _ = tracing._resolve(target)
            assert hasattr(getattr(owner, attr), "__wrapped__"), target
    finally:
        restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_self_times_partition_the_root_spans():
    inst = generate(GenConfig(n=5, d=5, density=0.4, seed=3))
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        for algo in ("dsau", "dbou"):
            engine.run(inst, algo, seed=1, round_budget=20)
    finally:
        restore()
    stats = tr.stats()
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(tr.root_seconds())
    assert stats["engine.run:dsau"]["calls"] == stats["engine.run:dbou"]["calls"] == 1
    assert stats["solvers.build_agent_context"]["calls"] == 2 * inst.n
    assert len(tr.runs) == 2 and all(s["self_s"] >= 0 for s in stats.values())


@pytest.mark.parametrize("workload", ["sweep", "scale", "cli"])
def test_traced_run_accounts_for_the_wall_time(workload):
    proc = _run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.unaccounted_share"]["value"] < 0.10


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run_bench("--workload", "scale", "--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"] and metric["value"] > 0
    assert "env nproc=" in proc.stdout and "sha256 trace-example dsau" in proc.stdout


def test_corrupt_instance_file_raises_error_rate():
    wl = workloads.make("cli", seed=5)
    try:
        wl.setup()
        wl.ops = wl.ops[:2]
        (wl.work / "instance-udcop.json").write_text("{ not json", encoding="utf-8")
        passes = bench.measure(wl, seconds=0.1)
    finally:
        workloads.cleanup(wl)
    failed = sum(len(p.failures) for p in passes)
    attempted = sum(p.attempted for p in passes)
    assert 0 < failed / attempted < 1


def test_broken_outputs_fail_their_checks():
    inst = generate(GenConfig(n=4, d=4, density=0.5, seed=2))
    outcome, traces = engine.run(inst, "dsau", seed=1, round_budget=10)
    assert checks.outcome_failures(outcome, inst.domains, 10) == []
    entries = list(checks.trace_entries(traces))
    assert checks.ledger_failures(entries, inst.n, outcome.rounds,
                                  outcome.per_agent_privacy) == []
    bad = [(r, a, c, cum - 1 if r == outcome.rounds else cum) for r, a, c, cum in entries]
    assert checks.ledger_failures(bad, inst.n, outcome.rounds, outcome.per_agent_privacy)
    row = experiments.MetricsRow("dsa", 0.3, 1, 1.0, 2.0, 3.5, 0, 9, True)
    assert len(checks.row_failures(row, 100)) == 2


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench("--workload", "cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
