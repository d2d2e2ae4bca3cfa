"""Byte-level regression pins for the sweep CSV and the solver traces.

A refactor that claims identical outputs must keep these hashes. A change
that alters outputs on purpose updates them and declares the behaviour
change in CHANGES.md.
"""

import hashlib

import pytest

from udcop.engine import SolverParams, format_trace, run
from udcop.experiments import SweepConfig, rows_to_csv, run_sweep
from udcop.generator import GenConfig, generate


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_small_sweep_csv_is_unchanged():
    csv = rows_to_csv(run_sweep(SweepConfig(instances_per_cell=2)))
    assert sha256(csv) == \
        "7d94269a32279109384ba471afef9b118ef10aea5f7f05950b8e0e4546c65708"


TRACE_HASHES = {
    ("udcop", "dsa"): "9a0ebf1270d79c71fb1f00faa193975f64dd481214a3f449b078fc05269d81a1",
    ("udcop", "dsau"): "127a07bbfdf67261ef4b6691d4b3faa27542a5c3df31cc56c80f10c8a2ed743a",
    ("udcop", "dbo"): "504412e5e662a06a6c9da9e3cdcb7a833df22991148764048eeb8b5df7d48f87",
    ("udcop", "dbou"): "b082306ee8231b6067838aed8ba6b6679a4c2cca074b962192b09bd14619f9f1",
    ("udcop", "molex"): "fde815c24146c0e599afe1f5127b81ed27d45f703d96d2b5a3c719e016851d6e",
    ("udcoppc", "dsa"): "e9e78484d226e3061bad8bc916cef33f8f96c91394486ed2fedf493cfd2ddc82",
    ("udcoppc", "dsau"): "fd4e1d652e5892bf262f2f0172f2b9c25797dd8e9556aaa1137864cceaca081e",
    ("udcoppc", "dbo"): "ec8a28711cc9d0b97bb7d5344639f366a84f78ed95a2dd6ce9634b1fe9febc49",
    ("udcoppc", "dbou"): "92219d63da77561b9ad2244fbba4d63f71de4d733d9ae8974c128a868f949359",
    ("udcoppc", "molex"): "77605c0e33e7c34889bf71e841b8a13aef18d92d00a9dd7db3c268743d87f707",
}


@pytest.mark.parametrize("kind, solver", sorted(TRACE_HASHES))
def test_solver_trace_is_unchanged(kind, solver):
    inst = generate(GenConfig(n=10, d=10, density=0.3, seed=314, kind=kind))
    _, traces = run(inst, solver, SolverParams(), seed=99, round_budget=50)
    assert sha256(format_trace(traces)) == TRACE_HASHES[kind, solver]
