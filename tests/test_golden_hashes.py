"""Byte-level regression pins for the sweep CSV, the solver traces and the
instance file format.

A refactor that claims identical outputs must keep these hashes. A change
that alters outputs on purpose updates them and declares the behaviour
change in CHANGES.md.
"""

import hashlib

import pytest

from udcop.engine import SolverParams, format_trace, run
from udcop.experiments import (SweepConfig, aggregate, rows_to_csv, run_sweep,
                               summary_to_text)
from udcop.generator import GenConfig, generate
from udcop.model import instance_to_json
from udcop.presets import three_student_meeting


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_small_sweep_csv_is_unchanged():
    csv = rows_to_csv(run_sweep(SweepConfig(instances_per_cell=2)))
    assert sha256(csv) == \
        "7d94269a32279109384ba471afef9b118ef10aea5f7f05950b8e0e4546c65708"


def test_small_sweep_summary_is_unchanged():
    summary = summary_to_text(aggregate(run_sweep(SweepConfig(instances_per_cell=2))))
    assert sha256(summary) == \
        "7509ad4f5909df546334fba53a8873bc7986f8a00bfc97095f31ef34ecbeca6a"


def test_default_sweep_csv_and_summary_are_unchanged():
    rows = run_sweep(SweepConfig())
    assert sha256(rows_to_csv(rows)) == \
        "f87e32e5961dc22cb0da110a9bb0a1430524e8623f776be4c4dcdf0db5a52edf"
    assert sha256(summary_to_text(aggregate(rows))) == \
        "c6a8c054130ed8f6d5814d2b1ff7d84b69c4c51cc0fea914fece530626d8375a"


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


INSTANCE_HASHES = {
    ("meeting", "dcop"): "c54d2ee300067b4d75c2238e057a713fcc96e9888deb933ec2d1cc0fc6f05897",
    ("meeting", "udcop"): "5bc12bffd87c61560fad81108882b9946daebba9e12556897190e97617872b9d",
    ("meeting", "udcoppc"): "c522cc6cae826ba3ebca6d6ab9681d5608bf085af1db922c436bea9b2f260e11",
    ("generated", "udcop"): "6a841f8f6e019e6bde52bac9110848cee18aeb12ee69e054bdd8afded7632a7c",
    ("generated", "udcoppc"): "b7102993be0c4545f52233354ad1f9e8245deec123e4c518583ed093636be9f9",
}


@pytest.mark.parametrize("source, kind", sorted(INSTANCE_HASHES))
def test_instance_json_is_unchanged(source, kind):
    inst = (three_student_meeting(kind) if source == "meeting" else
            generate(GenConfig(n=10, d=10, density=0.3, seed=314, kind=kind)))
    assert sha256(instance_to_json(inst)) == INSTANCE_HASHES[source, kind]
