"""The benchmark's traced run (perfbench/tracer.py) wraps udcop functions by
their dotted names. A rename would break only that run, which the test
suite does not start, so this test checks that every traced name resolves.
It reads perfbench without changing it. The benchmark's own tests also
assume that the engine binds `build_agent_context` by name and calls it
once per agent per run, and the sweep workload times a cell from one call
of `experiments.generate` to the next and indexes the rows by cell; the
last tests pin these, and that the breakout pair raises its weights
through the module attribute the traced run replaces.
"""

import importlib.util
import inspect
from pathlib import Path

from udcop import engine, experiments, solvers
from udcop.experiments import SweepConfig, row_seed
from udcop.model import Instance
from udcop.presets import three_student_meeting

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert "udcop.engine.RevealLedger.record" in tracer.TARGETS
    unresolved = []
    for target in tracer.TARGETS:
        try:
            owner, attr, is_method = tracer._resolve(target)
        except (ImportError, AttributeError):
            unresolved.append(target)
            continue
        # a method must be a plain function in its class dict, which is
        # what the tracer replaces; a module attribute must be a function
        found = owner.__dict__.get(attr) if is_method else getattr(owner, attr, None)
        if not inspect.isfunction(found):
            unresolved.append(target)
    assert unresolved == []


def test_engine_builds_each_agent_context_once_per_run(monkeypatch):
    assert engine.build_agent_context is solvers.build_agent_context
    calls = []

    def spy(inst, agent):
        calls.append(agent)
        return solvers.build_agent_context(inst, agent)

    monkeypatch.setattr(engine, "build_agent_context", spy)
    inst = three_student_meeting()
    engine.run(inst, "dbou", seed=1, round_budget=10)
    assert calls == list(range(inst.n))


SMALL_SWEEP = SweepConfig(densities=(0.2, 0.5), instances_per_cell=2, n=4, d=4,
                          algorithms=("dsa", "dbo", "dsau"), round_budget=10)


def test_sweep_generates_each_cell_once_before_its_runs(monkeypatch):
    events = []
    real_generate, real_run = experiments.generate, experiments.run

    def generate_spy(cfg):
        events.append(("generate", cfg.density, cfg.seed))
        return real_generate(cfg)

    def run_spy(*args, **kwargs):
        call = inspect.signature(real_run).bind(*args, **kwargs).arguments
        events.append(("run", call["solver"], call["seed"]))
        return real_run(*args, **kwargs)

    monkeypatch.setattr(experiments, "generate", generate_spy)
    monkeypatch.setattr(experiments, "run", run_spy)
    experiments.run_sweep(SMALL_SWEEP)
    expected = []
    for di, density in enumerate(SMALL_SWEEP.densities):
        for k in range(SMALL_SWEEP.instances_per_cell):
            seed = row_seed(SMALL_SWEEP, di, k)
            expected.append(("generate", density, seed))
            expected += [("run", algo, seed) for algo in SMALL_SWEEP.algorithms]
    assert events == expected


def test_rows_are_indexed_by_density_instance_and_algorithm():
    # the indexing of the benchmark's rerun sample
    rows = experiments.run_sweep(SMALL_SWEEP)
    algorithms = SMALL_SWEEP.algorithms
    per_density = SMALL_SWEEP.instances_per_cell * len(algorithms)
    assert len(rows) == len(SMALL_SWEEP.densities) * per_density
    for di, density in enumerate(SMALL_SWEEP.densities):
        for k in range(SMALL_SWEEP.instances_per_cell):
            base = di * per_density + k * len(algorithms)
            cell = rows[base:base + len(algorithms)]
            seed = row_seed(SMALL_SWEEP, di, k)
            assert [(r.density, r.seed, r.algorithm) for r in cell] == \
                [(density, seed, algo) for algo in algorithms]


def test_dbo_raises_weights_through_the_module_attribute(monkeypatch):
    # agents fixed on different values never agree, so nobody can offer
    # and every resolve round raises weights
    inst = Instance(kind="udcop", n=2, d=2, domains=((1,), (2,)), unary=({}, {}),
                    privacy=({1: 1.0}, {2: 1.0}), penalty=100.0)
    raised = []

    def spy(weights, increments):
        raised.append(increments.size)
        return real(weights, increments)

    real = solvers.apply_weight_increments
    monkeypatch.setattr(solvers, "apply_weight_increments", spy)
    engine.run(inst, "dbo", seed=1, round_budget=4)
    assert raised == [2, 2]
