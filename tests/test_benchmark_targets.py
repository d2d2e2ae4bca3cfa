"""The benchmark's traced run (perfbench/tracer.py) wraps udcop functions by
their dotted names. A rename would break only that run, which the test
suite does not start, so this test checks that every traced name resolves.
It reads perfbench without changing it. The benchmark's own tests also
assume that the engine binds `build_agent_context` by name and calls it
once per agent per run; the last test pins both.
"""

import importlib.util
import inspect
from pathlib import Path

from udcop import engine, solvers
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
