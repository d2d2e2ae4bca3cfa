"""The benchmark's traced run (perfbench/tracer.py) wraps udcop functions by
their dotted names. A rename would break only that run, which the test
suite does not start, so this test checks that every traced name resolves.
It reads perfbench without changing it.
"""

import importlib.util
import inspect
from pathlib import Path

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
