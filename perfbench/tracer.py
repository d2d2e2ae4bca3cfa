"""Span tracer that instruments the udcop package from outside it.

`install` replaces each target function with a wrapper: in the module that
defines it, and in every loaded ``udcop`` module that bound the same object
under the same name (``from udcop.solvers import build_agent_context`` in
the engine, ``from udcop.engine import run`` in the sweep harness). A class
method is replaced on its class. The returned callable puts every original
back.

Each wrapper call records one span -- name, start, end, parent -- in flat
arrays, so the million short calls of a sweep stay small in memory. A
span's self time is its duration minus the durations of its child spans;
calls are single-threaded and strictly nested, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Public functions of each layer (module) that the traced run wraps.
TARGETS = (
    "udcop.model.load_instance",
    "udcop.model.validate_instance",
    "udcop.generator.generate",
    "udcop.rng.agent_stream",
    "udcop.rng.derive_seed",
    "udcop.engine.run",
    "udcop.engine.metrics",
    "udcop.engine.format_trace",
    "udcop.engine.write_trace",
    "udcop.engine.RevealLedger.record",
    "udcop.solvers.build_agent_context",
    "udcop.solvers.local_eval_all",
    "udcop.solvers.estimate_cost",
    "udcop.solvers.dsa_step",
    "udcop.solvers.dsau_step",
    "udcop.solvers.modcop_dsa_step",
    "udcop.solvers.dbo_send_improve",
    "udcop.solvers.dbo_resolve",
    "udcop.solvers.apply_weight_increments",
    "udcop.kernels.eval_all_unit",
    "udcop.kernels.eval_all_weighted",
    "udcop.oracle.exact_optimum_enum",
    "udcop.oracle.exact_optimum_dms",
    "udcop.experiments.run_sweep",
    "udcop.experiments.aggregate",
    "udcop.experiments.write_outputs",
    "udcop.experiments.rows_to_csv",
    "udcop.experiments.summary_to_text",
    "udcop.cli.main",
)

RUN = "engine.run"
OBSERVE = "perfbench.observe"


def _run_solver(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["solver"]


def idle_rounds(traces) -> int:
    """Rounds after the run's last value change and last privacy charge."""
    last = 0
    for t in traces:
        if "change" in t.actions or any(c > 0 for c in t.charged):
            last = t.round
    return len(traces) - last


class Tracer:
    """In-memory spans plus one record per finished ``engine.run``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        # (solver, n, d, rounds, messages, idle rounds) per engine.run call
        self.runs: list[tuple[str, int, int, int, int, int]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span measured elsewhere, as a child of the open span."""
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start_ns)
        self.end.append(end_ns)

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records a span."""
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, clock, get_id = self._stack, time.perf_counter_ns, self._id
        fixed = get_id(name)
        is_run = name == RUN
        observe_id = get_id(OBSERVE) if is_run else -1

        def wrapper(*args, **kwargs):
            nid = get_id(f"{RUN}:{_run_solver(args, kwargs)}") if is_run else fixed
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if is_run:
                # The bookkeeping gets its own span so that it is not
                # charged to the caller's self time.
                idx = len(start)
                name_id.append(observe_id)
                parent.append(stack[-1])
                end.append(0)
                start.append(clock())
                self._observe_run(args, kwargs, result)
                end[idx] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_run(self, args, kwargs, result) -> None:
        inst = args[0] if args else kwargs["inst"]
        outcome, traces = result
        self.runs.append((_run_solver(args, kwargs), inst.n, inst.d,
                          outcome.rounds, outcome.messages, idle_rounds(traces)))

    # -- aggregation -------------------------------------------------------

    def _arrays(self):
        return tuple(np.array(a, dtype=np.int32 if a.typecode == "i" else np.int64)
                     for a in (self.name_id, self.start, self.end, self.parent))

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        name_id, start, end, parent = self._arrays()
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_ns, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
                       "self_s": own[i] / 1e9}
                for i, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        _, start, end, parent = self._arrays()
        roots = parent < 0
        return float((end[roots] - start[roots]).sum()) / 1e9

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called `name`."""
        if name not in self._ids:
            return []
        name_id, start, end, _ = self._arrays()
        sel = name_id == self._ids[name]
        return list((end[sel] - start[sel]) / 1e9)

    # -- transfer between processes ---------------------------------------

    def dump(self, path, first_ns: int) -> None:
        """Write the spans for `extend`; `first_ns` is the process's first
        timestamp, and the dump's own end is its last."""
        doc = {"names": self.names, "name_id": self.name_id.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "parent": self.parent.tolist(), "runs": self.runs,
               "first_ns": first_ns, "last_ns": time.perf_counter_ns()}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")

    def extend(self, path, spawn_ns: int, reaped_ns: int) -> None:
        """Append the spans a child process dumped, as roots of their own.

        The parent's spawn and reap times bound two more spans that the
        child cannot record itself: ``python.startup`` until its first
        timestamp and ``python.exit`` after its last.
        """
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        self.add_span("python.startup", spawn_ns, doc["first_ns"])
        self.add_span("python.exit", doc["last_ns"], reaped_ns)
        remap = [self._id(name) for name in doc["names"]]
        offset = len(self.start)
        self.name_id.extend(remap[i] for i in doc["name_id"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        self.parent.extend(p + offset if p >= 0 else p for p in doc["parent"])
        self.runs.extend(tuple(r) for r in doc["runs"])


def _resolve(target: str):
    """(owner, attribute, is_method) for a dotted target name."""
    parts = target.split(".")
    module = importlib.import_module(".".join(parts[:2]))
    if len(parts) == 3:
        return module, parts[2], False
    return getattr(module, parts[2]), parts[3], True


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target and re-bind it wherever it was imported by name.

    Returns a callable that restores every original binding.
    """
    patches: list[tuple[object, str, object]] = []
    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "udcop" or name.startswith("udcop."))]
    for target in targets:
        owner, attr, is_method = _resolve(target)
        original = owner.__dict__[attr] if is_method else getattr(owner, attr)
        wrapper = tracer.wrap(target.removeprefix("udcop."), original)
        if is_method:
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore
