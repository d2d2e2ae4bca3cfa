"""The benchmark's three workloads.

A workload turns the seed into fixed inputs during `setup`, then repeats one
*pass* -- a fixed amount of work -- while the measurement window lasts:

* ``sweep``: the default ``udcop sweep`` (5 densities x 50 instances x
  dbo/dbou/dsa/dsau, n = d = 10, p = 0.95, W = 8.5, 100-round budget), run
  in-process through ``experiments.run_sweep`` and ``write_outputs``; the
  seed is the sweep's master seed.
* ``scale``: one generated instance at n = 100, d = 50, density 0.3, solved
  once by each of dsa/dsau/dbo/dbou with the sweep's solver parameters, and
  its exact optimum for comparison.
* ``cli``: a closed loop with one client that starts one ``udcop`` process
  at a time: ``udcop solve --trace`` cycling through the five solvers over
  two instance files (kinds ``udcop`` and ``udcoppc``), then ``udcop
  oracle``.

Every pass returns what it ran and what it printed or returned; `check`
then tests it against `perfbench.checks` outside the timed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from udcop import cli, engine, experiments, oracle
from udcop.generator import GenConfig, generate
from udcop.model import save_instance

from perfbench import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

BUDGET = 100
CHILD_TIMEOUT_S = 120


@dataclass
class PassResult:
    """One pass: its timing, the work it did and the ops that failed."""

    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)   # seconds per op
    runs: int = 0                # engine.run calls
    agent_steps: int = 0         # sum of rounds * n
    attempted: int = 0
    failures: list[str] = field(default_factory=list)   # one per failed op
    digest: str = ""             # hash of everything the pass output
    peak_rss_kib: int = 0        # largest child process, cli only
    payload: object = None       # raw outputs, dropped after the check


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    """Environment in which a child interpreter imports this checkout's udcop."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    """A finished child process."""

    code: int
    start_ns: int     # perf_counter_ns just before the spawn
    end_ns: int       # perf_counter_ns once it was reaped
    peak_rss_kib: int
    stderr: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def spawn(cmd: list[str], stdout_path: Path) -> Child:
    """Run one child to completion with its output in `stdout_path`.

    The output goes to a file so that `os.wait4` can collect the child's
    resource usage; a watchdog kills it after CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter_ns()
        finally:
            watchdog.cancel()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, end, usage.ru_maxrss,
                 stderr.decode(errors="replace"))


def trace_example_hashes() -> dict[str, str]:
    """SHA-256 of both ``udcop trace-example`` outputs (information only)."""
    hashes = {}
    for variant in ("dsau", "molex"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["trace-example", variant])
        hashes[f"trace-example {variant}"] = sha256(buf.getvalue().encode())
    return hashes


class Workload:
    """Inputs made from the seed, a repeatable pass, and its output check."""

    name = ""
    in_process = True          # the tracer can wrap the pass from this process
    n = d = 0                  # instance size, for computed byte counts

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.hashes: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError

    def check(self, res: PassResult, first: PassResult) -> None:
        """Record failed ops in `res.failures`; `first` is the run's first pass."""
        if res is not first and res.digest != first.digest:
            res.failures.append("pass output differs from the first pass "
                                "with the same inputs")

    def after_pass(self, res: PassResult, tracer) -> None:
        """Untimed work after a pass, before its check."""


class Sweep(Workload):
    name = "sweep"
    n = d = 10

    def setup(self) -> None:
        self.cfg = experiments.SweepConfig(master_seed=self.seed)
        warm = replace(self.cfg, densities=self.cfg.densities[:1],
                       instances_per_cell=1)
        experiments.write_outputs(experiments.run_sweep(warm), self.work / "warm-up")

    def run_pass(self, tracer) -> PassResult:
        res = PassResult(attempted=len(self.cfg.densities) * self.cfg.instances_per_cell
                         * len(self.cfg.algorithms))
        # A cell starts when the sweep generates its instance; its latency
        # runs until the next cell starts or the sweep returns.
        starts = []
        generate_cell = experiments.generate
        if tracer is None:
            def marked_generate(*args, **kwargs):
                starts.append(time.perf_counter())
                return generate_cell(*args, **kwargs)
            experiments.generate = marked_generate
        try:
            rows = experiments.run_sweep(self.cfg)
            starts.append(time.perf_counter())
            csv_path, summary_path = experiments.write_outputs(rows, self.work / "sweep")
        except Exception as e:  # a failed sweep fails every run it held
            res.failures = [f"sweep raised {e!r}"] * res.attempted
            return res
        finally:
            experiments.generate = generate_cell
        res.latencies = [b - a for a, b in zip(starts, starts[1:])]
        csv = csv_path.read_bytes()
        res.runs = len(rows)
        res.agent_steps = sum(r.rounds for r in rows) * self.cfg.n
        res.digest = sha256(csv + summary_path.read_bytes())
        res.payload = rows
        self.hashes["sweep.csv"] = sha256(csv)
        return res

    def check(self, res: PassResult, first: PassResult) -> None:
        super().check(res, first)
        rows = res.payload
        if rows is None:
            return
        for row in rows:
            res.failures += checks.row_failures(row, self.cfg.round_budget)
        if len(rows) != res.attempted:
            res.failures += ["sweep row missing"] * (res.attempted - len(rows))
        elif res is first:
            res.failures += self._rerun_sample(rows)

    def _rerun_sample(self, rows) -> list[str]:
        """Rerun instances 0 and 25 of every density with each solver."""
        out = []
        per_density = self.cfg.instances_per_cell * len(self.cfg.algorithms)
        for di, density in enumerate(self.cfg.densities):
            for k in (0, self.cfg.instances_per_cell // 2):
                base = di * per_density + k * len(self.cfg.algorithms)
                cell = rows[base:base + len(self.cfg.algorithms)]
                inst = generate(GenConfig(n=self.cfg.n, d=self.cfg.d, density=density,
                                          seed=cell[0].seed, kind=self.cfg.kind))
                for row in cell:
                    outcome, traces = engine.run(inst, row.algorithm,
                                                 self.cfg.solver_params, seed=row.seed,
                                                 round_budget=self.cfg.round_budget)
                    out += checks.rerun_failures(row, outcome, traces, inst.domains,
                                                 self.cfg.round_budget)
        return out


class Scale(Workload):
    name = "scale"
    n, d = 100, 50
    algorithms = ("dsa", "dsau", "dbo", "dbou")

    def setup(self) -> None:
        self.params = experiments.DEFAULT_SWEEP_SOLVER_PARAMS
        self.inst = generate(GenConfig(n=self.n, d=self.d, density=0.3, seed=self.seed))
        warm = generate(GenConfig(n=10, d=10, density=0.3, seed=self.seed))
        for algo in self.algorithms:
            engine.run(warm, algo, self.params, seed=self.seed, round_budget=BUDGET)

    def run_pass(self, tracer) -> PassResult:
        res = PassResult(attempted=len(self.algorithms) + 1)   # the runs and the oracle
        runs, optimum = [], None
        for algo in self.algorithms:
            t0 = time.perf_counter()
            try:
                outcome, traces = engine.run(self.inst, algo, self.params,
                                             seed=self.seed, round_budget=BUDGET)
            except Exception as e:
                res.failures.append(f"{algo} raised {e!r}")
                continue
            res.latencies.append(time.perf_counter() - t0)
            res.runs += 1
            res.agent_steps += outcome.rounds * self.n
            runs.append((algo, outcome, traces))
        try:
            optimum = oracle.exact_optimum_dms(self.inst).cost
        except Exception as e:
            res.failures.append(f"oracle raised {e!r}")
        res.payload = runs, optimum
        return res

    def check(self, res: PassResult, first: PassResult) -> None:
        digest = hashlib.sha256()
        runs, optimum = res.payload
        for algo, outcome, traces in runs:
            failures = checks.outcome_failures(outcome, self.inst.domains, BUDGET)
            if (optimum is not None and outcome.satisfied
                    and sum(outcome.per_agent_unary) < optimum - 1e-9 * max(1.0, optimum)):
                failures.append("an agreed assignment beats the exact optimum")
            failures += checks.ledger_failures(checks.trace_entries(traces), self.n,
                                               outcome.rounds, outcome.per_agent_privacy)
            if failures:
                res.failures.append(f"{algo}: {'; '.join(failures)}")
            digest.update(repr(outcome).encode())
            digest.update(engine.format_trace(traces).encode())
        digest.update(repr(optimum).encode())
        res.digest = digest.hexdigest()
        res.payload = None
        super().check(res, first)


class Cli(Workload):
    name = "cli"
    in_process = False
    n = d = 10
    kinds = ("udcop", "udcoppc")
    solvers = ("dsa", "dsau", "dbo", "dbou", "molex")

    def setup(self) -> None:
        self.docs = {}
        for kind in self.kinds:
            path = self.work / f"instance-{kind}.json"
            save_instance(generate(GenConfig(n=self.n, d=self.d, density=0.3,
                                             seed=self.seed, kind=kind)), path)
            self.docs[kind] = json.loads(path.read_text(encoding="utf-8"))
        # Op i solves with solver i on alternating kinds; the oracle closes the pass.
        self.ops = [("solve", algo, self.kinds[i % 2]) for i, algo in enumerate(self.solvers)]
        self.ops.append(("oracle", None, self.kinds[len(self.solvers) % 2]))
        self._op(self.ops[0], None, "warm-up")

    def _argv(self, op, tag) -> list[str]:
        command, algo, kind = op
        argv = [command, "--in", str(self.work / f"instance-{kind}.json")]
        if command == "solve":
            argv += ["--algo", algo, "--seed", str(self.seed), "--rounds", str(BUDGET),
                     "--trace", str(self.work / f"trace-{tag}.tsv")]
        return argv

    def _op(self, op, tracer, tag):
        if tracer is None:
            cmd = [sys.executable, "-m", "udcop.cli", *self._argv(op, tag)]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                   str(self.work / f"spans-{tag}.json"), *self._argv(op, tag)]
        return spawn(cmd, self.work / f"stdout-{tag}.txt")

    def run_pass(self, tracer) -> PassResult:
        res = PassResult(attempted=len(self.ops), payload=[])
        for i, op in enumerate(self.ops):
            child = self._op(op, tracer, i)
            res.latencies.append(child.seconds)
            res.peak_rss_kib = max(res.peak_rss_kib, child.peak_rss_kib)
            res.payload.append((op, child))
        return res

    def after_pass(self, res: PassResult, tracer) -> None:
        """Collect each op's output files, and its spans when traced."""
        digest = hashlib.sha256()
        outputs = []
        for i, (op, child) in enumerate(res.payload):
            stdout = _take(self.work / f"stdout-{i}.txt")
            trace = _take(self.work / f"trace-{i}.tsv")
            if op[0] == "solve":
                res.runs += 1
                rounds = checks.parse_fields(stdout).get("rounds", "")
                res.agent_steps += int(rounds) * self.n if rounds.isdigit() else 0
            spans = self.work / f"spans-{i}.json"
            if tracer is not None and spans.exists():
                tracer.extend(spans, child.start_ns, child.end_ns)
                spans.unlink()
            digest.update(f"{child.code}\n{stdout}\n{trace}".encode())
            outputs.append((op, child, stdout, trace))
        res.digest = digest.hexdigest()
        res.payload = outputs

    def check(self, res: PassResult, first: PassResult) -> None:
        for (command, algo, kind), child, stdout, trace in res.payload:
            if child.code != 0:
                failures = [f"exit code {child.code}: {child.stderr.strip()[-300:]}"]
            elif command == "solve":
                failures = checks.solve_failures(stdout, trace, algo, self.docs[kind], BUDGET)
            else:
                failures = checks.oracle_failures(stdout, self.docs[kind])
            if failures:
                res.failures.append(f"{command} {algo or ''} {kind}: {'; '.join(failures)}")
        res.payload = None
        super().check(res, first)


def _take(path: Path) -> str:
    """Read and delete a file an op wrote; empty when it wrote none."""
    if not path.exists():
        return ""
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


WORKLOADS = {w.name: w for w in (Sweep, Scale, Cli)}


def make(name: str, seed: int) -> Workload:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work)


def cleanup(wl: Workload) -> None:
    shutil.rmtree(wl.work, ignore_errors=True)
