"""Deterministic synchronous round simulator with privacy accounting.

Each round runs three phases:

1. send:    every agent emits its queued messages (a value announcement on
            the first round or after adopting a new value; an improve offer
            on breakout exchange rounds). First-time value announcements
            are charged to the reveal ledger here, including the initial
            random value.
2. deliver: all messages reach their recipients. The all-equal constraint
            links every pair of agents, so every agent hears every value
            announcement: the round state is one broadcast ``heard`` vector
            of last-announced value codes, which each agent reads at its
            neighbors' indices.
3. step:    every agent decides (keep / change / weight updates) from the
            just-delivered values. Adopted values become visible to others
            only through the next round's send phase.

The breakout solvers alternate value rounds (odd) and improve rounds
(even), so one of their exchange cycles spans two engine rounds.

A run stops at the round budget or after two consecutive quiet rounds (no
value adoption and no weight change). Given (instance, solver, params,
seed) the full trace is reproducible bit for bit; agents are stepped in
index order but only ever observe previous-phase state, so the order is
unobservable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from udcop import solvers
from udcop.model import Instance, InstanceValidationError, validate_instance
from udcop.rng import STREAM_SOLVER, agent_stream
from udcop.solvers import (SOLVER_KINDS, AgentContext, DsaState, ImproveMsg,
                           StepResult, ValueMsg, build_agent_context,
                           new_dbo_state)

logger = logging.getLogger(__name__)

TRACE_FIELDS = ("round", "agent", "action", "value", "revealed", "charged",
                "est_current", "est_next", "cum_privacy")


@dataclass(frozen=True)
class SolverParams:
    """Tunables shared by all solvers; scripted fields exist for golden traces.

    penalty overrides the finite disagreement penalty W used by local search
    and metrics (defaults to the instance's surrogate). candidate_script maps
    round index (0-based) -> {agent: forced candidate} for the solvers that
    draw their candidate at random.
    """

    p: float = 0.6
    divisor_mode: str = "revealed"
    penalty: float | None = None
    pure_alg2: bool = False
    initial_values: tuple[int, ...] | None = None
    candidate_script: tuple[Mapping[int, int], ...] = ()


class RevealLedger:
    """Once-only accounting of revealed values (or constraint ids)."""

    def __init__(self, inst: Instance):
        self._inst = inst
        self.entries: list[set] = [set() for _ in range(inst.n)]
        self.cum: list[float] = [0.0] * inst.n

    def record(self, agent: int, entry) -> float:
        """Charge `entry` for `agent` if new; repeated reveals cost 0."""
        if self._inst.kind == "udcoppc":
            valid = isinstance(entry, str) and entry.startswith("c") \
                and entry[1:].isdigit() and int(entry[1:]) in self._inst.domains[agent]
        else:
            valid = entry in self._inst.domains[agent]
        if not valid:
            raise ValueError(f"agent {agent}: {entry!r} is not a revealable entry")
        if entry in self.entries[agent]:
            return 0.0
        self.entries[agent].add(entry)
        cost = self._inst.entry_cost(agent, entry)
        self.cum[agent] += cost
        return cost

    def total(self) -> float:
        return sum(self.cum)


@dataclass(frozen=True)
class RoundTrace:
    """Per-round record: agent decisions, reveals and cumulative metrics."""

    round: int
    actions: tuple[str, ...]
    values: tuple[int, ...]
    candidates: tuple[int | None, ...]
    revealed: tuple[tuple, ...]
    charged: tuple[float, ...]
    est_current: tuple[float, ...]
    est_next: tuple[float, ...]
    cum_privacy: tuple[float, ...]
    quality: float          # Σ unary(current) + W when the agents disagree
    total_privacy: float

    @property
    def total_cost(self) -> float:
        return self.quality + self.total_privacy


@dataclass(frozen=True)
class Outcome:
    """Aggregated per-run metrics (per-agent averages like the sweep plots)."""

    assignment: tuple[int, ...]
    satisfied: bool
    privacy_loss_per_agent: float
    solution_quality_per_agent: float
    total_cost_per_agent: float
    quality_with_penalty_per_agent: float
    rounds: int
    messages: int
    per_agent_privacy: tuple[float, ...]
    per_agent_unary: tuple[float, ...]

    @property
    def per_agent_utilities(self) -> tuple[float, ...]:
        """Final utility per agent: own unary cost plus privacy paid."""
        return tuple(p + u for p, u in zip(self.per_agent_privacy,
                                           self.per_agent_unary))


def metrics(inst: Instance, ledger: RevealLedger, assignment: Sequence[int],
            *, rounds: int = 0, messages: int = 0,
            penalty: float | None = None) -> Outcome:
    """Fold a finished run into an Outcome.

    solution_quality_per_agent averages the unary costs of the final values;
    the disagreement penalty is reported separately (satisfied flag and the
    quality_with_penalty variant) so total = privacy + quality holds exactly.
    """
    n = inst.n
    per_privacy = tuple(float(c) for c in ledger.cum)
    per_unary = tuple(inst.unary_cost(i, v) for i, v in enumerate(assignment))
    satisfied = len(set(assignment)) <= 1
    w_total = float(penalty) if penalty is not None else inst.penalty_surrogate()
    privacy_mean = sum(per_privacy) / n
    quality_mean = sum(per_unary) / n
    return Outcome(
        assignment=tuple(assignment),
        satisfied=satisfied,
        privacy_loss_per_agent=privacy_mean,
        solution_quality_per_agent=quality_mean,
        total_cost_per_agent=privacy_mean + quality_mean,
        quality_with_penalty_per_agent=quality_mean + (0.0 if satisfied else w_total / n),
        rounds=rounds,
        messages=messages,
        per_agent_privacy=per_privacy,
        per_agent_unary=per_unary,
    )


# ---------------------------------------------------------------------------
# Per-agent runners wiring solver steps into the round protocol
# ---------------------------------------------------------------------------

class _ValueSearchRunner:
    """dsa / dsau / molex: one value announcement + one decision per round."""

    def __init__(self, algo: str, ctx: AgentContext, params: SolverParams,
                 rng: np.random.Generator, initial: int):
        self.algo = algo
        self.ctx = ctx
        self.params = params
        self.rng = rng
        self.state = DsaState(value=initial, p=params.p)
        self.pending_send = True

    @property
    def value(self) -> int:
        return self.state.value

    def emit(self, rnd: int):
        if self.pending_send:
            self.pending_send = False
            return ValueMsg(self.ctx.index, self.state.value)
        return None

    def step(self, rnd: int, neighbor_ids, neighbor_vals,
             improve_msgs) -> tuple[StepResult, bool]:
        scripted = self._scripted_candidate(rnd)
        if self.algo == "dsa":
            res = solvers.dsa_step(self.state, self.ctx, neighbor_vals, self.rng)
        elif self.algo == "dsau":
            res = solvers.dsau_step(self.state, self.ctx, neighbor_vals,
                                    self.rng, candidate=scripted)
        else:
            res = solvers.modcop_dsa_step(self.state, self.ctx, self.rng,
                                          candidate=scripted)
        if res.action == "change":
            self.state.value = res.value
            self.pending_send = True
        return res, False

    def _scripted_candidate(self, rnd: int) -> int | None:
        script = self.params.candidate_script
        if rnd - 1 < len(script):
            return script[rnd - 1].get(self.ctx.index)
        return None


class _BreakoutRunner:
    """dbo / dbou: value rounds (odd) alternate with improve rounds (even)."""

    def __init__(self, algo: str, ctx: AgentContext, params: SolverParams,
                 rng: np.random.Generator, initial: int):
        self.gated = algo == "dbou"
        self.ctx = ctx
        self.state = new_dbo_state(initial, ctx.n, ctx.d)
        self.pending_send = True
        self.pending_improve: ImproveMsg | None = None

    @property
    def value(self) -> int:
        return self.state.value

    def emit(self, rnd: int):
        if rnd % 2 == 1:
            if self.pending_send:
                self.pending_send = False
                return ValueMsg(self.ctx.index, self.state.value)
            return None
        return self.pending_improve

    def step(self, rnd: int, neighbor_ids, neighbor_vals,
             improve_msgs) -> tuple[StepResult, bool]:
        if rnd % 2 == 1:
            self.pending_improve, res = solvers.dbo_send_improve(
                self.state, self.ctx, neighbor_ids, neighbor_vals,
                gate_estimates=self.gated)
            return res, False
        missing = [int(j) for j in neighbor_ids if int(j) not in improve_msgs]
        if missing:
            logger.warning("agent %d round %d: no improve message from %s, "
                           "treating as improve 0", self.ctx.index, rnd, missing)
        res, increments = solvers.dbo_resolve(self.state, self.ctx,
                                              improve_msgs, neighbor_ids,
                                              neighbor_vals)
        solvers.apply_weight_increments(self.state, increments)
        if res.action == "change":
            self.state.value = res.value
            self.pending_send = True
        return res, bool(increments)


def _make_runner(algo: str, inst: Instance, agent: int, params: SolverParams,
                 rng: np.random.Generator) -> _ValueSearchRunner | _BreakoutRunner:
    ctx = build_agent_context(inst, agent, penalty=params.penalty,
                              divisor_mode=params.divisor_mode,
                              conflict_guard=not params.pure_alg2)
    if params.initial_values is not None:
        initial = params.initial_values[agent]
        if initial not in ctx.domain_values:
            raise ValueError(f"agent {agent}: scripted initial value {initial} "
                             "is outside its domain")
    else:
        initial = ctx.domain_values[int(rng.integers(0, len(ctx.domain_values)))]
    if algo in ("dbo", "dbou"):
        return _BreakoutRunner(algo, ctx, params, rng, initial)
    return _ValueSearchRunner(algo, ctx, params, rng, initial)


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------

QUIET_ROUNDS_TO_STOP = 2


def run(inst: Instance, solver: str, params: SolverParams | None = None,
        seed: int = 0, round_budget: int = 100
        ) -> tuple[Outcome, list[RoundTrace]]:
    """Simulate one solver on one instance; fully deterministic.

    Returns the outcome plus one trace record per executed round.
    """
    if solver not in SOLVER_KINDS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVER_KINDS}")
    if round_budget < 1:
        raise ValueError(f"round_budget ≥ 1 required, got {round_budget}")
    violations = validate_instance(inst)
    if violations:
        raise InstanceValidationError(violations)
    params = params or SolverParams()

    n = inst.n
    runners = [_make_runner(solver, inst, i, params,
                            agent_stream(seed, STREAM_SOLVER, i))
               for i in range(n)]
    w_total = (float(params.penalty) if params.penalty is not None
               else inst.penalty_surrogate())
    ledger = RevealLedger(inst)
    heard = np.full(n, -1, dtype=np.int64)   # heard[j]: j's last announced code
    neighbor_ids = [np.array([j for j in range(n) if j != i], dtype=np.int64)
                    for i in range(n)]

    traces: list[RoundTrace] = []
    messages = 0
    quiet = 0
    rounds_used = 0

    for rnd in range(1, round_budget + 1):
        rounds_used = rnd
        # send
        new_entries: list[list] = [[] for _ in range(n)]
        charged = [0.0] * n
        value_msgs: list[ValueMsg] = []
        improve_msgs: dict[int, ImproveMsg] = {}
        for i, runner in enumerate(runners):
            msg = runner.emit(rnd)
            if msg is None:
                continue
            messages += n - 1
            if isinstance(msg, ValueMsg):
                entry = inst.reveal_entry(i, msg.value)
                if entry not in ledger.entries[i]:
                    new_entries[i].append(entry)
                charged[i] += ledger.record(i, entry)
                runner.state.revealed.add(msg.value)
                value_msgs.append(msg)
            else:
                improve_msgs[i] = msg

        # deliver
        for msg in value_msgs:
            heard[msg.sender] = msg.value - 1

        # step
        results: list[StepResult] = []
        any_change = False
        any_weight = False
        for i, runner in enumerate(runners):
            res, weights_changed = runner.step(
                rnd, neighbor_ids[i], heard[neighbor_ids[i]], improve_msgs)
            results.append(res)
            any_change = any_change or res.action == "change"
            any_weight = any_weight or weights_changed

        assignment = tuple(r.value for r in runners)
        agree = len(set(assignment)) <= 1
        quality = sum(inst.unary_cost(i, v) for i, v in enumerate(assignment))
        if not agree:
            quality += w_total
        traces.append(RoundTrace(
            round=rnd,
            actions=tuple(r.action for r in results),
            values=assignment,
            candidates=tuple(r.candidate for r in results),
            revealed=tuple(tuple(e) for e in new_entries),
            charged=tuple(charged),
            est_current=tuple(r.est_current for r in results),
            est_next=tuple(r.est_next for r in results),
            cum_privacy=tuple(float(c) for c in ledger.cum),
            quality=quality,
            total_privacy=ledger.total(),
        ))

        quiet = quiet + 1 if not (any_change or any_weight) else 0
        if quiet >= QUIET_ROUNDS_TO_STOP:
            break

    outcome = metrics(inst, ledger, tuple(r.value for r in runners),
                      rounds=rounds_used, messages=messages,
                      penalty=w_total)
    return outcome, traces


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.10g}"


def format_trace(traces: Sequence[RoundTrace]) -> str:
    """Tab-separated trace text, one line per (round, agent)."""
    lines = ["\t".join(TRACE_FIELDS)]
    for t in traces:
        for i in range(len(t.values)):
            lines.append("\t".join((
                str(t.round),
                str(i),
                t.actions[i],
                str(t.values[i]),
                ",".join(str(e) for e in t.revealed[i]),
                _fmt(t.charged[i]),
                _fmt(t.est_current[i]),
                _fmt(t.est_next[i]),
                _fmt(t.cum_privacy[i]),
            )))
    return "\n".join(lines) + "\n"


def write_trace(traces: Sequence[RoundTrace], path) -> None:
    Path(path).write_text(format_trace(traces), encoding="utf-8")
