"""Deterministic synchronous round simulator with privacy accounting.

The round state of all agents is held in arrays: ``values`` (int64[n], the
current values), ``pending`` (bool[n], a value announcement is queued) and
the `RevealLedger`, whose ``revealed`` mask (bool[n, d]) records the values
each agent has announced and is the one record that both the privacy
charges and the revelation-aware estimates read. The breakout solvers add
a `solvers.BreakoutState`: offers, target values, which agents can still
offer, and the breakout weights, stored sparsely as their excess over 1
for the entries actually raised, so their memory follows the raised
entries rather than n²d².

Each round runs two phases:

1. send:  every agent with a queued value announcement sends it (on the
          first round and after adopting a new value) to every other
          agent: the all-equal constraint links every pair. The ledger
          charges first-time announcements, including the initial random
          value. On breakout exchange rounds every agent sends its improve
          offer instead.
2. step:  one array step decides for all agents (keep / change / weight
          updates) with one (n, d) evaluation against the current values;
          random draws come from each agent's own stream. Every current
          value has been announced before the step reads it: round 1
          announces every agent, and a value adopted in a step is
          announced in the next value round, before any further step
          (breakout offer rounds never move a value).

The breakout solvers alternate value rounds (odd) and improve rounds
(even), so one of their exchange cycles spans two engine rounds.

A run stops at the round budget or after two consecutive quiet rounds (no
value adoption and no weight change). Every breakout value round's offer
pass, traced or not, also records which agents can still offer
(`solvers.BreakoutState.can_offer`); when none can while some pair
disagrees, the run is stuck and would go on idle to its budget. Only an
untraced run acts on that verdict: it reports its budget-length outcome
without simulating the idle rounds. Given (instance, solver, params,
seed) the full trace is reproducible bit for bit: agents only ever
observe previous-phase state.

An `Instance` and a `SolverParams` each check themselves when they are
built; a run first checks its penalty share, round budget and seed
(`check_run_inputs`, `rng.check_seed`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from udcop import solvers
from udcop.model import Instance
from udcop.rng import STREAM_SOLVER, agent_stream, check_seed
from udcop.solvers import SOLVER_KINDS, build_agent_context

TRACE_FIELDS = ("round", "agent", "action", "value", "revealed", "charged",
                "est_current", "est_next", "cum_privacy")


@dataclass(frozen=True)
class SolverParams:
    """Tunables shared by all solvers.

    penalty overrides the finite disagreement penalty W used by local search
    and metrics (defaults to the instance's surrogate). Construction rejects
    a divisor_mode, p or penalty that no run can use, naming the field.
    """

    p: float = 0.6
    divisor_mode: str = "revealed"
    penalty: float | None = None
    pure_alg2: bool = False

    def __post_init__(self):
        if self.divisor_mode not in solvers.DIVISOR_MODES:
            raise ValueError(f"divisor_mode: must be one of {solvers.DIVISOR_MODES}, "
                             f"got {self.divisor_mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p: must lie in [0, 1], got {self.p}")
        if self.penalty is not None and not (math.isfinite(self.penalty)
                                             and self.penalty > 0):
            raise ValueError(f"penalty: must be a finite number > 0, got {self.penalty}")


class RevealLedger:
    """Once-only accounting of revealed values.

    `revealed[i, v - 1]` marks that agent i has announced value v; `cum[i]`
    is the privacy agent i has paid so far. A first announcement of v costs
    `tables.privacy[i, v - 1]` (the price of the value, or of constraint id
    ``c<v>`` for kind ``udcoppc``: both are keyed by v); a repeat costs
    nothing, so every (agent, value) pair is charged at most once. Only
    values inside the agent's domain (`tables.in_domain`) can be recorded.
    """

    def __init__(self, tables: solvers.AgentTables):
        self._privacy = tables.privacy
        self._in_domain = tables.in_domain
        self.revealed = np.zeros(tables.privacy.shape, dtype=bool)
        self.cum: list[float] = [0.0] * len(tables.privacy)

    def record(self, agents, values) -> list[tuple[int, float]]:
        """Charge each of the distinct `agents` for announcing its entry of
        `values`; return (agent, charge) for the first announcements."""
        agents = np.asarray(agents, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        n, d = self.revealed.shape
        try:   # flat (agent, code) indices; rejects codes outside 0..d-1
            entries = np.ravel_multi_index((agents, values - 1), (n, d))
            valid = self._in_domain.take(entries).all()
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"agents {agents.tolist()}: values {values.tolist()} "
                             "are not all inside the agents' domains")
        first = entries[~self.revealed.take(entries)]
        self.revealed.put(first, True)
        charges = list(zip((first // d).tolist(), self._privacy.take(first).tolist()))
        for i, cost in charges:
            self.cum[i] += cost
        return charges


@dataclass(frozen=True)
class RoundTrace:
    """Per-round record, one entry per agent: the rows of the TSV trace."""

    round: int
    actions: tuple[str, ...]
    values: tuple[int, ...]
    revealed: tuple[tuple, ...]
    charged: tuple[float, ...]
    est_current: tuple[float, ...]
    est_next: tuple[float, ...]
    cum_privacy: tuple[float, ...]


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
    w_total = inst.finite_penalty(penalty)
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
# The run loop
# ---------------------------------------------------------------------------

QUIET_ROUNDS_TO_STOP = 2
DEFAULT_ROUND_BUDGET = 100


def check_run_inputs(n: int, round_budget: int, penalty: float | None,
                     penalty_field: str = "penalty") -> None:
    """Reject a round budget or a W `penalty` that a run of `n` agents cannot
    use, naming the field; a `penalty` of None skips its share check."""
    if round_budget < 1:
        raise ValueError(f"round_budget: must be ≥ 1, got {round_budget}")
    # A share of 0 makes disagreement free in every evaluation, and the
    # breakout pair's weight rule (see solvers.dbo_resolve) needs it above 0.
    if penalty is not None and n > 1 and penalty / (n - 1) == 0:
        raise ValueError(f"{penalty_field}: the per-pair share W/(n-1) of the "
                         f"disagreement penalty W is 0 at n={n}")


def run(inst: Instance, solver: str, params: SolverParams | None = None,
        seed: int = 0, round_budget: int = DEFAULT_ROUND_BUDGET, *,
        trace: bool = True) -> tuple[Outcome, list[RoundTrace]]:
    """Simulate one solver on one instance; fully deterministic.

    Returns the outcome plus one trace record per executed round. With
    ``trace=False`` it records no trace and returns an empty list, and a
    breakout run whose offer pass finds that no agent can offer any more
    while some pair disagrees stops simulating and reports the outcome of
    its idle rounds to the budget.
    """
    if solver not in SOLVER_KINDS:
        raise ValueError(f"solver: unknown solver {solver!r}; expected one of {SOLVER_KINDS}")
    params = params or SolverParams()
    n = inst.n
    penalty = inst.finite_penalty(params.penalty)
    check_run_inputs(n, round_budget, penalty,
                     "global.penalty" if params.penalty is None else "penalty")
    check_seed(seed, "seed")
    tables = solvers.stack_contexts([build_agent_context(inst, i) for i in range(n)],
                                    penalty, params.divisor_mode, not params.pure_alg2)

    rngs = [agent_stream(seed, STREAM_SOLVER, i) for i in range(n)]
    values = solvers.draw_values(tables, rngs)
    ledger = RevealLedger(tables)
    pending = np.ones(n, dtype=bool)             # value announcements queued
    breakout = (solvers.new_breakout_state(values) if solver in ("dbo", "dbou")
                else None)

    traces: list[RoundTrace] = []
    messages = 0
    quiet = 0
    rounds_used = 0

    for rnd in range(1, round_budget + 1):
        rounds_used = rnd
        value_round = breakout is None or rnd % 2 == 1
        # send and charge
        new_entries: list[tuple] = [()] * n
        charged = [0.0] * n
        if value_round:
            senders = np.flatnonzero(pending)
            if senders.size:
                pending[:] = False
                for i, cost in ledger.record(senders, values[senders]):
                    new_entries[i] = (inst.reveal_entry(i, int(values[i])),)
                    charged[i] = cost
                messages += (n - 1) * len(senders)
        else:
            messages += (n - 1) * n              # every agent sends its offer

        # step
        weights_changed = False
        if solver == "dsa":
            res = solvers.dsa_step(tables, values, params.p, rngs)
        elif solver == "dsau":
            res = solvers.dsau_step(tables, values, ledger.revealed, rngs)
        elif solver == "molex":
            res = solvers.modcop_dsa_step(tables, values, rngs)
        elif value_round:
            res = solvers.dbo_send_improve(breakout, tables, values, ledger.revealed,
                                           gate_estimates=solver == "dbou")
        else:
            res, weights_changed = solvers.dbo_resolve(breakout, tables, values)
        values = np.where(res.change, res.candidate, values)
        pending |= res.change

        if trace:
            traces.append(RoundTrace(
                round=rnd,
                actions=tuple("change" if c else "keep" for c in res.change.tolist()),
                values=tuple(values.tolist()),
                revealed=tuple(new_entries),
                charged=tuple(charged),
                est_current=tuple(res.est_current.tolist()),
                est_next=tuple(res.est_next.tolist()),
                cum_privacy=tuple(ledger.cum),
            ))

        quiet = quiet + 1 if not (res.change.any() or weights_changed) else 0
        if quiet >= QUIET_ROUNDS_TO_STOP:
            break
        # A trace shows every round, so only an untraced run skips the idle
        # ones once no agent can offer while some pair disagrees: each
        # remaining offer round sends n - 1 messages per agent, and value
        # rounds send nothing. Agreeing agents raise no weight, so the quiet
        # rule ends their run and reports the actual round.
        if (not trace and value_round and breakout is not None
                and not breakout.can_offer.any()
                and not (values == values[0]).all()):
            messages += (n - 1) * n * (round_budget // 2 - rnd // 2)
            rounds_used = round_budget
            break

    outcome = metrics(inst, ledger, tuple(values.tolist()),
                      rounds=rounds_used, messages=messages,
                      penalty=params.penalty)
    return outcome, traces


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """The one number format of traces, CSVs and worked examples: ten
    significant digits (``inf``, ``-inf`` and ``nan`` as such)."""
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
                format_float(t.charged[i]),
                format_float(t.est_current[i]),
                format_float(t.est_next[i]),
                format_float(t.cum_privacy[i]),
            )))
    return "\n".join(lines) + "\n"


def write_trace(traces: Sequence[RoundTrace], out: TextIO) -> None:
    """Write the TSV trace to an open text file."""
    out.write(format_trace(traces))
