"""Per-agent reference simulator for the batched round loop in udcop.engine.

Every agent keeps its own state object, evaluates its own neighborhood one
neighbor at a time from the values it has heard and, for the breakout pair,
owns a dense int64[n, d, d] weight array. Privacy is charged from per-agent
sets of revealed values (every privacy table is keyed by value; the trace
shows the entry label, ``c<v>`` for kind ``udcoppc``). The logic follows
the protocol step by step, so it is slow but easy to check by eye;
tests compare `udcop.engine.run` against `run_reference` for identical
outcomes and traces. Unlike the engine, it keeps DBA's rule that only an
agent whose evaluation is nonzero (not ``consistent``) raises weights, so
the comparison also checks that this rule never changes a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from udcop.engine import QUIET_ROUNDS_TO_STOP, RoundTrace, metrics
from udcop.rng import STREAM_SOLVER, agent_stream


class SetLedger:
    """Once-only charges kept as per-agent sets of revealed values."""

    def __init__(self, inst):
        self.inst = inst
        self.entries = [set() for _ in range(inst.n)]
        self.cum = [0.0] * inst.n

    def record(self, agent, value) -> float:
        if value in self.entries[agent]:
            return 0.0
        self.entries[agent].add(value)
        cost = self.inst.reveal_cost(agent, value)
        self.cum[agent] += cost
        return cost


@dataclass(frozen=True)
class Ctx:
    index: int
    n: int
    d: int
    domain_values: tuple[int, ...]
    unary_map: dict
    privacy_map: dict
    eval_unary: np.ndarray       # float64[d], +inf outside the domain
    w_unit: float
    divisor_mode: str
    conflict_guard: bool


def make_ctx(inst, agent, params) -> Ctx:
    w_total = inst.finite_penalty(params.penalty)
    dom = tuple(sorted(inst.domains[agent]))
    eval_unary = np.full(inst.d, np.inf)
    for v in dom:
        eval_unary[v - 1] = inst.unary_cost(agent, v)
    return Ctx(agent, inst.n, inst.d, dom,
               {v: inst.unary_cost(agent, v) for v in dom if v in inst.unary[agent]},
               {v: inst.reveal_cost(agent, v) for v in dom},
               eval_unary, w_total / (inst.n - 1) if inst.n > 1 else 0.0,
               params.divisor_mode, not params.pure_alg2)


def local_eval(ctx: Ctx, neighbor_ids, neighbor_vals, weights=None) -> list[float]:
    """Unary cost plus w_unit times the weight of each disagreeing neighbor,
    with the conflict count kept as an integer."""
    out = []
    for v in range(ctx.d):
        conflict = 0
        for j, w in zip(neighbor_ids, neighbor_vals):
            if w >= 0 and w != v:
                conflict += 1 if weights is None else int(weights[j, v, w])
        out.append(float(ctx.eval_unary[v] + ctx.w_unit * float(conflict)))
    return out


def argmin(evals) -> int:
    return int(np.argmin(np.array(evals))) + 1


def estimate(ctx: Ctx, revealed) -> float:
    revealed = sorted(revealed)
    if not revealed:
        return 0.0
    if ctx.divisor_mode == "revealed":
        scale = 1.0 / len(revealed)
    elif ctx.divisor_mode == "domain":
        scale = 1.0 - (1.0 - 1.0 / len(ctx.domain_values))
    else:
        raise ValueError(ctx.divisor_mode)
    cost = sum(ctx.unary_map.get(v, 0.0) for v in revealed) * scale
    return cost + sum(ctx.privacy_map.get(v, 0.0) for v in revealed)


@dataclass
class Agent:
    ctx: Ctx
    rng: np.random.Generator
    value: int
    revealed: set = field(default_factory=set)
    pending_send: bool = True
    # breakout only
    weights: np.ndarray | None = None
    my_improve: float = 0.0
    new_value: int = 0
    consistent: bool = False

    def draw(self) -> int:
        dom = self.ctx.domain_values
        return dom[int(self.rng.integers(0, len(dom)))]


def dsa(a: Agent, ids, vals, p):
    evals = local_eval(a.ctx, ids, vals)
    cand = argmin(evals)
    cur, nxt = evals[a.value - 1], evals[cand - 1]
    return nxt < cur and a.rng.random() < p, cand, cur, nxt


def dsau(a: Agent, ids, vals):
    cand = a.draw()
    cur = estimate(a.ctx, a.revealed)
    nxt = estimate(a.ctx, a.revealed | {cand})
    change = nxt < cur
    if change and a.ctx.conflict_guard:
        evals = local_eval(a.ctx, ids, vals)
        change = not evals[cand - 1] > evals[a.value - 1]
    return change, cand, cur, nxt


def molex(a: Agent):
    cand = a.draw()
    cur = (a.ctx.privacy_map.get(a.value, 0.0), a.ctx.unary_map.get(a.value, 0.0))
    nxt = (a.ctx.privacy_map.get(cand, 0.0), a.ctx.unary_map.get(cand, 0.0))
    better = nxt[0] < cur[0] if nxt[0] != cur[0] else nxt[1] < cur[1]
    return better, cand, cur[0] + cur[1], nxt[0] + nxt[1]


def dbo_offer(a: Agent, ids, vals, gated):
    evals = local_eval(a.ctx, ids, vals, a.weights)
    current = evals[a.value - 1]
    possible = argmin(evals)
    improvement = current - evals[possible - 1]
    a.my_improve, a.new_value = 0.0, a.value
    gate_open = (not gated
                 or estimate(a.ctx, a.revealed | {possible}) < estimate(a.ctx, a.revealed))
    if gate_open and improvement > 0:
        a.my_improve, a.new_value = improvement, possible
    a.consistent = current == 0.0
    return False, possible, current, evals[possible - 1]


def dbo_resolve(a: Agent, ids, vals, offers):
    """Move iff strictly the best offer in the neighborhood (ties to the
    smallest agent id); raise every violated pair when nobody can move."""
    best, best_agent = a.my_improve, a.ctx.index
    for j in ids:
        if offers[j] > best or (offers[j] == best and j < best_agent):
            best, best_agent = offers[j], j
    raised = False
    if a.my_improve > 0 and best_agent == a.ctx.index:
        return (True, a.new_value, a.my_improve, a.my_improve), raised
    if best <= 0 and not a.consistent:
        own = a.value - 1
        for j, w in zip(ids, vals):
            if w >= 0 and w != own:
                a.weights[j, own, w] += 1
                raised = True
    return (False, a.new_value, a.my_improve, a.my_improve), raised


def run_reference(inst, solver, params, seed=0, round_budget=100):
    """Same contract as `udcop.engine.run`, one agent at a time."""
    n = inst.n
    breakout = solver in ("dbo", "dbou")
    agents = []
    for i in range(n):
        ctx = make_ctx(inst, i, params)
        rng = agent_stream(seed, STREAM_SOLVER, i)
        value = ctx.domain_values[int(rng.integers(0, len(ctx.domain_values)))]
        agents.append(Agent(ctx, rng, value))
        if breakout:
            agents[i].weights = np.ones((n, inst.d, inst.d), dtype=np.int64)
    ledger = SetLedger(inst)
    heard = [-1] * n
    traces, messages, quiet, rounds = [], 0, 0, 0
    for rnd in range(1, round_budget + 1):
        rounds = rnd
        value_round = not breakout or rnd % 2 == 1
        new_entries, charged = [()] * n, [0.0] * n
        senders = []
        for i, a in enumerate(agents):
            if value_round and a.pending_send:
                a.pending_send = False
                if a.value not in ledger.entries[i]:
                    new_entries[i] = (inst.reveal_entry(i, a.value),)
                charged[i] = ledger.record(i, a.value)
                a.revealed.add(a.value)
                senders.append(i)
                messages += n - 1
            elif not value_round:
                messages += n - 1
        for i in senders:
            heard[i] = agents[i].value - 1
        offers = [a.my_improve for a in agents]
        results, any_weight = [], False
        for i, a in enumerate(agents):
            ids = [j for j in range(n) if j != i]
            vals = [heard[j] for j in ids]
            if solver == "dsa":
                res = dsa(a, ids, vals, params.p)
            elif solver == "dsau":
                res = dsau(a, ids, vals)
            elif solver == "molex":
                res = molex(a)
            elif value_round:
                res = dbo_offer(a, ids, vals, solver == "dbou")
            else:
                res, raised = dbo_resolve(a, ids, vals, offers)
                any_weight = any_weight or raised
            results.append(res)
        for a, (change, cand, _, _) in zip(agents, results):
            if change:
                a.value = cand
                a.pending_send = True
        traces.append(RoundTrace(
            round=rnd,
            actions=tuple("change" if r[0] else "keep" for r in results),
            values=tuple(a.value for a in agents),
            revealed=tuple(new_entries),
            charged=tuple(charged),
            est_current=tuple(r[2] for r in results),
            est_next=tuple(r[3] for r in results),
            cum_privacy=tuple(float(c) for c in ledger.cum),
        ))
        any_change = any(r[0] for r in results)
        quiet = quiet + 1 if not (any_change or any_weight) else 0
        if quiet >= QUIET_ROUNDS_TO_STOP:
            break
    outcome = metrics(inst, ledger, tuple(a.value for a in agents),
                      rounds=rounds, messages=messages, penalty=params.penalty)
    return outcome, traces


def dense_weights(weights, n, d) -> np.ndarray:
    """int64[n, n, d, d]: agent i's breakout weight for the pair (self=v,
    neighbor j=w) at [i, j, v, w], rebuilt from `solvers.ExcessWeights`."""
    dense = np.ones((n, n, d, d), dtype=np.int64)
    i, j, w, v = np.unravel_index(weights.keys, (n, n, d, d))
    dense[i, j, v, w] += weights.counts
    return dense
