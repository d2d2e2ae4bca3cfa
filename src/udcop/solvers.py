"""Per-agent step logic for the five solvers.

* ``dsa``   -- stochastic local search: move to the best-evaluated value
  with activation probability p when it strictly improves.
* ``dsau``  -- privacy-aware variant: a uniformly drawn candidate is adopted
  only when the revelation-aware cost estimate strictly decreases (and, by
  default, the candidate does not worsen the local evaluation).
* ``dbo``   -- breakout: exchange best-improvement offers, let the single
  best improver in the neighborhood move, and raise weights of violated
  pairs when nobody can improve.
* ``dbou``  -- breakout gated by the same revelation-aware estimate.
* ``molex`` -- baseline that compares (privacy, cost) pairs of candidate
  and current value lexicographically, privacy first.

All step functions are deterministic given (state, view, rng draws); value
adoption and reveal accounting are applied by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from udcop import kernels
from udcop.model import Instance

SOLVER_KINDS = ("dsa", "dsau", "dbo", "dbou", "molex")


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueMsg:
    sender: int
    value: int


@dataclass(frozen=True)
class ImproveMsg:
    sender: int
    improve: float
    eval: float
    termination_counter: int


# ---------------------------------------------------------------------------
# Agent-local context and evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentContext:
    """Read-only per-agent slice of an instance, prepared for the hot loop."""

    index: int
    n: int
    d: int
    domain_values: tuple[int, ...]
    unary_map: Mapping[int, float]
    privacy_map: Mapping[int, float]
    eval_unary: np.ndarray          # float64[d], +inf outside the domain
    w_unit: float                   # per-conflicting-pair penalty
    divisor_mode: str = "revealed"
    conflict_guard: bool = True


def build_agent_context(inst: Instance, agent: int, *, penalty: float | None = None,
                        divisor_mode: str = "revealed",
                        conflict_guard: bool = True) -> AgentContext:
    """Prepare an agent's evaluation tables.

    `penalty` overrides the total disagreement penalty W; it is split into
    W/(n-1) per neighbor pair so a fully conflicting agent pays about W.
    """
    w_total = float(penalty) if penalty is not None else inst.penalty_surrogate()
    w_unit = w_total / (inst.n - 1) if inst.n > 1 else 0.0
    dom = tuple(sorted(inst.domains[agent]))
    eval_unary = np.full(inst.d, np.inf, dtype=np.float64)
    for v in dom:
        eval_unary[v - 1] = inst.unary_cost(agent, v)
    privacy = {v: inst.reveal_cost(agent, v) for v in dom}
    unary = {v: inst.unary_cost(agent, v) for v in dom if v in inst.unary[agent]}
    return AgentContext(
        index=agent,
        n=inst.n,
        d=inst.d,
        domain_values=dom,
        unary_map=unary,
        privacy_map=privacy,
        eval_unary=eval_unary,
        w_unit=w_unit,
        divisor_mode=divisor_mode,
        conflict_guard=conflict_guard,
    )


def local_eval_all(ctx: AgentContext, neighbor_vals: np.ndarray,
                   weights: np.ndarray | None = None,
                   neighbor_ids: np.ndarray | None = None) -> np.ndarray:
    """Evaluate every value: unary cost plus conflict penalties against the
    visible neighbor values (codes are 0-based; negative codes mean the
    neighbor has not been heard from and are skipped)."""
    vals = np.asarray(neighbor_vals, dtype=np.int64)
    known = vals >= 0
    if not known.all():
        vals = vals[known]
        if neighbor_ids is not None:
            neighbor_ids = np.asarray(neighbor_ids, dtype=np.int64)[known]
    if weights is None:
        return kernels.eval_all_unit(ctx.eval_unary, vals, ctx.w_unit)
    return kernels.eval_all_weighted(ctx.eval_unary,
                                     np.asarray(neighbor_ids, dtype=np.int64),
                                     vals, weights, ctx.w_unit)


def _best_value(ctx: AgentContext, evals: np.ndarray) -> int:
    # np.argmin takes the first minimum, i.e. the smallest value id.
    return int(np.argmin(evals)) + 1


# ---------------------------------------------------------------------------
# Revelation-aware cost estimate
# ---------------------------------------------------------------------------

def utility_risk(domain_size: int) -> float:
    """Apriori chance that a value of a |D|-sized domain is not final: 1 - 1/|D|."""
    if domain_size < 1:
        raise ValueError(f"domain_size ≥ 1 required, got {domain_size}")
    return 1.0 - 1.0 / domain_size


@dataclass(frozen=True)
class EstimateInputs:
    unary: Mapping[int, float]
    privacy: Mapping[int, float]
    domain_size: int
    revealed: frozenset[int]


def estimate_cost(inputs: EstimateInputs, divisor_mode: str = "revealed") -> float:
    """Cost estimate of a revelation state: mean unary cost of the revealed
    values plus the sum of their revelation costs.

    ``revealed`` mode averages over the revealed set; ``domain`` mode weights
    each revealed cost by its survival probability 1 - utility_risk(|D|).
    An empty revealed set estimates to 0.
    """
    revealed = sorted(inputs.revealed)
    if not revealed:
        return 0.0
    if divisor_mode == "revealed":
        scale = 1.0 / len(revealed)
    elif divisor_mode == "domain":
        scale = 1.0 - utility_risk(inputs.domain_size)
    else:
        raise ValueError(f"divisor_mode must be 'revealed' or 'domain', got {divisor_mode!r}")
    cost = sum(inputs.unary.get(v, 0.0) for v in revealed) * scale
    privacy = sum(inputs.privacy.get(v, 0.0) for v in revealed)
    return cost + privacy


def _estimate(ctx: AgentContext, revealed) -> float:
    return estimate_cost(
        EstimateInputs(ctx.unary_map, ctx.privacy_map, len(ctx.domain_values),
                       frozenset(revealed)),
        ctx.divisor_mode,
    )


# ---------------------------------------------------------------------------
# Solver states and step results
# ---------------------------------------------------------------------------

@dataclass
class DsaState:
    """State shared by the value-proposing solvers (dsa, dsau, molex)."""

    value: int
    p: float = 0.6
    revealed: set = field(default_factory=set)


@dataclass
class DboState:
    value: int
    weights: np.ndarray                 # int64[n, d, d], all ≥ 1
    revealed: set = field(default_factory=set)
    my_improve: float = 0.0
    new_value: int = 0
    consistent: bool = False
    can_move: bool = False
    quasi_local_minimum: bool = False
    termination_counter: int = 0


def new_dbo_state(value: int, n: int, d: int) -> DboState:
    return DboState(value=value, weights=np.ones((n, d, d), dtype=np.int64),
                    new_value=value)


@dataclass(frozen=True)
class StepResult:
    action: str                 # "keep" | "change"
    value: int                  # current value after the step
    candidate: int | None
    est_current: float
    est_next: float


def _keep(state_value: int, candidate: int | None, est_cur: float,
          est_next: float) -> StepResult:
    return StepResult("keep", state_value, candidate, est_cur, est_next)


def _change(new_value: int, candidate: int, est_cur: float,
            est_next: float) -> StepResult:
    return StepResult("change", new_value, candidate, est_cur, est_next)


def _draw_value(ctx: AgentContext, rng: np.random.Generator) -> int:
    return ctx.domain_values[int(rng.integers(0, len(ctx.domain_values)))]


# ---------------------------------------------------------------------------
# DSA family
# ---------------------------------------------------------------------------

def dsa_step(state: DsaState, ctx: AgentContext, neighbor_vals,
             rng: np.random.Generator) -> StepResult:
    """Move to the best-evaluated value (ties toward the smallest id) with
    probability p when it strictly beats the current one; the activation
    coin is drawn only when such an improvement exists."""
    evals = local_eval_all(ctx, neighbor_vals)
    candidate = _best_value(ctx, evals)
    est_cur = float(evals[state.value - 1])
    est_next = float(evals[candidate - 1])
    if est_next < est_cur and rng.random() < state.p:
        return _change(candidate, candidate, est_cur, est_next)
    return _keep(state.value, candidate, est_cur, est_next)


def dsau_step(state: DsaState, ctx: AgentContext, neighbor_vals,
              rng: np.random.Generator, candidate: int | None = None) -> StepResult:
    """Consider one uniformly drawn candidate; adopt it only when revealing
    it strictly lowers the cost estimate.

    With the conflict guard (default) the candidate must additionally not
    worsen the local evaluation against the current neighbor values; pure
    estimate-only behavior is available via ctx.conflict_guard=False.
    """
    if candidate is None:
        candidate = _draw_value(ctx, rng)
    est_cur = _estimate(ctx, state.revealed)
    est_next = _estimate(ctx, state.revealed | {candidate})
    if est_next < est_cur:
        if ctx.conflict_guard:
            evals = local_eval_all(ctx, neighbor_vals)
            if evals[candidate - 1] > evals[state.value - 1]:
                return _keep(state.value, candidate, est_cur, est_next)
        return _change(candidate, candidate, est_cur, est_next)
    return _keep(state.value, candidate, est_cur, est_next)


# ---------------------------------------------------------------------------
# Lexicographic (privacy, cost) baseline
# ---------------------------------------------------------------------------

def mo_lex_compare(candidate_pair: tuple[float, float],
                   current_pair: tuple[float, float]) -> bool:
    """True iff the candidate (privacy, cost) pair is strictly better in
    lexicographic order with privacy first."""
    if candidate_pair[0] != current_pair[0]:
        return candidate_pair[0] < current_pair[0]
    return candidate_pair[1] < current_pair[1]


def _lex_pair(ctx: AgentContext, value: int) -> tuple[float, float]:
    return (ctx.privacy_map.get(value, 0.0), ctx.unary_map.get(value, 0.0))


def modcop_dsa_step(state: DsaState, ctx: AgentContext,
                    rng: np.random.Generator, candidate: int | None = None) -> StepResult:
    """Adopt a uniformly drawn candidate iff its pair wins lexicographically."""
    if candidate is None:
        candidate = _draw_value(ctx, rng)
    cur = _lex_pair(ctx, state.value)
    cand = _lex_pair(ctx, candidate)
    est_cur = cur[0] + cur[1]
    est_next = cand[0] + cand[1]
    if mo_lex_compare(cand, cur):
        return _change(candidate, candidate, est_cur, est_next)
    return _keep(state.value, candidate, est_cur, est_next)


# ---------------------------------------------------------------------------
# Breakout family
# ---------------------------------------------------------------------------

def dbo_send_improve(state: DboState, ctx: AgentContext, neighbor_ids,
                     neighbor_vals, gate_estimates: bool = False
                     ) -> tuple[ImproveMsg, StepResult]:
    """Compute the best possible improvement and the improve message.

    Updates the offer fields on `state` (my_improve, new_value, consistent,
    can_move, quasi_local_minimum, termination_counter). With
    `gate_estimates` (dbou) the offer is withdrawn unless revealing the
    best value strictly lowers the cost estimate.
    """
    evals = local_eval_all(ctx, neighbor_vals, weights=state.weights,
                           neighbor_ids=neighbor_ids)
    current_eval = float(evals[state.value - 1])
    possible = _best_value(ctx, evals)
    improvement = current_eval - float(evals[possible - 1])

    state.my_improve = 0.0
    state.new_value = state.value
    gate_open = True
    if gate_estimates:
        gate_open = _estimate(ctx, state.revealed | {possible}) < _estimate(ctx, state.revealed)
    if gate_open and improvement > 0:
        state.my_improve = improvement
        state.new_value = possible

    state.consistent = current_eval == 0.0
    if state.consistent:
        state.termination_counter += 1
    else:
        state.termination_counter = 0
    state.can_move = state.my_improve > 0
    state.quasi_local_minimum = not state.can_move

    msg = ImproveMsg(ctx.index, state.my_improve, current_eval,
                     state.termination_counter)
    return msg, _keep(state.value, possible, current_eval, float(evals[possible - 1]))


def dbo_resolve(state: DboState, ctx: AgentContext,
                improve_msgs: Mapping[int, ImproveMsg], neighbor_ids,
                neighbor_vals) -> tuple[StepResult, list[tuple[int, int, int]]]:
    """Decide the move and the weight increments from the improve exchange.

    The agent moves iff its improvement is strictly greatest in the
    neighborhood, ties broken toward the smallest agent id. When nobody in
    the neighborhood can improve and the agent is inconsistent, every pair
    currently violated with a neighbor gets its weight raised by 1.

    Returns the step result and the increments as (neighbor, own_code,
    neighbor_code) triples; apply them with :func:`apply_weight_increments`.
    """
    best_improve = state.my_improve
    best_agent = ctx.index
    for j in neighbor_ids:
        msg = improve_msgs.get(int(j))
        improve = msg.improve if msg is not None else 0.0
        if improve > best_improve or (improve == best_improve and int(j) < best_agent):
            best_improve = improve
            best_agent = int(j)

    increments: list[tuple[int, int, int]] = []
    est = state.my_improve
    if state.can_move and best_agent == ctx.index:
        return _change(state.new_value, state.new_value, est, est), increments

    if best_improve <= 0 and not state.consistent:
        cur_code = state.value - 1
        for j, vj in zip(neighbor_ids, neighbor_vals):
            if vj >= 0 and vj != cur_code:
                increments.append((int(j), cur_code, int(vj)))
    return _keep(state.value, state.new_value, est, est), increments


def apply_weight_increments(state: DboState,
                            increments: list[tuple[int, int, int]]) -> None:
    for j, own_code, nb_code in increments:
        state.weights[j, own_code, nb_code] += 1
