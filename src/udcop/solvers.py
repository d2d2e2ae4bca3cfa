"""Step logic of the five solvers, one array step for all agents per round.

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

Every step takes the round state of all agents as arrays -- ``values``
(int64[n], 1-based) and, where the estimate needs it, ``revealed``
(bool[n, d], the values each agent has announced) -- and returns one
`StepResult` for all agents. The all-equal constraint links every pair of
agents, so each agent's neighborhood is all the other agents, and every
current value has been announced to all of them before a step runs: the
steps evaluate against ``values - 1``. Random draws come from each agent's
own stream, in the same order as a per-agent loop would make them. Value
adoption and reveal accounting are applied by the engine.

The steps read `AgentTables`: `build_agent_context` prepares one agent's
own rows, and `stack_contexts` stacks them and fixes the run's penalty
share, divisor mode and conflict guard once, deriving the evaluation
table and the domain sizes once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from udcop import kernels
from udcop.model import Instance

SOLVER_KINDS = ("dsa", "dsau", "dbo", "dbou", "molex")
DIVISOR_MODES = ("revealed", "domain")


# ---------------------------------------------------------------------------
# Agent-local context and the stacked tables of all agents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentContext:
    """One agent's own slice of an instance, as rows over the values 1..d."""

    domain_values: tuple[int, ...]  # sorted
    in_domain: np.ndarray           # bool[d]
    unary: np.ndarray               # float64[d], 0 for values without a cost
    privacy: np.ndarray             # float64[d], reveal cost of each value


def build_agent_context(inst: Instance, agent: int) -> AgentContext:
    """Prepare an agent's rows of the unary and privacy tables."""
    dom = tuple(sorted(inst.domains[agent]))
    in_domain = np.zeros(inst.d, dtype=bool)
    unary = np.zeros(inst.d, dtype=np.float64)
    privacy = np.zeros(inst.d, dtype=np.float64)
    for v in dom:
        in_domain[v - 1] = True
        unary[v - 1] = inst.unary_cost(agent, v)
        privacy[v - 1] = inst.reveal_cost(agent, v)
    return AgentContext(dom, in_domain, unary, privacy)


@dataclass(frozen=True)
class AgentTables:
    """The contexts of all agents stacked into (n, d) tables, with the
    solver parameters of one run."""

    domains: tuple[tuple[int, ...], ...]
    domain_sizes: np.ndarray        # int64[n]
    in_domain: np.ndarray           # bool[n, d]
    unary: np.ndarray               # float64[n, d]
    privacy: np.ndarray             # float64[n, d]
    eval_unary: np.ndarray          # float64[n, d], +inf outside the domain
    w_unit: float                   # per-conflicting-pair penalty W/(n-1)
    divisor_mode: str
    conflict_guard: bool


def stack_contexts(contexts: Sequence[AgentContext], penalty: float,
                   divisor_mode: str = "revealed",
                   conflict_guard: bool = True) -> AgentTables:
    """Stack per-agent contexts (agent i at index i) for a run with the
    disagreement penalty W = `penalty`, split into W/(n-1) per neighbor
    pair so that a fully conflicting agent pays about W."""
    n = len(contexts)
    in_domain = np.stack([c.in_domain for c in contexts])
    unary = np.stack([c.unary for c in contexts])
    return AgentTables(
        domains=tuple(c.domain_values for c in contexts),
        domain_sizes=in_domain.sum(axis=1),
        in_domain=in_domain,
        unary=unary,
        privacy=np.stack([c.privacy for c in contexts]),
        eval_unary=np.where(in_domain, unary, np.inf),
        w_unit=penalty / (n - 1) if n > 1 else 0.0,
        divisor_mode=divisor_mode,
        conflict_guard=conflict_guard,
    )


@dataclass
class ExcessWeights:
    """Breakout weights above their initial 1, kept only for raised entries.

    `keys` are ascending flat indices of (agent, neighbor, neighbor_code,
    own_code) entries (see `kernels.weight_keys`) and `counts` the excess
    of each, so memory follows the entries raised rather than n²d².
    """

    keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def local_eval_all(tables: AgentTables, values: np.ndarray,
                   weights: ExcessWeights | None = None) -> np.ndarray:
    """float64[n, d]: every agent's evaluation of every value -- unary cost
    plus conflict penalties against the other agents' current values,
    weighted by `weights` when given."""
    if weights is None:
        return kernels.eval_all_unit(tables.eval_unary, values - 1, tables.w_unit)
    return kernels.eval_all_weighted(tables.eval_unary, values - 1, tables.w_unit,
                                     weights.keys, weights.counts)


def draw_values(tables: AgentTables, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """int64[n]: a uniform draw from each agent's domain on its own stream."""
    return np.array([dom[int(rng.integers(0, len(dom)))]
                     for dom, rng in zip(tables.domains, rngs)], dtype=np.int64)


def _at(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each agent's entry of an (n, d) table at its 1-based value."""
    return table[np.arange(len(values)), values - 1]


# ---------------------------------------------------------------------------
# Revelation-aware cost estimate
# ---------------------------------------------------------------------------

def utility_risk(domain_size):
    """Apriori chance that a value of a |D|-sized domain is not final: 1 - 1/|D|.

    Accepts one size or an array of sizes.
    """
    if np.any(np.asarray(domain_size) < 1):
        raise ValueError(f"domain_size ≥ 1 required, got {domain_size}")
    return 1.0 - 1.0 / domain_size


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    # A running sum in ascending value order, as a Python loop starting at 0
    # would add: numpy's pairwise row sum rounds non-integer costs
    # differently, and `+ 0.0` turns the -0.0 a loop never yields into 0.0.
    return np.add.accumulate(x, axis=-1)[..., -1] + 0.0


def estimate_cost(unary: np.ndarray, privacy: np.ndarray, revealed: np.ndarray,
                  domain_size, divisor_mode: str = "revealed") -> np.ndarray:
    """Cost estimate of each revelation state: mean unary cost of the
    revealed values plus the sum of their revelation costs.

    `unary`, `privacy` and the mask `revealed` are float/bool[..., d] with
    one row per agent; `domain_size` broadcasts against the leading shape.
    ``revealed`` mode averages over the revealed set; ``domain`` mode weights
    each revealed cost by its survival probability 1 - utility_risk(|D|).
    An empty revealed set estimates to 0.
    """
    if divisor_mode == "revealed":
        scale = 1.0 / np.maximum(revealed.sum(axis=-1), 1)
    elif divisor_mode == "domain":
        scale = 1.0 - utility_risk(domain_size)
    else:
        raise ValueError(f"divisor_mode must be one of {DIVISOR_MODES}, got {divisor_mode!r}")
    cost = _ordered_sum(np.where(revealed, unary, 0.0)) * scale
    return cost + _ordered_sum(np.where(revealed, privacy, 0.0))


def _estimate(tables: AgentTables, revealed: np.ndarray) -> np.ndarray:
    return estimate_cost(tables.unary, tables.privacy, revealed,
                         tables.domain_sizes, tables.divisor_mode)


def _also_revealing(revealed: np.ndarray, values: np.ndarray) -> np.ndarray:
    grown = revealed.copy()
    grown[np.arange(len(values)), values - 1] = True
    return grown


# ---------------------------------------------------------------------------
# Step results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepResult:
    """All agents' decisions in one round; a changing agent adopts its candidate."""

    change: np.ndarray          # bool[n]
    candidate: np.ndarray       # int64[n]
    est_current: np.ndarray     # float64[n]
    est_next: np.ndarray        # float64[n]


# ---------------------------------------------------------------------------
# DSA family
# ---------------------------------------------------------------------------

def dsa_step(tables: AgentTables, values: np.ndarray, p: float,
             rngs: Sequence[np.random.Generator]) -> StepResult:
    """Move to the best-evaluated value (ties toward the smallest id) with
    probability p when it strictly beats the current one; an agent draws
    its activation coin only when such an improvement exists."""
    evals = local_eval_all(tables, values)
    candidate = evals.argmin(axis=1) + 1
    est_cur = _at(evals, values)
    est_next = _at(evals, candidate)
    change = est_next < est_cur
    for i in np.flatnonzero(change):
        change[i] = rngs[i].random() < p
    return StepResult(change, candidate, est_cur, est_next)


def dsau_step(tables: AgentTables, values: np.ndarray, revealed: np.ndarray,
              rngs: Sequence[np.random.Generator]) -> StepResult:
    """Each agent considers one uniformly drawn candidate and
    adopts it only when revealing it strictly lowers the cost estimate.

    With the conflict guard (default) the candidate must additionally not
    worsen the local evaluation against the current values; pure
    estimate-only behavior is available via conflict_guard=False.
    """
    candidate = draw_values(tables, rngs)
    est_cur = _estimate(tables, revealed)
    est_next = _estimate(tables, _also_revealing(revealed, candidate))
    change = est_next < est_cur
    if tables.conflict_guard and change.any():
        evals = local_eval_all(tables, values)
        change &= ~(_at(evals, candidate) > _at(evals, values))
    return StepResult(change, candidate, est_cur, est_next)


# ---------------------------------------------------------------------------
# Lexicographic (privacy, cost) baseline
# ---------------------------------------------------------------------------

def mo_lex_compare(candidate_pair, current_pair):
    """True where the candidate (privacy, cost) pair is strictly better in
    lexicographic order with privacy first (scalars or arrays)."""
    return np.where(candidate_pair[0] != current_pair[0],
                    candidate_pair[0] < current_pair[0],
                    candidate_pair[1] < current_pair[1])


def modcop_dsa_step(tables: AgentTables, values: np.ndarray,
                    rngs: Sequence[np.random.Generator]) -> StepResult:
    """Adopt a uniformly drawn candidate iff its pair wins lexicographically."""
    candidate = draw_values(tables, rngs)
    cur = (_at(tables.privacy, values), _at(tables.unary, values))
    cand = (_at(tables.privacy, candidate), _at(tables.unary, candidate))
    return StepResult(mo_lex_compare(cand, cur), candidate,
                      cur[0] + cur[1], cand[0] + cand[1])


# ---------------------------------------------------------------------------
# Breakout family
# ---------------------------------------------------------------------------

@dataclass
class BreakoutState:
    """Offer-exchange state of all agents of a dbo / dbou run."""

    offers: np.ndarray          # float64[n]: improvement offered, 0 for none
    new_values: np.ndarray      # int64[n]: value taken if the offer wins
    weights: ExcessWeights = field(default_factory=ExcessWeights)


def new_breakout_state(values: np.ndarray) -> BreakoutState:
    return BreakoutState(offers=np.zeros(len(values)), new_values=values.copy())


def dbo_send_improve(state: BreakoutState, tables: AgentTables, values: np.ndarray,
                     revealed: np.ndarray, gate_estimates: bool = False) -> StepResult:
    """Compute every agent's best possible improvement and its offer.

    Updates the offers and target values on `state`. With `gate_estimates`
    (dbou) an offer is withdrawn unless revealing the best value strictly
    lowers the cost estimate.
    """
    evals = local_eval_all(tables, values, state.weights)
    possible = evals.argmin(axis=1) + 1
    current = _at(evals, values)
    best = _at(evals, possible)
    # best < current, not current - best > 0: for an agent whose every
    # value costs inf the difference is inf - inf = nan
    offer = best < current
    if gate_estimates:
        offer &= (_estimate(tables, _also_revealing(revealed, possible))
                  < _estimate(tables, revealed))
    state.offers = np.subtract(current, best, out=np.zeros(len(values)), where=offer)
    state.new_values = np.where(offer, possible, values)
    return StepResult(np.zeros(len(values), dtype=bool), possible, current, best)


def dbo_resolve(state: BreakoutState, tables: AgentTables,
                values: np.ndarray) -> tuple[StepResult, np.ndarray]:
    """Decide the move and the weight increments from the offer exchange.

    Every agent sees every offer, so the single mover is the first agent
    with the greatest offer (ties to the smallest id), if that offer is
    positive. When no offer is positive, every agent raises by 1 the weight
    of each pair it currently violates with another agent. (DBA's gate,
    "only agents with a nonzero evaluation", changes nothing: with a
    per-pair penalty above 0 an evaluation of 0 means no violated pair.)

    Returns the step result and the raised entries as weight keys; apply
    them with :func:`apply_weight_increments`.
    """
    n, d = tables.eval_unary.shape
    mover = int(np.argmax(state.offers))
    change = np.zeros(n, dtype=bool)
    increments = np.empty(0, dtype=np.int64)
    if state.offers[mover] > 0:
        change[mover] = True
    else:
        codes = values - 1
        agent, neighbor = np.nonzero(codes != codes[:, None])
        increments = kernels.weight_keys(n, d, agent, neighbor, codes[neighbor], codes[agent])
    return StepResult(change, state.new_values, state.offers, state.offers), increments


def breakout_stuck(tables: AgentTables, values: np.ndarray, state: BreakoutState,
                   revealed: np.ndarray, gate_estimates: bool = False) -> bool:
    """True when, from a round with no offer on, no agent can ever offer.

    While nobody moves, a weight round raises only entries (i, j, code_j,
    code_i), which enter agent i's evaluation of its current value alone,
    and `revealed` stays fixed. So agent i's only possible offer is v*_i,
    its best other value (smallest on ties), at a fixed evaluation and
    with a fixed gate verdict. When no agent has a finite v*_i that passes
    the gate, nobody offers again, and as long as some pair disagrees every
    offer round raises weights, so the run goes on idle to its budget.
    """
    if (values == values[0]).all():    # no weight to raise: the quiet rule stops it
        return False
    evals = local_eval_all(tables, values, state.weights)
    evals[np.arange(len(values)), values - 1] = np.inf
    others = evals.argmin(axis=1) + 1
    can_offer = np.isfinite(_at(evals, others))
    if gate_estimates:
        can_offer &= (_estimate(tables, _also_revealing(revealed, others))
                      < _estimate(tables, revealed))
    return not can_offer.any()


def apply_weight_increments(weights: ExcessWeights, increments: np.ndarray) -> None:
    """Raise the weight of each entry in `increments` (distinct keys) by 1."""
    if increments.size == 0:
        return
    keys, inverse = np.unique(np.concatenate((weights.keys, increments)),
                              return_inverse=True)
    counts = np.concatenate((weights.counts, np.ones(increments.size, dtype=np.int64)))
    weights.keys = keys
    weights.counts = np.bincount(inverse, weights=counts).astype(np.int64)
