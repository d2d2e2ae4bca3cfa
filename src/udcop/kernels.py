"""Numpy evaluation kernels of the round loop.

Both evaluation functions score every value of every agent at once: the
unary cost plus a penalty for each other agent on a different value.
Every agent's current value has been announced to all others before any
step reads it, so the kernels take the agents' current 0-based codes.
Conflicts are counted in integer arithmetic and scaled by the per-pair
penalty once at the end, so a result does not depend on the order in which
the agents are summed. This module also owns the flat key layout of the
sparse breakout weights.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the evaluation backend, as reported in benchmark output."""
    return "python"


def _conflicts(codes, d):
    """int64[n, d]: for agent i and code v, the other agents on a code
    other than v, i.e. (n-1) - bincount(codes)[v] + [codes_i == v]."""
    n = len(codes)
    conflicts = np.full((n, 1), n - 1) - np.bincount(codes, minlength=d)
    conflicts[np.arange(n), codes] += 1
    return conflicts


def eval_all_unit(unary_eval, codes, w_unit):
    """Evaluation of every value: unary cost + w_unit per disagreeing agent.

    unary_eval: float64[n, d], +inf on slots outside each agent's domain.
    codes: int64[n], each agent's current 0-based code.
    """
    return unary_eval + w_unit * _conflicts(codes, unary_eval.shape[1]).astype(np.float64)


def weight_keys(n, d, agent, neighbor, neighbor_code, own_code):
    """Flat keys ((agent·n + neighbor)·d + neighbor_code)·d + own_code of
    breakout weight entries: agent's weight for the pair (self = own_code,
    neighbor = neighbor_code)."""
    return np.ravel_multi_index((agent, neighbor, neighbor_code, own_code), (n, n, d, d))


def eval_all_weighted(unary_eval, codes, w_unit, keys, counts):
    """Weighted variant: each disagreeing pair contributes its breakout weight.

    The weights are 1 plus an excess given sparsely: `counts[k]` for the
    entry at `keys[k]` (see `weight_keys`). Raised entries always pair two
    different codes, so an entry adds to the conflicts exactly when its
    neighbor is on its neighbor_code.
    """
    n, d = unary_eval.shape
    agent, neighbor, neighbor_code, own_code = np.unravel_index(keys, (n, n, d, d))
    live = neighbor_code == codes[neighbor]
    excess = np.bincount(agent[live] * d + own_code[live], weights=counts[live],
                         minlength=n * d).astype(np.int64)
    conflicts = _conflicts(codes, d) + excess.reshape(n, d)
    return unary_eval + w_unit * conflicts.astype(np.float64)
