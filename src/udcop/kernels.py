"""Numpy evaluation kernels of the round loop.

Both functions score every value of an agent's slot range at once: the
unary cost plus a penalty for each visible neighbor holding a different
value. Conflicts are counted in integer arithmetic and scaled by the
per-pair penalty once at the end, so a result does not depend on the
order in which the neighbors are summed.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the evaluation backend, as reported in benchmark output."""
    return "python"


def eval_all_unit(unary_eval, neighbor_vals, w_unit):
    """Evaluation of every value: unary cost + w_unit per disagreeing neighbor.

    unary_eval: float64[d], +inf on slots outside the agent's domain.
    neighbor_vals: int64[m], 0-based value codes of the visible neighbors.
    """
    d = unary_eval.shape[0]
    m = neighbor_vals.shape[0]
    counts = np.bincount(neighbor_vals, minlength=d)
    return unary_eval + w_unit * (m - counts).astype(np.float64)


def eval_all_weighted(unary_eval, neighbor_ids, neighbor_vals, weights, w_unit):
    """Weighted variant: each disagreeing pair contributes its breakout weight.

    weights: int64[n, d, d]; weights[j, v, w] is this agent's weight for the
    pair (self=v, neighbor j=w). Unviolated pairs keep their initial weight 1.
    """
    d = unary_eval.shape[0]
    picked = weights[neighbor_ids, :, neighbor_vals]          # (m, d)
    mask = neighbor_vals[:, None] != np.arange(d)[None, :]
    conflict = (picked * mask).sum(axis=0, dtype=np.int64)
    return unary_eval + w_unit * conflict.astype(np.float64)
