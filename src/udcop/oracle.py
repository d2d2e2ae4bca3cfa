"""Exact solvers.

`exact_optimum` finds the optimum of any instance in O(n*d) from the
problem's structure; `udcop oracle` prints it. `exact_optimum_dms` is the
best all-equal assignment, and the full enumerator `exact_optimum_enum`
is the independent cross-check for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from udcop.model import Instance, solution_cost

DEFAULT_ENUM_LIMIT = 10 ** 6


class SearchSpaceError(ValueError):
    """The assignment space exceeds the enumeration limit."""


@dataclass(frozen=True)
class OracleResult:
    assignment: tuple[int, ...]
    cost: float


def exact_optimum_dms(inst: Instance) -> OracleResult:
    """Optimum over all-equal assignments: argmin_v Σ_i unary_i(v), ties
    toward the smallest value. O(n*d)."""
    common = set(inst.domains[0]).intersection(*inst.domains[1:])
    if not common:
        raise ValueError("agents share no common value; no all-equal assignment exists")
    costs = {v: sum(inst.unary_cost(i, v) for i in range(inst.n)) for v in sorted(common)}
    best_v = min(costs, key=costs.__getitem__)
    return OracleResult(assignment=(best_v,) * inst.n, cost=costs[best_v])


def exact_optimum_enum(inst: Instance, limit: int = DEFAULT_ENUM_LIMIT) -> OracleResult:
    """Optimum by full enumeration of the assignment space.

    Iterates domains in ascending order and keeps the first strict
    improvement, so ties resolve to the lexicographically smallest
    optimal assignment; raises ValueError when every assignment costs inf.
    """
    size = 1
    for dom in inst.domains:
        size *= len(dom)
        if size > limit:
            raise SearchSpaceError(
                f"assignment space exceeds the limit of {limit} (≥ {size})")
    best: tuple[int, ...] | None = None
    best_cost = math.inf
    for assignment in itertools.product(*(sorted(dom) for dom in inst.domains)):
        cost = solution_cost(inst, assignment)
        if cost < best_cost:
            best, best_cost = assignment, cost
    if best is None:
        raise ValueError("every assignment costs inf")
    return OracleResult(assignment=best, cost=best_cost)


def exact_optimum(inst: Instance) -> OracleResult:
    """Optimum of any instance in O(n*d), ties toward the lexicographically
    smallest assignment; raises ValueError when every assignment costs inf.

    An optimum either agrees, and then `exact_optimum_dms` finds it, or
    pays the penalty once, and then each agent's cheapest value (smallest
    on ties) is best. The cheaper of the two wins.
    """
    cheapest = tuple(min(sorted(dom), key=lambda v, i=i: inst.unary_cost(i, v))
                     for i, dom in enumerate(inst.domains))
    candidates = [OracleResult(cheapest, solution_cost(inst, cheapest))]
    try:
        candidates.append(exact_optimum_dms(inst))
    except ValueError:      # no common value: no assignment agrees
        pass
    best = min(candidates, key=lambda c: (c.cost, c.assignment))
    if best.cost == math.inf:
        raise ValueError("every assignment costs inf")
    return best
