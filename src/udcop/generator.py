"""Seeded generator of distributed meeting-scheduling instances.

The recipe, applied independently per agent from its derived stream
(``SeedSequence([seed, 0, agent])``, PCG64):

1. one variable per agent;
2. domain {1..d};
3. the global all-equal constraint (infinite penalty);
4. exactly round(density * d) distinct values get a unary constraint,
   chosen uniformly without replacement (half-up rounding, so 2.5 -> 3);
5. each of those constraints costs an integer uniform in [0, cost_max],
   drawn in ascending value order;
6. every value of every agent gets a revelation cost uniform in
   [0, privacy_max], drawn in ascending value order.

A zero-cost unary constraint still counts toward the density. A `GenConfig`
checks itself when built, and equal configs give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from udcop.model import Instance
from udcop.rng import STREAM_GENERATION, agent_stream, check_seed, round_half_up

GENERATED_KINDS = ("udcop", "udcoppc")


@dataclass(frozen=True)
class GenConfig:
    """Generator inputs, checked when built: a ValueError names the field."""

    n: int
    d: int
    density: float
    seed: int
    cost_max: int = 9
    privacy_max: int = 9
    kind: str = "udcop"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n: must be ≥ 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d: must be ≥ 1, got {self.d}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density: must lie in [0, 1], got {self.density}")
        if self.cost_max < 0:
            raise ValueError(f"cost_max: must be ≥ 0, got {self.cost_max}")
        if self.privacy_max < 0:
            raise ValueError(f"privacy_max: must be ≥ 0, got {self.privacy_max}")
        check_seed(self.seed, "seed")
        if self.kind not in GENERATED_KINDS:
            raise ValueError(f"kind: must be {' or '.join(map(repr, GENERATED_KINDS))}, "
                             f"got {self.kind!r}")


def generate(cfg: GenConfig) -> Instance:
    """Generate one meeting-scheduling instance from the (checked) config."""
    k = round_half_up(cfg.density * cfg.d)
    domains = []
    unary = []
    privacy = []
    for agent in range(cfg.n):
        rng = agent_stream(cfg.seed, STREAM_GENERATION, agent)
        constrained = np.sort(rng.choice(cfg.d, size=k, replace=False)) + 1
        unary.append({int(v): float(rng.integers(0, cfg.cost_max + 1))
                      for v in constrained})
        privacy.append({v: float(rng.integers(0, cfg.privacy_max + 1))
                        for v in range(1, cfg.d + 1)})
        domains.append(tuple(range(1, cfg.d + 1)))
    return Instance(
        kind=cfg.kind,
        n=cfg.n,
        d=cfg.d,
        domains=tuple(domains),
        unary=tuple(unary),
        privacy=tuple(privacy),
    )
