"""Deterministic random-stream derivation.

Every random draw in this package comes from numpy's PCG64 bit generator,
seeded through SeedSequence with explicit integer keys so that each artifact
is a pure function of the user-supplied seed:

* instance generation, agent i:  ``SeedSequence([seed, 0, i])``
* solver run, agent i:           ``SeedSequence([seed, 1, i])``
* sweep row (density index j, instance index k):
  ``row_seed = SeedSequence([master_seed, 2, j, k]).generate_state(1)[0]``

The domain tags (0/1/2) keep the streams disjoint even when the same seed
is reused for generation and solving, which the sweep harness does on
purpose so all algorithms in a cell start from identical conditions.
"""

from __future__ import annotations

import math

import numpy as np

STREAM_GENERATION = 0
STREAM_SOLVER = 1
STREAM_SWEEP = 2


def check_seed(seed: int, field: str) -> None:
    """Reject a seed outside 0..2^64-1, naming the field."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{field}: must be a 64-bit non-negative integer, got {seed}")


def agent_stream(seed: int, domain: int, agent: int) -> np.random.Generator:
    """Independent per-agent generator for the given seed and domain tag."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, domain, agent])))


def derive_seed(master_seed: int, *keys: int) -> int:
    """Derive a 64-bit child seed from a master seed and integer keys."""
    ss = np.random.SeedSequence([master_seed, STREAM_SWEEP, *keys])
    return int(ss.generate_state(1, np.uint64)[0])


def round_half_up(x: float) -> int:
    """round() with deterministic half-up tie handling (2.5 -> 3)."""
    return int(math.floor(x + 0.5))
