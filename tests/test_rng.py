import re

import pytest

from udcop.engine import run
from udcop.experiments import SweepConfig
from udcop.generator import GenConfig, generate
from udcop.presets import three_student_meeting

# each place a caller supplies a seed, and the field its message names
SEEDED = {
    "GenConfig.seed": ("seed", lambda s: generate(GenConfig(n=2, d=2, density=0.5, seed=s))),
    "SweepConfig.master_seed": ("master_seed", lambda s: SweepConfig(master_seed=s)),
    "run.seed": ("seed", lambda s: run(three_student_meeting(), "dsa", seed=s,
                                       round_budget=1)),
}


@pytest.mark.parametrize("where", SEEDED)
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_a_seed_outside_64_bits_is_rejected_naming_the_field(where, seed):
    field, use = SEEDED[where]
    message = f"{field}: must be a 64-bit non-negative integer, got {seed}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        use(seed)


@pytest.mark.parametrize("where", SEEDED)
def test_the_largest_64_bit_seed_is_accepted(where):
    _, use = SEEDED[where]
    use(2 ** 64 - 1)
