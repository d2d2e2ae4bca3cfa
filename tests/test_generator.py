import json
import re
from dataclasses import replace

import pytest

from udcop.generator import GenConfig, generate
from udcop.model import instance_to_json, solution_cost, validate_instance
from udcop.rng import round_half_up


def test_generated_instances_validate():
    for kind in ("udcop", "udcoppc"):
        inst = generate(GenConfig(n=10, d=10, density=0.3, seed=7, kind=kind))
        assert validate_instance(inst) == []


@pytest.mark.parametrize("density,expected", [
    (0.0, 0), (0.1, 1), (0.25, 3), (0.3, 3), (0.5, 5), (1.0, 10),
])
def test_constrained_value_count_matches_density(density, expected):
    inst = generate(GenConfig(n=6, d=10, density=density, seed=11))
    assert round_half_up(density * 10) == expected
    for table in inst.unary:
        assert len(table) == expected


def test_every_pair_has_a_revelation_cost():
    inst = generate(GenConfig(n=10, d=10, density=0.3, seed=5))
    for table in inst.privacy:
        assert sorted(table) == list(range(1, 11))
        assert all(0 <= c <= 9 and c == int(c) for c in table.values())


def test_unary_costs_within_bounds():
    inst = generate(GenConfig(n=10, d=10, density=1.0, seed=5, cost_max=4))
    for table in inst.unary:
        assert all(0 <= c <= 4 for c in table.values())


def test_density_zero_gives_free_agreement():
    inst = generate(GenConfig(n=5, d=4, density=0.0, seed=3))
    assert all(not t for t in inst.unary)
    for v in range(1, 5):
        assert solution_cost(inst, (v,) * 5) == 0.0


def test_generation_is_deterministic():
    cfg = GenConfig(n=10, d=10, density=0.4, seed=123)
    a, b = generate(cfg), generate(cfg)
    assert a == b
    assert instance_to_json(a) == instance_to_json(b)


def test_different_seeds_differ():
    base = GenConfig(n=10, d=10, density=0.4, seed=123)
    other = GenConfig(n=10, d=10, density=0.4, seed=124)
    assert generate(base) != generate(other)


def test_udcoppc_keys_are_constraint_ids():
    inst = generate(GenConfig(n=3, d=4, density=0.5, seed=9, kind="udcoppc"))
    for table in json.loads(instance_to_json(inst))["privacy"]:
        assert list(table) == [f"c{v}" for v in range(1, 5)]
    # same draws as the udcop variant: in memory only the kind differs
    twin = generate(GenConfig(n=3, d=4, density=0.5, seed=9, kind="udcop"))
    assert replace(inst, kind="udcop") == twin


@pytest.mark.parametrize("bad, message", [
    (dict(n=0), "n: must be ≥ 1, got 0"),
    (dict(d=0), "d: must be ≥ 1, got 0"),
    (dict(density=1.5), "density: must lie in [0, 1], got 1.5"),
    (dict(seed=-1), "seed: must be a 64-bit non-negative integer, got -1"),
    (dict(cost_max=-2), "cost_max: must be ≥ 0, got -2"),
    (dict(privacy_max=-1), "privacy_max: must be ≥ 0, got -1"),
    (dict(kind="dcop"), "kind: must be 'udcop' or 'udcoppc', got 'dcop'"),
], ids=["n-0", "d-0", "density-1.5", "seed-negative", "cost-max-negative",
        "privacy-max-negative", "kind-dcop"])
def test_invalid_configs_rejected(bad, message):
    # a GenConfig checks itself, so a bad one never reaches generate, and
    # its message starts with the field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GenConfig(**{**dict(n=5, d=5, density=0.5, seed=1), **bad})
