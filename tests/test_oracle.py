import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcop.generator import GenConfig, generate
from udcop.model import GlobalConstraint, Instance, solution_cost
from udcop.oracle import (SearchSpaceError, exact_optimum, exact_optimum_dms,
                          exact_optimum_enum)
from udcop.presets import three_student_meeting


def test_meeting_optimum_is_first_place():
    inst = three_student_meeting("dcop")
    # agreement costs by value: 230, 910, 690
    assert [sum(inst.unary_cost(i, v) for i in range(3)) for v in (1, 2, 3)] \
        == [230.0, 910.0, 690.0]
    res = exact_optimum_dms(inst)
    assert res.assignment == (1, 1, 1) and res.cost == 230.0


def test_enumeration_agrees_on_meeting():
    inst = three_student_meeting("dcop")
    assert exact_optimum_enum(inst) == exact_optimum_dms(inst)


def test_density_zero_picks_smallest_value():
    inst = generate(GenConfig(n=4, d=5, density=0.0, seed=3))
    res = exact_optimum_dms(inst)
    assert res.cost == 0.0 and res.assignment == (1, 1, 1, 1)


def test_single_agent_picks_cheapest_value():
    inst = Instance(kind="dcop", n=1, d=3, domains=((1, 2, 3),),
                    unary=({1: 4.0, 2: 1.0, 3: 9.0},), privacy=())
    res = exact_optimum_dms(inst)
    assert res.assignment == (2,) and res.cost == 1.0


def test_single_value_space():
    inst = Instance(kind="dcop", n=1, d=1, domains=((1,),), unary=({},),
                    privacy=())
    assert exact_optimum_enum(inst).assignment == (1,)


def test_violating_can_beat_agreement_with_finite_penalty():
    # agreement costs 300 at best; scattering costs only the 100 penalty
    inst = Instance(
        kind="dcop", n=3, d=2, domains=((1, 2),) * 3,
        unary=({1: 0.0, 2: 300.0}, {1: 300.0, 2: 0.0}, {1: 0.0, 2: 300.0}),
        privacy=(),
        global_constraint=GlobalConstraint(penalty=100.0))
    res = exact_optimum_enum(inst)
    assert res.assignment == (1, 2, 1) and res.cost == 100.0
    assert exact_optimum_dms(inst).cost == 300.0


def test_enum_matches_naive_scan():
    inst = generate(GenConfig(n=4, d=3, density=0.7, seed=21))
    best = min((solution_cost(inst, a) for a in
                itertools.product(*(sorted(d) for d in inst.domains))))
    assert exact_optimum_enum(inst).cost == best


def test_limit_guard():
    inst = generate(GenConfig(n=10, d=10, density=0.5, seed=1))
    with pytest.raises(SearchSpaceError):
        exact_optimum_enum(inst, limit=10 ** 6)


def test_no_common_value_rejected():
    inst = Instance(kind="dcop", n=2, d=2, domains=((1,), (2,)),
                    unary=({}, {}), privacy=())
    with pytest.raises(ValueError, match="common value"):
        exact_optimum_dms(inst)


def test_enum_rejects_an_instance_where_every_assignment_costs_inf():
    inst = Instance(kind="dcop", n=2, d=2, domains=((1,), (2,)),
                    unary=({}, {}), privacy=(),
                    global_constraint=GlobalConstraint(penalty=math.inf))
    with pytest.raises(ValueError, match="every assignment costs inf"):
        exact_optimum_enum(inst)


@st.composite
def small_instances(draw):
    """n, d ≤ 4, restricted domains, costs including 0 and inf, finite and
    infinite penalties."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    domains = tuple(tuple(sorted(draw(st.sets(st.integers(1, d), min_size=1))))
                    for _ in range(n))
    costs = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.0, math.inf])
    unary = tuple(draw(st.dictionaries(st.sampled_from(dom), costs)) for dom in domains)
    penalty = draw(st.sampled_from([0.5, 1.0, 2.5, 7.0, math.inf]))
    return Instance(kind="dcop", n=n, d=d, domains=domains, unary=unary, privacy=(),
                    global_constraint=GlobalConstraint(penalty=penalty))


@settings(max_examples=300, deadline=None)
@given(inst=small_instances())
def test_exact_optimum_matches_enumeration(inst):
    try:
        enum = exact_optimum_enum(inst)
    except ValueError as e:
        assert str(e) == "every assignment costs inf"
        with pytest.raises(ValueError, match="every assignment costs inf"):
            exact_optimum(inst)
    else:
        assert exact_optimum(inst) == enum
