import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcop.model import (IncompleteAssignmentError, Instance,
                         InstanceFormatError, InstanceValidationError,
                         instance_from_json, instance_to_json, load_instance,
                         save_instance, solution_cost, validate_instance)
from udcop.presets import three_student_meeting


def test_meeting_instance_is_valid():
    for kind in ("dcop", "udcop", "udcoppc"):
        assert validate_instance(three_student_meeting(kind)) == []


def test_zero_agents_is_flagged():
    with pytest.raises(InstanceValidationError) as err:
        Instance(kind="dcop", n=0, d=3, domains=(), unary=(), privacy=())
    assert any("n ≥ 1" in v for v in err.value.violations)


def test_missing_privacy_table_is_flagged():
    with pytest.raises(InstanceValidationError) as err:
        Instance(kind="udcop", n=2, d=2,
                 domains=((1, 2), (1, 2)),
                 unary=({}, {}), privacy=())
    assert any("privacy table required" in v for v in err.value.violations)


def test_negative_costs_are_flagged():
    with pytest.raises(InstanceValidationError) as err:
        Instance(kind="udcop", n=1, d=2, domains=((1, 2),),
                 unary=({1: -3.0},), privacy=({1: -1.0},))
    violations = err.value.violations
    assert sum("costs ≥ 0" in v for v in violations) == 2


def test_bad_domain_and_penalty_are_flagged():
    with pytest.raises(InstanceValidationError) as err:
        Instance(kind="dcop", n=2, d=2,
                 domains=((1, 5), ()),
                 unary=({}, {}), privacy=(),
                 penalty=0.0)
    violations = err.value.violations
    assert any("domains[0]" in v for v in violations)
    assert any("domains[1]" in v and "non-empty" in v for v in violations)
    assert any("penalty > 0" in v for v in violations)


def test_dcop_with_privacy_entries_is_flagged():
    with pytest.raises(InstanceValidationError) as err:
        Instance(kind="dcop", n=1, d=1, domains=((1,),),
                 unary=({},), privacy=({1: 2.0},))
    assert any("must be empty for kind=dcop" in v for v in err.value.violations)


def test_construction_lists_every_violation_of_validate_instance():
    with pytest.raises(InstanceValidationError) as err:
        Instance(kind="udcop", n=2, d=2, domains=((1, 3), ()),
                 unary=({1: -1.0}, {}), privacy=({}, {}), penalty=math.nan)
    assert err.value.violations == [
        "domains[0]: values must be integers in [1, 2], got [3]",
        "domains[1]: domain must be non-empty",
        "unary[0]: costs ≥ 0 required, got {1: -1.0}",
        "global.penalty: penalty > 0 required, got nan",
    ]
    assert str(err.value) == "invalid instance: " + "; ".join(err.value.violations)


class TestSolutionCost:
    def test_meeting_agreement_cost(self):
        inst = three_student_meeting("dcop")
        assert solution_cost(inst, (1, 1, 1)) == 230.0

    def test_disagreement_pays_infinite_penalty(self):
        inst = three_student_meeting("dcop")
        assert solution_cost(inst, (1, 1, 3)) == math.inf

    def test_zero_cost_case(self):
        inst = Instance(kind="dcop", n=3, d=2,
                        domains=((1, 2),) * 3, unary=({}, {}, {}), privacy=())
        assert solution_cost(inst, (2, 2, 2)) == 0.0

    def test_incomplete_assignment_names_agent(self):
        inst = three_student_meeting("dcop")
        with pytest.raises(IncompleteAssignmentError):
            solution_cost(inst, (1, 1))
        with pytest.raises(IncompleteAssignmentError, match="agent 2"):
            solution_cost(inst, (1, 1, None))

    def test_value_outside_domain_rejected(self):
        inst = three_student_meeting("dcop")
        with pytest.raises(ValueError, match="agent 1"):
            solution_cost(inst, (1, 9, 1))


# --- permutation covariance and lower bound -------------------------------

small_instances = st.integers(2, 5).flatmap(lambda n: st.builds(
    lambda unary, penalty: Instance(
        kind="dcop", n=n, d=3,
        domains=((1, 2, 3),) * n,
        unary=tuple(unary),
        privacy=(),
        penalty=penalty),
    st.lists(st.dictionaries(st.integers(1, 3), st.floats(0, 100), max_size=3),
             min_size=n, max_size=n),
    st.floats(1, 1000)))


@settings(max_examples=50)
@given(inst=small_instances, data=st.data())
def test_solution_cost_permutation_covariant(inst, data):
    perm = data.draw(st.permutations(range(inst.n)))
    assignment = tuple(data.draw(st.sampled_from(inst.domains[i]))
                       for i in range(inst.n))
    relabeled = Instance(
        kind=inst.kind, n=inst.n, d=inst.d,
        domains=tuple(inst.domains[perm[i]] for i in range(inst.n)),
        unary=tuple(inst.unary[perm[i]] for i in range(inst.n)),
        privacy=(),
        penalty=inst.penalty)
    relabeled_assignment = tuple(assignment[perm[i]] for i in range(inst.n))
    assert solution_cost(relabeled, relabeled_assignment) == pytest.approx(
        solution_cost(inst, assignment))


@settings(max_examples=50)
@given(inst=small_instances, value=st.integers(1, 3))
def test_agreement_cost_bounded_below_by_min_unary(inst, value):
    cost = solution_cost(inst, (value,) * inst.n)
    floor = sum(min(t.get(v, 0.0) for v in (1, 2, 3)) for t in inst.unary)
    assert cost >= floor - 1e-12


# --- file format -----------------------------------------------------------

def test_round_trip_identity(tmp_path):
    for kind in ("dcop", "udcop", "udcoppc"):
        inst = three_student_meeting(kind)
        path = tmp_path / f"{kind}.json"
        save_instance(inst, path)
        assert load_instance(path) == inst


def test_save_is_deterministic(tmp_path):
    inst = three_student_meeting("udcop")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(inst, a)
    save_instance(inst, b)
    assert a.read_bytes() == b.read_bytes()


def test_missing_kind_named_in_parse_error():
    doc = json.loads(instance_to_json(three_student_meeting()))
    del doc["kind"]
    with pytest.raises(InstanceFormatError, match="kind"):
        instance_from_json(json.dumps(doc))


def test_negative_privacy_cost_rejected_on_load():
    doc = json.loads(instance_to_json(three_student_meeting()))
    doc["privacy"][0]["1"] = -5
    with pytest.raises(InstanceValidationError, match="costs ≥ 0"):
        instance_from_json(json.dumps(doc))


def _meeting_doc_with(path, value, kind="udcop"):
    doc = json.loads(instance_to_json(three_student_meeting(kind)))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize("kind, path, value, error, field", [
    ("udcop", ("domains", 0), 5, InstanceFormatError, "domains[0]"),
    ("udcop", ("domains", 1), [1, 1.7, 3], InstanceFormatError, "domains[1]"),
    ("udcop", ("domains", 2), [1, True], InstanceFormatError, "domains[2]"),
    ("udcop", ("n",), True, InstanceFormatError, "'n'"),
    ("udcop", ("unary", 0, "1"), True, InstanceFormatError, "unary[0]"),
    ("udcop", ("privacy", 1, "2"), False, InstanceFormatError, "privacy[1]"),
    ("udcop", ("global", "penalty"), True, InstanceFormatError, "global.penalty"),
    ("udcop", ("unary", 0, "1"), math.nan, InstanceValidationError, "unary[0]"),
    ("udcop", ("privacy", 2, "3"), math.nan, InstanceValidationError, "privacy[2]"),
    ("udcop", ("global", "type"), "x", InstanceValidationError,
     "invalid instance: global.type: must be 'all_equal', got 'x'"),
    ("udcoppc", ("privacy", 0, "c01"), 0, InstanceFormatError,
     "privacy[0]': bad key 'c01'"),
    ("udcop", ("unary", 0, "01"), 0, InstanceFormatError, "unary[0]': bad key '01'"),
    ("udcop", ("privacy", 1, " 2"), 5, InstanceFormatError, "privacy[1]': bad key ' 2'"),
    ("udcoppc", ("privacy", 2, "c"), 1, InstanceFormatError, "privacy[2]': bad key 'c'"),
    ("udcop", ("unary", 1, "x1"), 1, InstanceFormatError, "unary[1]': bad key 'x1'"),
    ("dcop", ("privacy",), [{}], InstanceValidationError,
     "privacy: must be empty for kind=dcop (3 empty tables or none)"),
], ids=["domain-not-array", "float-domain-value", "bool-domain-value", "bool-n",
        "bool-unary-cost", "bool-privacy-cost", "bool-penalty", "nan-unary-cost",
        "nan-privacy-cost", "global-type-x", "key-c01", "key-01", "key-space-2", "key-c", "key-x1",
        "dcop-one-privacy-map"])
def test_bad_field_value_rejected_on_load(kind, path, value, error, field):
    with pytest.raises(error, match=re.escape(field)):
        instance_from_json(_meeting_doc_with(path, value, kind))


@pytest.mark.parametrize("privacy", [[], [{}, {}, {}]], ids=["none", "one-per-agent"])
def test_dcop_loads_with_no_or_one_empty_privacy_map_per_agent(privacy):
    inst = instance_from_json(_meeting_doc_with(("privacy",), privacy, "dcop"))
    assert [inst.reveal_cost(i, 1) for i in range(inst.n)] == [0.0] * 3


def test_duplicate_key_rejected_on_load():
    text = instance_to_json(three_student_meeting()).replace(
        '"1": 70.0', '"1": 70.0, "1": 0.0', 1)
    with pytest.raises(InstanceFormatError, match="duplicate key '1'"):
        instance_from_json(text)


def test_malformed_json_reports_line():
    with pytest.raises(InstanceFormatError, match="line"):
        instance_from_json("{\n  broken\n}")


def test_infinite_penalty_round_trips():
    inst = three_student_meeting()
    text = instance_to_json(inst)
    assert '"penalty": "inf"' in text
    assert math.isinf(instance_from_json(text).penalty)


def test_infinite_cost_round_trips():
    inst = Instance(kind="udcop", n=2, d=2, domains=((1, 2),) * 2,
                    unary=({1: math.inf, 2: math.inf}, {1: 3.0}),
                    privacy=({1: 1.0, 2: math.inf}, {1: 1.0, 2: 1.0}), penalty=8.5)
    text = instance_to_json(inst)
    assert '"1": Infinity' in text and '"2": Infinity' in text
    assert instance_from_json(text) == inst


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_instance(tmp_path / "nope.json")
