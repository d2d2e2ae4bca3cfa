import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from udcop.model import GlobalConstraint, Instance
from udcop.presets import three_student_meeting
from udcop.solvers import (DsaState, EstimateInputs, build_agent_context,
                           dbo_resolve, dbo_send_improve, dsa_step, dsau_step,
                           estimate_cost, local_eval_all, mo_lex_compare,
                           modcop_dsa_step, new_dbo_state, utility_risk,
                           apply_weight_increments, ImproveMsg)

MEETING = three_student_meeting()


def ctx_for(agent, **kw):
    return build_agent_context(MEETING, agent, **kw)


def est_inputs(agent, revealed):
    ctx = ctx_for(agent)
    return EstimateInputs(ctx.unary_map, ctx.privacy_map, 3, frozenset(revealed))


class TestUtilityRisk:
    def test_single_value_domain(self):
        assert utility_risk(1) == 0.0

    def test_three_values(self):
        assert utility_risk(3) == pytest.approx(2 / 3)

    def test_ten_values(self):
        assert utility_risk(10) == pytest.approx(0.9)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            utility_risk(0)


class TestEstimateCost:
    def test_single_revealed_value(self):
        assert estimate_cost(est_inputs(0, {1})) == pytest.approx(150.0, abs=1e-9)

    def test_two_revealed_values(self):
        assert estimate_cost(est_inputs(0, {1, 2})) == pytest.approx(250.0, abs=1e-9)

    def test_empty_revealed_set(self):
        assert estimate_cost(est_inputs(0, set())) == 0.0

    def test_third_agent_pair(self):
        assert estimate_cost(est_inputs(2, {3, 1})) == pytest.approx(225.0, abs=1e-9)

    def test_domain_divisor_mode(self):
        # weight = 1 - utility_risk(3) = 1/3 regardless of the revealed count
        got = estimate_cost(est_inputs(0, {1}), divisor_mode="domain")
        assert got == pytest.approx(70 / 3 + 80, abs=1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            estimate_cost(est_inputs(0, {1}), divisor_mode="mean")

    @given(st.sets(st.integers(1, 3), max_size=3), st.integers(1, 3))
    def test_privacy_term_never_decreases_when_revealing(self, revealed, extra):
        base = estimate_cost(est_inputs(0, revealed))
        grown = est_inputs(0, revealed | {extra})
        privacy_base = sum(est_inputs(0, revealed).privacy.get(v, 0.0) for v in revealed)
        privacy_grown = sum(grown.privacy.get(v, 0.0) for v in grown.revealed)
        assert privacy_grown >= privacy_base
        assert base >= 0.0


class TestLocalEval:
    def test_one_conflict_with_unit_weight(self):
        ctx = ctx_for(0, penalty=2000.0)   # two neighbors -> w_unit = 1000
        assert ctx.w_unit == pytest.approx(1000.0)
        got = local_eval_all(ctx, np.array([0, 2]))[0]   # codes: x2=1, x3=3
        assert got == pytest.approx(70.0 + 1000.0)

    def test_no_conflicts_is_unary_only(self):
        ctx = ctx_for(1)
        got = local_eval_all(ctx, np.array([0, 0]))[0]
        assert got == pytest.approx(120.0)

    def test_eval_linear_in_weights(self):
        ctx = ctx_for(0, penalty=2000.0)
        weights = np.ones((3, 3, 3), dtype=np.int64)
        ids = np.array([1, 2], dtype=np.int64)
        vals = np.array([0, 2], dtype=np.int64)
        base = local_eval_all(ctx, vals, weights=weights, neighbor_ids=ids)[0]
        weights[2, 0, 2] = 2
        bumped = local_eval_all(ctx, vals, weights=weights, neighbor_ids=ids)[0]
        assert bumped - base == pytest.approx(ctx.w_unit)

    def test_unknown_neighbors_do_not_conflict(self):
        ctx = ctx_for(0)
        got = local_eval_all(ctx, np.array([-1, -1]))[0]
        assert got == pytest.approx(70.0)


class TestDsaStep:
    def test_forced_change_when_p_is_one(self):
        state = DsaState(value=3, p=1.0)
        res = dsa_step(state, ctx_for(0), np.array([0, 0]), np.random.default_rng(0))
        assert res.action == "change" and res.value == 1

    def test_keep_when_current_is_best(self):
        state = DsaState(value=1, p=1.0)
        res = dsa_step(state, ctx_for(0), np.array([0, 0]), np.random.default_rng(0))
        assert res.action == "keep" and res.value == 1

    def test_activation_frequency_tracks_p(self):
        # improvement always exists here; accept within 0.6 +/- 0.02
        state = DsaState(value=3, p=0.6)
        ctx = ctx_for(0)
        view = np.array([0, 0])
        rng = np.random.default_rng(1234)
        changes = sum(dsa_step(state, ctx, view, rng).action == "change"
                      for _ in range(10_000))
        assert changes / 10_000 == pytest.approx(0.6, abs=0.02)


class TestDsauStep:
    def test_moves_when_estimate_drops(self):
        state = DsaState(value=3, revealed={3})
        res = dsau_step(state, ctx_for(2), np.array([0, 0]),
                        np.random.default_rng(0), candidate=1)
        assert res.action == "change" and res.value == 1
        assert res.est_current == pytest.approx(240.0)
        assert res.est_next == pytest.approx(225.0)

    def test_keeps_when_estimate_rises(self):
        state = DsaState(value=1, revealed={1})
        res = dsau_step(state, ctx_for(0), np.array([0, 2]),
                        np.random.default_rng(0), candidate=2)
        assert res.action == "keep"
        assert res.est_next == pytest.approx(250.0)

    def test_already_revealed_candidate_keeps(self):
        # the revealed set cannot grow, so the estimate cannot drop
        state = DsaState(value=1, revealed={1, 2})
        res = dsau_step(state, ctx_for(0), np.array([0, 0]),
                        np.random.default_rng(0), candidate=2)
        assert res.action == "keep"
        assert res.est_current == res.est_next

    def test_conflict_guard_vetoes_worse_eval(self):
        # estimate drops (cheap value, free reveal) but the candidate breaks
        # the agreement with both neighbors
        inst = Instance(
            kind="udcop", n=3, d=2, domains=((1, 2),) * 3,
            unary=({1: 9.0, 2: 0.0}, {}, {}),
            privacy=({1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0}),
            global_constraint=GlobalConstraint(penalty=1000.0))
        guarded = build_agent_context(inst, 0)
        state = DsaState(value=1, revealed={1})
        view = np.array([0, 0])   # both neighbors on value 1
        res = dsau_step(state, guarded, view, np.random.default_rng(0), candidate=2)
        assert res.action == "keep"
        pure = build_agent_context(inst, 0, conflict_guard=False)
        res = dsau_step(state, pure, view, np.random.default_rng(0), candidate=2)
        assert res.action == "change"


class TestLexCompare:
    def test_lower_privacy_wins(self):
        assert mo_lex_compare((10, 190), (100, 120))

    def test_higher_privacy_loses(self):
        assert not mo_lex_compare((80, 40), (10, 230))

    def test_equal_pairs_not_better(self):
        assert not mo_lex_compare((10, 190), (10, 190))

    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)),
           st.tuples(st.integers(0, 5), st.integers(0, 5)),
           st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_strict_partial_order(self, a, b, c):
        assert not mo_lex_compare(a, a)
        if mo_lex_compare(a, b):
            assert not mo_lex_compare(b, a)
        if mo_lex_compare(a, b) and mo_lex_compare(b, c):
            assert mo_lex_compare(a, c)


class TestModcopStep:
    def test_second_agent_moves(self):
        state = DsaState(value=1, revealed={1})
        res = modcop_dsa_step(state, ctx_for(1), np.random.default_rng(0), candidate=3)
        assert res.action == "change" and res.value == 3

    def test_third_agent_stays(self):
        state = DsaState(value=3, revealed={3})
        res = modcop_dsa_step(state, ctx_for(2), np.random.default_rng(0), candidate=1)
        assert res.action == "keep"


def two_agent_conflict():
    """n=2, d=2: agent 0 on value 1 conflicts with agent 1 on value 2."""
    inst = Instance(
        kind="udcop", n=2, d=2, domains=((1, 2), (1, 2)),
        unary=({}, {}),
        privacy=({1: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0}),
        global_constraint=GlobalConstraint(penalty=100.0))
    return inst


class TestBreakout:
    def test_consistent_when_eval_zero(self):
        inst = two_agent_conflict()
        ctx = build_agent_context(inst, 0)
        state = new_dbo_state(1, 2, 2)
        msg, _ = dbo_send_improve(state, ctx, np.array([1]), np.array([0]))
        assert state.consistent and msg.eval == 0.0 and msg.improve == 0.0

    def test_improvement_equals_removed_pair_penalty(self):
        inst = two_agent_conflict()
        ctx = build_agent_context(inst, 0)
        state = new_dbo_state(1, 2, 2)
        msg, res = dbo_send_improve(state, ctx, np.array([1]), np.array([1]))
        assert msg.improve == pytest.approx(ctx.w_unit)
        assert state.new_value == 2 and state.can_move
        assert res.candidate == 2

    def test_estimate_gate_blocks_offer(self):
        inst = two_agent_conflict()
        ctx = build_agent_context(inst, 0)
        state = new_dbo_state(1, 2, 2)
        state.revealed = {1}
        # revealing value 2 adds privacy 1 with no unary gain: gate shut
        msg, _ = dbo_send_improve(state, ctx, np.array([1]), np.array([1]),
                                  gate_estimates=True)
        assert msg.improve == 0.0
        assert state.new_value == 1
        assert state.quasi_local_minimum

    def test_tie_breaks_to_smallest_agent_id(self):
        import dataclasses

        inst = two_agent_conflict()
        state = new_dbo_state(1, 6, 2)
        state.my_improve, state.new_value, state.can_move = 5.0, 2, True
        msgs = {2: ImproveMsg(2, 5.0, 9.0, 0), 5: ImproveMsg(5, 5.0, 9.0, 0)}
        base = build_agent_context(inst, 0)
        ctx2 = dataclasses.replace(base, index=2, n=6)
        res, _ = dbo_resolve(state, ctx2, msgs, np.array([5]), np.array([0]))
        assert res.action == "change"
        ctx5 = dataclasses.replace(base, index=5, n=6)
        res, _ = dbo_resolve(state, ctx5, msgs, np.array([2]), np.array([0]))
        assert res.action == "keep"

    def test_quasi_local_minimum_raises_weights(self):
        inst = two_agent_conflict()
        ctx = build_agent_context(inst, 0)
        state = new_dbo_state(1, 2, 2)
        state.consistent = False
        state.my_improve = 0.0
        msgs = {1: ImproveMsg(1, 0.0, ctx.w_unit, 0)}
        res, increments = dbo_resolve(state, ctx, msgs, np.array([1]), np.array([1]))
        assert res.action == "keep"
        assert increments == [(1, 0, 1)]
        apply_weight_increments(state, increments)
        assert state.weights[1, 0, 1] == 2

    def test_missing_improve_messages_treated_as_zero(self):
        inst = two_agent_conflict()
        ctx = build_agent_context(inst, 0)
        state = new_dbo_state(1, 2, 2)
        state.my_improve, state.new_value, state.can_move = 1.0, 2, True
        res, _ = dbo_resolve(state, ctx, {}, np.array([1]), np.array([1]))
        assert res.action == "change"
