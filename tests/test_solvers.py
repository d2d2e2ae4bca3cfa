import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_engine import dense_weights
from udcop import kernels
from udcop.model import GlobalConstraint, Instance
from udcop.presets import three_student_meeting
from udcop.solvers import (ExcessWeights, apply_weight_increments, build_agent_context,
                           dbo_resolve, dbo_send_improve, dsa_step, dsau_step,
                           estimate_cost, local_eval_all, mo_lex_compare,
                           modcop_dsa_step, new_breakout_state, stack_contexts,
                           utility_risk)

MEETING = three_student_meeting()


def ctx_for(agent):
    return build_agent_context(MEETING, agent)


def tables_for(inst=MEETING, penalty=None, **kw):
    return stack_contexts([build_agent_context(inst, i) for i in range(inst.n)],
                          inst.finite_penalty(penalty), **kw)


def mask(d, *value_sets):
    """bool[len(value_sets), d]: row i marks the values of value_sets[i]."""
    out = np.zeros((len(value_sets), d), dtype=bool)
    for i, values in enumerate(value_sets):
        out[i, [v - 1 for v in values]] = True
    return out


def estimate(agent, revealed, divisor_mode="revealed"):
    ctx = ctx_for(agent)
    return float(estimate_cost(ctx.unary, ctx.privacy, mask(3, revealed)[0], 3,
                               divisor_mode))


def arr(*values):
    return np.array(values, dtype=np.int64)


def rngs(n, seed=0):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def adopted(res, values):
    return np.where(res.change, res.candidate, values)


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
        assert estimate(0, {1}) == pytest.approx(150.0, abs=1e-9)

    def test_two_revealed_values(self):
        assert estimate(0, {1, 2}) == pytest.approx(250.0, abs=1e-9)

    def test_empty_revealed_set(self):
        assert estimate(0, set()) == 0.0

    def test_third_agent_pair(self):
        assert estimate(2, {3, 1}) == pytest.approx(225.0, abs=1e-9)

    def test_domain_divisor_mode(self):
        # weight = 1 - utility_risk(3) = 1/3 regardless of the revealed count
        got = estimate(0, {1}, divisor_mode="domain")
        assert got == pytest.approx(70 / 3 + 80, abs=1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            estimate(0, {1}, divisor_mode="mean")

    @given(st.sets(st.integers(1, 3), max_size=3), st.integers(1, 3))
    def test_privacy_term_never_decreases_when_revealing(self, revealed, extra):
        base = estimate(0, revealed)
        privacy = ctx_for(0).privacy
        privacy_base = sum(privacy[v - 1] for v in revealed)
        privacy_grown = sum(privacy[v - 1] for v in revealed | {extra})
        assert privacy_grown >= privacy_base
        assert base >= 0.0

    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.booleans()),
                    min_size=1, max_size=20),
           st.sampled_from(["revealed", "domain"]))
    def test_equals_a_loop_in_ascending_value_order(self, entries, divisor_mode):
        unary, privacy, revealed = (np.array(column) for column in zip(*entries))
        d = len(entries)
        got = estimate_cost(unary, privacy, revealed, d, divisor_mode)
        chosen = [v for v in range(d) if revealed[v]]
        expected = 0.0
        if chosen:
            scale = (1.0 / len(chosen) if divisor_mode == "revealed"
                     else 1.0 - utility_risk(d))
            expected = (sum(unary[v] for v in chosen) * scale
                        + sum(privacy[v] for v in chosen))
        assert float(got) == expected     # bit for bit, not approximately

    def test_rows_are_estimated_independently(self):
        tables = tables_for()
        revealed = mask(3, {1}, {1, 3}, {3, 1})
        got = estimate_cost(tables.unary, tables.privacy, revealed, tables.domain_sizes)
        assert got == pytest.approx([150.0, 265.0, 225.0], abs=1e-9)


class TestLocalEval:
    def test_one_conflict_with_unit_weight(self):
        tables = tables_for(penalty=2000.0)   # two neighbors -> w_unit = 1000
        assert tables.w_unit == pytest.approx(1000.0)
        got = local_eval_all(tables, arr(1, 1, 3))[0, 0]   # x2=1, x3=3
        assert got == pytest.approx(70.0 + 1000.0)

    def test_no_conflicts_is_unary_only(self):
        got = local_eval_all(tables_for(), arr(1, 1, 1))[1, 0]
        assert got == pytest.approx(120.0)

    def test_eval_linear_in_weights(self):
        tables = tables_for(penalty=2000.0)
        values = arr(1, 1, 3)
        base = local_eval_all(tables, values, ExcessWeights())[0, 0]
        # agent 0's weight for (self=1, agent 2 on 3) raised from 1 to 2
        weights = ExcessWeights(kernels.weight_keys(3, 3, arr(0), arr(2), arr(2), arr(0)),
                                arr(1))
        bumped = local_eval_all(tables, values, weights)[0, 0]
        assert bumped - base == pytest.approx(tables.w_unit)


class TestDsaStep:
    def test_forced_change_when_p_is_one(self):
        values = arr(3, 1, 1)
        res = dsa_step(tables_for(), values, 1.0, rngs(3))
        assert res.change[0] and adopted(res, values)[0] == 1

    def test_keep_when_current_is_best(self):
        values = arr(1, 1, 1)
        res = dsa_step(tables_for(), values, 1.0, rngs(3))
        assert not res.change[0] and adopted(res, values)[0] == 1

    def test_activation_frequency_tracks_p(self):
        # agent 0 can always improve; accept within 0.6 +/- 0.02
        tables, values = tables_for(), arr(3, 1, 1)
        streams = rngs(3, seed=1234)
        changes = sum(bool(dsa_step(tables, values, 0.6, streams).change[0])
                      for _ in range(10_000))
        assert changes / 10_000 == pytest.approx(0.6, abs=0.02)


class TestDsauStep:
    def test_moves_when_estimate_drops(self):
        values = arr(1, 1, 3)
        res = dsau_step(tables_for(), values, mask(3, {1}, {1}, {3}), rngs(3),
                        scripted={0: 1, 1: 1, 2: 1})
        assert res.change[2] and adopted(res, values)[2] == 1
        assert res.est_current[2] == pytest.approx(240.0)
        assert res.est_next[2] == pytest.approx(225.0)

    def test_keeps_when_estimate_rises(self):
        res = dsau_step(tables_for(), arr(1, 1, 3), mask(3, {1}, {1}, {3}), rngs(3),
                        scripted={0: 2, 1: 1, 2: 3})
        assert not res.change[0]
        assert res.est_next[0] == pytest.approx(250.0)

    def test_already_revealed_candidate_keeps(self):
        # the revealed set cannot grow, so the estimate cannot drop
        res = dsau_step(tables_for(), arr(1, 1, 1), mask(3, {1, 2}, {1}, {1}), rngs(3),
                        scripted={0: 2, 1: 1, 2: 1})
        assert not res.change[0]
        assert res.est_current[0] == res.est_next[0]

    def test_conflict_guard_vetoes_worse_eval(self):
        # estimate drops (cheap value, free reveal) but the candidate breaks
        # the agreement with both neighbors
        inst = Instance(
            kind="udcop", n=3, d=2, domains=((1, 2),) * 3,
            unary=({1: 9.0, 2: 0.0}, {}, {}),
            privacy=({1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0}),
            global_constraint=GlobalConstraint(penalty=1000.0))
        values = arr(1, 1, 1)   # everyone on value 1
        revealed = mask(2, {1}, {1}, {1})
        script = {0: 2, 1: 1, 2: 1}
        guarded = tables_for(inst)
        res = dsau_step(guarded, values, revealed, rngs(3), script)
        assert not res.change[0]
        pure = tables_for(inst, conflict_guard=False)
        res = dsau_step(pure, values, revealed, rngs(3), script)
        assert res.change[0]


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
        values = arr(1, 1, 3)
        res = modcop_dsa_step(tables_for(), values, rngs(3), {0: 1, 1: 3, 2: 3})
        assert res.change[1] and adopted(res, values)[1] == 3

    def test_third_agent_stays(self):
        res = modcop_dsa_step(tables_for(), arr(1, 1, 3), rngs(3), {0: 1, 1: 1, 2: 1})
        assert not res.change[2]


def agents_on_two_values(n=2):
    """n agents, d=2, no unary costs, unit reveal costs, penalty 100."""
    return Instance(
        kind="udcop", n=n, d=2, domains=((1, 2),) * n,
        unary=({},) * n,
        privacy=({1: 1.0, 2: 1.0},) * n,
        global_constraint=GlobalConstraint(penalty=100.0))


def offer_round(values, revealed=None, gate_estimates=False):
    """One offer round of two agents on `values`."""
    tables = tables_for(agents_on_two_values())
    state = new_breakout_state(values)
    if revealed is None:
        revealed = mask(2, *({v} for v in values.tolist()))
    res = dbo_send_improve(state, tables, values, revealed, gate_estimates)
    return tables, state, res


class TestBreakout:
    def test_consistent_when_eval_zero(self):
        tables, state, res = offer_round(arr(1, 1))
        assert res.est_current[0] == 0.0
        assert state.offers[0] == 0.0
        # agreeing agents violate no pair, so nobody raises a weight
        res, increments = dbo_resolve(state, tables, arr(1, 1))
        assert not res.change.any() and increments.size == 0

    def test_improvement_equals_removed_pair_penalty(self):
        tables, state, res = offer_round(arr(1, 2))
        assert state.offers[0] == pytest.approx(tables.w_unit)
        assert state.new_values[0] == 2 and state.offers[0] > 0
        assert res.candidate[0] == 2

    def test_estimate_gate_blocks_offer(self):
        # revealing value 2 adds privacy 1 with no unary gain: gate shut
        _, state, _ = offer_round(arr(1, 2), revealed=mask(2, {1}, {2}),
                                  gate_estimates=True)
        assert state.offers[0] == 0.0
        assert state.new_values[0] == 1
        assert not state.offers[0] > 0        # quasi-local minimum

    def test_tie_breaks_to_smallest_agent_id(self):
        tables = tables_for(agents_on_two_values(6))
        values = arr(1, 1, 1, 1, 1, 1)
        state = new_breakout_state(values)
        state.offers = np.array([0.0, 0.0, 5.0, 0.0, 0.0, 5.0])
        state.new_values = arr(1, 1, 2, 1, 1, 2)
        res, _ = dbo_resolve(state, tables, values)
        assert res.change[2]
        assert not res.change[5]

    def test_quasi_local_minimum_raises_weights(self):
        tables = tables_for(agents_on_two_values())
        values = arr(1, 2)
        state = new_breakout_state(values)    # disagreeing, nobody offers
        res, increments = dbo_resolve(state, tables, values)
        assert not res.change.any()
        raised = list(zip(*(k.tolist() for k in np.unravel_index(increments, (2, 2, 2, 2)))))
        # (agent, neighbor, neighbor_code, own_code)
        assert raised == [(0, 1, 1, 0), (1, 0, 0, 1)]
        apply_weight_increments(state.weights, increments)
        assert dense_weights(state.weights, 2, 2)[0, 1, 0, 1] == 2

    def test_missing_improve_messages_treated_as_zero(self):
        # agent 1 offers nothing: agent 0's positive offer wins alone
        tables = tables_for(agents_on_two_values())
        values = arr(1, 2)
        state = new_breakout_state(values)
        state.offers = np.array([1.0, 0.0])
        state.new_values = arr(2, 2)
        res, _ = dbo_resolve(state, tables, values)
        assert res.change[0]

    def test_weights_accumulate_per_entry(self):
        weights = ExcessWeights()
        first = kernels.weight_keys(2, 2, arr(0, 1), arr(1, 0), arr(1, 0), arr(0, 1))
        apply_weight_increments(weights, first)
        apply_weight_increments(weights, first[:1])
        dense = dense_weights(weights, 2, 2)
        assert dense[0, 1, 0, 1] == 3 and dense[1, 0, 1, 0] == 2
        assert (dense >= 1).all() and dense.sum() == 16 + 3
        assert (np.diff(weights.keys) > 0).all()
