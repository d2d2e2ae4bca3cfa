import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import run_reference
from udcop.engine import RevealLedger, SolverParams, format_trace, metrics, run
from udcop.generator import GenConfig, generate
from udcop.model import (KINDS, Instance, InstanceValidationError,
                         instance_from_json, instance_to_json)
from udcop.presets import MEETING_SEED, three_student_meeting
from udcop.rng import STREAM_SOLVER, agent_stream
from udcop.solvers import SOLVER_KINDS, build_agent_context, draw_values, stack_contexts

MEETING = three_student_meeting()


def ledger_for(inst):
    return RevealLedger(stack_contexts([build_agent_context(inst, i)
                                        for i in range(inst.n)], inst.finite_penalty()))


class TestRevealLedger:
    def test_first_reveal_charges_full_cost(self):
        ledger = ledger_for(MEETING)
        assert ledger.record([0], [1]) == [(0, 80.0)]
        assert ledger.revealed[0].tolist() == [True, False, False]

    def test_repeat_reveal_is_free(self):
        ledger = ledger_for(MEETING)
        ledger.record([0], [1])
        assert ledger.record([0], [1]) == []
        assert ledger.cum[0] == 80.0

    def test_constraint_id_reveal(self):
        pc = three_student_meeting("udcoppc")
        ledger = ledger_for(pc)
        assert ledger.record([1], [3]) == [(1, 10.0)]     # charges entry "c3"
        assert pc.reveal_entry(1, 3) == "c3"

    def test_unknown_entry_rejected(self):
        ledger = ledger_for(MEETING)
        with pytest.raises(ValueError):
            ledger.record([0], [9])
        restricted = Instance(kind="udcop", n=2, d=3, domains=((1, 3), (1, 2, 3)),
                              unary=({}, {}), privacy=({1: 1.0, 3: 1.0},
                                                       {1: 1.0, 2: 1.0, 3: 1.0}))
        ledger = ledger_for(restricted)
        with pytest.raises(ValueError):
            ledger.record([1, 0], [2, 2])
        assert not ledger.revealed.any() and ledger.cum == [0.0, 0.0]


class TestMeetingRun:
    """The bundled instance on MEETING_SEED: start (1,1,3), candidates (2,3,1)."""

    def test_meeting_seed_draws_the_worked_example(self):
        tables = stack_contexts([build_agent_context(MEETING, i) for i in range(3)],
                                MEETING.finite_penalty())
        streams = [agent_stream(MEETING_SEED, STREAM_SOLVER, i) for i in range(3)]
        assert draw_values(tables, streams).tolist() == [1, 1, 3]     # the start
        assert draw_values(tables, streams).tolist() == [2, 3, 1]     # round 1

    def test_meeting_seed_draws_the_later_candidates(self):
        # the draws after round 1 that presets.MEETING_SEED documents
        tables = stack_contexts([build_agent_context(MEETING, i) for i in range(3)],
                                MEETING.finite_penalty())
        streams = [agent_stream(MEETING_SEED, STREAM_SOLVER, i) for i in range(3)]
        draws = [draw_values(tables, streams).tolist() for _ in range(4)]
        assert draws[2:] == [[2, 3, 2], [3, 3, 1]]                    # rounds 2, 3

    @pytest.mark.parametrize("kind, solver, budget", [
        ("udcop", "dsau", 10), ("udcop", "dsau", 2), ("udcop", "molex", 2),
        ("udcoppc", "dsau", 4),
    ], ids=["dsau-10", "dsau-2", "molex-2", "udcoppc-dsau-4"])
    def test_worked_example_matches_the_reference_engine(self, kind, solver, budget):
        # the per-agent reference draws the worked example from the same seed
        inst = three_student_meeting(kind)
        outcome, traces = run(inst, solver, SolverParams(), seed=MEETING_SEED,
                              round_budget=budget)
        ref_outcome, ref_traces = run_reference(inst, solver, SolverParams(),
                                                seed=MEETING_SEED, round_budget=budget)
        assert outcome == ref_outcome
        assert traces == ref_traces

    def test_privacy_aware_run_reaches_agreement(self):
        outcome, traces = run(MEETING, "dsau", SolverParams(),
                              seed=MEETING_SEED, round_budget=10)
        assert outcome.assignment == (1, 1, 1)
        assert outcome.satisfied
        first = traces[0]
        assert first.est_current == pytest.approx((150.0, 220.0, 240.0))
        assert first.est_next == pytest.approx((250.0, 265.0, 225.0))
        assert first.actions == ("keep", "keep", "change")
        assert outcome.per_agent_utilities == pytest.approx((150.0, 220.0, 130.0))

    def test_lex_baseline_reveals_more(self):
        outcome, _ = run(MEETING, "molex", SolverParams(),
                         seed=MEETING_SEED, round_budget=2)
        assert outcome.assignment == (2, 3, 3)
        assert outcome.per_agent_privacy == pytest.approx((100.0, 110.0, 10.0))
        udcop_outcome, _ = run(MEETING, "dsau", SolverParams(),
                               seed=MEETING_SEED, round_budget=2)
        assert outcome.per_agent_privacy[1] - udcop_outcome.per_agent_privacy[1] \
            == pytest.approx(10.0)


class TestRunBasics:
    def test_budget_one_runs_one_round_with_initial_reveals(self):
        outcome, traces = run(MEETING, "dsa", SolverParams(), seed=1, round_budget=1)
        assert outcome.rounds == 1 and len(traces) == 1
        assert all(c > 0 or e == () for c, e in
                   zip(traces[0].charged, traces[0].revealed))
        assert outcome.privacy_loss_per_agent > 0

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            run(MEETING, "gibbs", SolverParams(), seed=0, round_budget=5)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="round_budget"):
            run(MEETING, "dsa", SolverParams(), seed=0, round_budget=0)

    def test_invalid_instance_rejected(self):
        with pytest.raises(InstanceValidationError):
            run(Instance(kind="udcop", n=0, d=1, domains=(), unary=(), privacy=()),
                "dsa", SolverParams(), seed=0, round_budget=5)

    def test_runs_are_deterministic(self):
        inst = generate(GenConfig(n=8, d=6, density=0.4, seed=11))
        for algo in ("dsa", "dsau", "dbo", "dbou", "molex"):
            a = run(inst, algo, SolverParams(), seed=5, round_budget=40)
            b = run(inst, algo, SolverParams(), seed=5, round_budget=40)
            assert format_trace(a[1]) == format_trace(b[1])
            assert a[0] == b[0]

    def test_quiescence_stops_early(self):
        inst = generate(GenConfig(n=6, d=5, density=0.0, seed=2))
        outcome, _ = run(inst, "dsa", SolverParams(p=1.0), seed=3,
                         round_budget=500)
        assert outcome.rounds < 500

    @pytest.mark.parametrize("solver", SOLVER_KINDS)
    def test_unknown_divisor_mode_rejected(self, solver):
        with pytest.raises(ValueError, match="divisor_mode"):
            run(MEETING, solver, SolverParams(divisor_mode="mean"), seed=0,
                round_budget=5)

    @pytest.mark.parametrize("solver", SOLVER_KINDS)
    @pytest.mark.parametrize("params, message", [
        (dict(penalty=math.nan), r"penalty: must be a finite number > 0, got nan"),
        (dict(penalty=-5.0), r"penalty: must be a finite number > 0, got -5.0"),
        (dict(penalty=math.inf), r"penalty: must be a finite number > 0, got inf"),
        (dict(penalty=0.0), r"penalty: must be a finite number > 0, got 0.0"),
        (dict(penalty=5e-324), r"^penalty: the per-pair share .* is 0 at n=3"),
        (dict(p=3.0), r"p: must lie in \[0, 1\], got 3.0"),
        (dict(p=-0.1), r"p: must lie in \[0, 1\], got -0.1"),
        (dict(p=math.nan), r"p: must lie in \[0, 1\], got nan"),
    ])
    def test_bad_penalty_or_p_rejected(self, solver, params, message):
        with pytest.raises(ValueError, match=message):
            run(MEETING, solver, SolverParams(**params), seed=0, round_budget=5)

    @pytest.mark.parametrize("solver", SOLVER_KINDS)
    def test_zero_per_pair_instance_penalty_rejected(self, solver):
        def agents(n):
            return Instance(kind="udcop", n=n, d=2, domains=((1, 2),) * n,
                            unary=({},) * n, privacy=({1: 1.0, 2: 1.0},) * n,
                            penalty=5e-324)
        with pytest.raises(ValueError, match=r"global.penalty: the per-pair share "
                                             r"W/\(n-1\) .* is 0 at n=3"):
            run(agents(3), solver, SolverParams(), seed=0, round_budget=5)
        run(agents(1), solver, SolverParams(), seed=0, round_budget=5)   # no pairs

    def test_single_agent_run(self):
        inst = Instance(kind="udcop", n=1, d=2, domains=((1, 2),),
                        unary=({1: 5.0, 2: 1.0},), privacy=({1: 1.0, 2: 1.0},),
                        penalty=10.0)
        outcome, _ = run(inst, "dsa", SolverParams(p=1.0), seed=0, round_budget=10)
        assert outcome.satisfied
        assert outcome.assignment[0] in (1, 2)


@pytest.fixture(scope="module", params=["dsa", "dsau", "dbo", "dbou", "molex"])
def traced_run(request):
    inst = generate(GenConfig(n=8, d=6, density=0.5, seed=29))
    return run(inst, request.param, SolverParams(), seed=17, round_budget=60)


class TestRunInvariants:

    def test_cumulative_privacy_monotone(self, traced_run):
        _, traces = traced_run
        for i in range(len(traces[0].cum_privacy)):
            series = [t.cum_privacy[i] for t in traces]
            assert all(a <= b for a, b in zip(series, series[1:]))

    def test_each_entry_charged_once(self, traced_run):
        _, traces = traced_run
        seen = [set() for _ in traces[0].values]
        for t in traces:
            for i, entries in enumerate(t.revealed):
                for e in entries:
                    assert e not in seen[i]
                    seen[i].add(e)

    def test_total_is_privacy_plus_quality(self, traced_run):
        outcome, _ = traced_run
        assert outcome.total_cost_per_agent == pytest.approx(
            outcome.privacy_loss_per_agent + outcome.solution_quality_per_agent,
            abs=1e-9)

    def test_announcements_lag_adoption_by_one_round(self, traced_run):
        # an entry revealed in round r+1 is the value the agent adopted in r
        _, traces = traced_run
        for prev, cur in zip(traces, traces[1:]):
            for i, entries in enumerate(cur.revealed):
                for e in entries:
                    assert prev.values[i] == int(str(e).lstrip("c"))


class TestValueVisibilityDelay:
    def test_neighbors_react_to_previous_round_value(self):
        # two agents starting apart (seed 4 draws the start (1, 2)), both
        # moving in round 1: each reacts to the other's round-1 value, so
        # they swap rather than meet
        inst = Instance(
            kind="udcop", n=2, d=2, domains=((1, 2), (1, 2)),
            unary=({}, {}), privacy=({1: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0}),
            penalty=100.0)
        _, traces = run(inst, "dsa", SolverParams(p=1.0), seed=4, round_budget=1)
        assert traces[0].revealed == ((1,), (2,))
        assert traces[0].values == (2, 1)


class TestMetrics:
    def test_meeting_outcome_decomposition(self):
        ledger = ledger_for(MEETING)
        ledger.record([0, 1, 2], [1, 1, 3])
        ledger.record([2], [1])
        out = metrics(MEETING, ledger, (1, 1, 1))
        assert out.per_agent_utilities == pytest.approx((150.0, 220.0, 130.0))
        assert out.satisfied
        assert out.solution_quality_per_agent == pytest.approx(230 / 3)
        assert out.total_cost_per_agent == pytest.approx(
            out.privacy_loss_per_agent + out.solution_quality_per_agent)

    def test_empty_ledger_zero_assignment(self):
        inst = generate(GenConfig(n=4, d=3, density=0.0, seed=1))
        ledger = ledger_for(inst)
        out = metrics(inst, ledger, (2, 2, 2, 2))
        assert out.privacy_loss_per_agent == 0.0
        assert out.solution_quality_per_agent == 0.0
        assert out.total_cost_per_agent == 0.0

    def test_violation_flagged_and_penalized_separately(self):
        ledger = ledger_for(MEETING)
        out = metrics(MEETING, ledger, (1, 1, 3), penalty=9000.0)
        assert not out.satisfied
        assert out.solution_quality_per_agent == pytest.approx((70 + 120 + 230) / 3)
        assert out.quality_with_penalty_per_agent == pytest.approx(
            out.solution_quality_per_agent + 3000.0)


class TestTraceFormat:
    def test_header_and_shape(self):
        _, traces = run(MEETING, "dsau", SolverParams(),
                        seed=MEETING_SEED, round_budget=10)
        text = format_trace(traces)
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == [
            "round", "agent", "action", "value", "revealed", "charged",
            "est_current", "est_next", "cum_privacy"]
        assert len(lines) == 1 + 3 * len(traces)
        assert "150" in text and "225" in text

    def test_udcoppc_entries_in_trace(self):
        inst = three_student_meeting("udcoppc")
        _, traces = run(inst, "dsau", SolverParams(),
                        seed=MEETING_SEED, round_budget=4)
        text = format_trace(traces)
        assert "c1" in text and "c3" in text


class TestDsauEstimateInvariant:
    def test_changes_only_on_strict_estimate_drop(self):
        inst = generate(GenConfig(n=8, d=6, density=0.6, seed=41))
        _, traces = run(inst, "dsau", SolverParams(), seed=13, round_budget=40)
        for t in traces:
            for i, action in enumerate(t.actions):
                if action == "change":
                    assert t.est_next[i] < t.est_current[i]

    def test_round_estimate_sum_never_rises_from_adoptions(self):
        inst = generate(GenConfig(n=8, d=6, density=0.6, seed=43))
        _, traces = run(inst, "dsau", SolverParams(), seed=13, round_budget=40)
        for prev, cur in zip(traces, traces[1:]):
            assert sum(cur.est_current) <= sum(prev.est_current) + 1e-9



class TestInfiniteCosts:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solver", ["dbo", "dbou"])
    def test_agent_whose_every_value_costs_inf(self, solver):
        # agent 0 evaluates every value to inf, so its improvement is
        # undefined and it never offers; numpy must not warn about it
        inst = Instance(kind="udcop", n=3, d=2, domains=((1, 2),) * 3,
                        unary=({1: math.inf, 2: math.inf}, {}, {1: 3.0}),
                        privacy=({1: 1.0, 2: 1.0},) * 3, penalty=8.5)
        for seed in range(4):
            outcome, traces = run(inst, solver, SolverParams(), seed=seed, round_budget=20)
            ref_outcome, ref_traces = run_reference(inst, solver, SolverParams(),
                                                    seed=seed, round_budget=20)
            assert outcome == ref_outcome
            assert traces == ref_traces
            assert run(inst, solver, SolverParams(), seed=seed, round_budget=20,
                       trace=False) == (outcome, [])
            # value rounds show its evaluation, offer rounds its offer
            assert all(t.est_current[0] == math.inf for t in traces[0::2])
            assert all(t.est_current[0] == 0.0 for t in traces[1::2])


class TestUntracedRun:
    @pytest.mark.parametrize("solver", ["dbo", "dbou"])
    def test_agents_that_cannot_agree_run_to_the_budget(self, solver):
        # stuck from round 1, so an untraced run skips every later round
        inst = Instance(kind="udcop", n=2, d=2, domains=((1,), (2,)), unary=({}, {}),
                        privacy=({1: 1.0}, {2: 2.0}))
        for budget in range(1, 7):
            outcome, traces = run(inst, solver, seed=0, round_budget=budget)
            assert outcome.rounds == len(traces) == budget
            assert outcome.messages == 2 + 2 * (budget // 2)
            assert run(inst, solver, seed=0, round_budget=budget,
                       trace=False) == (outcome, [])


class TestBreakoutMemory:
    @pytest.mark.parametrize("solver", ["dbo", "dbou"])
    def test_peak_memory_stays_far_below_dense_weights(self, solver):
        # dense per-agent weights would take n*n*d*d*8 bytes = 46 MB here
        inst = generate(GenConfig(n=60, d=40, density=0.3, seed=5))
        tracemalloc.start()
        try:
            run(inst, solver, SolverParams(p=0.95, penalty=8.5), seed=1, round_budget=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


COSTS = st.one_of(st.integers(0, 9).map(float),
                  st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))


@st.composite
def edge_instances(draw):
    """Small instances of every kind: restricted domains, non-integer costs,
    finite and infinite penalties."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(KINDS))
    values = st.integers(1, d)
    domains = tuple(tuple(sorted(draw(st.sets(values, min_size=1)))) for _ in range(n))
    unary = tuple(draw(st.dictionaries(st.sampled_from(dom), COSTS)) for dom in domains)
    privacy = () if kind == "dcop" else tuple({v: draw(COSTS) for v in dom}
                                              for dom in domains)
    penalty = draw(st.sampled_from([math.inf, 0.5, 8.5, 100.0]))
    return Instance(kind=kind, n=n, d=d, domains=domains, unary=unary, privacy=privacy,
                    penalty=penalty)


@settings(max_examples=80, deadline=None)
@given(inst=edge_instances())
def test_instance_file_round_trips(inst):
    assert instance_from_json(instance_to_json(inst)) == inst


class TestMatchesPerAgentReference:
    @settings(max_examples=80, deadline=None)
    @given(inst=edge_instances(),
           p=st.sampled_from([0.0, 0.6, 1.0]),
           divisor_mode=st.sampled_from(["revealed", "domain"]),
           penalty=st.sampled_from([None, 2.0, 8.5]),
           pure_alg2=st.booleans(),
           budget=st.sampled_from([1, 2, 15]),
           seed=st.integers(0, 2**16))
    def test_outcome_and_trace_identical(self, inst, p, divisor_mode, penalty,
                                         pure_alg2, budget, seed):
        params = SolverParams(p=p, divisor_mode=divisor_mode, penalty=penalty,
                              pure_alg2=pure_alg2)
        for solver in SOLVER_KINDS:
            outcome, traces = run(inst, solver, params, seed=seed, round_budget=budget)
            ref_outcome, ref_traces = run_reference(inst, solver, params, seed=seed,
                                                    round_budget=budget)
            assert outcome == ref_outcome, solver
            assert format_trace(traces) == format_trace(ref_traces), solver
            assert traces == ref_traces, solver
            assert run(inst, solver, params, seed=seed, round_budget=budget,
                       trace=False) == (outcome, []), solver
