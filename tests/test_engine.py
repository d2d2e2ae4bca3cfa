import pytest

from udcop.engine import RevealLedger, SolverParams, format_trace, metrics, run
from udcop.generator import GenConfig, generate
from udcop.model import GlobalConstraint, Instance, InstanceValidationError
from udcop.presets import scripted_meeting_params, three_student_meeting

MEETING = three_student_meeting()


class TestRevealLedger:
    def test_first_reveal_charges_full_cost(self):
        ledger = RevealLedger(MEETING)
        assert ledger.record(0, 1) == 80.0

    def test_repeat_reveal_is_free(self):
        ledger = RevealLedger(MEETING)
        ledger.record(0, 1)
        assert ledger.record(0, 1) == 0.0
        assert ledger.cum[0] == 80.0

    def test_constraint_id_reveal(self):
        pc = three_student_meeting("udcoppc")
        ledger = RevealLedger(pc)
        assert ledger.record(1, "c3") == 10.0

    def test_unknown_entry_rejected(self):
        ledger = RevealLedger(MEETING)
        with pytest.raises(ValueError):
            ledger.record(0, 9)


class TestScriptedMeetingRun:
    """The bundled instance with start (1,1,3) and candidates (2,3,1)."""

    def test_privacy_aware_run_reaches_agreement(self):
        outcome, traces = run(MEETING, "dsau", scripted_meeting_params(),
                              seed=0, round_budget=10)
        assert outcome.assignment == (1, 1, 1)
        assert outcome.satisfied
        first = traces[0]
        assert first.est_current == pytest.approx((150.0, 220.0, 240.0))
        assert first.est_next == pytest.approx((250.0, 265.0, 225.0))
        assert first.actions == ("keep", "keep", "change")
        assert outcome.per_agent_utilities == pytest.approx((150.0, 220.0, 130.0))

    def test_lex_baseline_reveals_more(self):
        outcome, _ = run(MEETING, "molex", scripted_meeting_params(),
                         seed=0, round_budget=2)
        assert outcome.assignment == (2, 3, 3)
        assert outcome.per_agent_privacy == pytest.approx((100.0, 110.0, 10.0))
        udcop_outcome, _ = run(MEETING, "dsau", scripted_meeting_params(),
                               seed=0, round_budget=2)
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
        bad = Instance(kind="udcop", n=0, d=1, domains=(), unary=(), privacy=())
        with pytest.raises(InstanceValidationError):
            run(bad, "dsa", SolverParams(), seed=0, round_budget=5)

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

    def test_single_agent_run(self):
        inst = Instance(kind="udcop", n=1, d=2, domains=((1, 2),),
                        unary=({1: 5.0, 2: 1.0},), privacy=({1: 1.0, 2: 1.0},),
                        global_constraint=GlobalConstraint(penalty=10.0))
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
        # two agents starting apart, both forced to move in round 1: each
        # reacts to the other's round-1 value, so they swap rather than meet
        inst = Instance(
            kind="udcop", n=2, d=2, domains=((1, 2), (1, 2)),
            unary=({}, {}), privacy=({1: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0}),
            global_constraint=GlobalConstraint(penalty=100.0))
        params = SolverParams(p=1.0, initial_values=(1, 2))
        _, traces = run(inst, "dsa", params, seed=0, round_budget=1)
        assert traces[0].values == (2, 1)


class TestMetrics:
    def test_meeting_outcome_decomposition(self):
        ledger = RevealLedger(MEETING)
        ledger.record(0, 1)
        ledger.record(1, 1)
        ledger.record(2, 3)
        ledger.record(2, 1)
        out = metrics(MEETING, ledger, (1, 1, 1))
        assert out.per_agent_utilities == pytest.approx((150.0, 220.0, 130.0))
        assert out.satisfied
        assert out.solution_quality_per_agent == pytest.approx(230 / 3)
        assert out.total_cost_per_agent == pytest.approx(
            out.privacy_loss_per_agent + out.solution_quality_per_agent)

    def test_empty_ledger_zero_assignment(self):
        inst = generate(GenConfig(n=4, d=3, density=0.0, seed=1))
        ledger = RevealLedger(inst)
        out = metrics(inst, ledger, (2, 2, 2, 2))
        assert out.privacy_loss_per_agent == 0.0
        assert out.solution_quality_per_agent == 0.0
        assert out.total_cost_per_agent == 0.0

    def test_violation_flagged_and_penalized_separately(self):
        ledger = RevealLedger(MEETING)
        out = metrics(MEETING, ledger, (1, 1, 3), penalty=9000.0)
        assert not out.satisfied
        assert out.solution_quality_per_agent == pytest.approx((70 + 120 + 230) / 3)
        assert out.quality_with_penalty_per_agent == pytest.approx(
            out.solution_quality_per_agent + 3000.0)


class TestTraceFormat:
    def test_header_and_shape(self):
        _, traces = run(MEETING, "dsau", scripted_meeting_params(),
                        seed=0, round_budget=10)
        text = format_trace(traces)
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == [
            "round", "agent", "action", "value", "revealed", "charged",
            "est_current", "est_next", "cum_privacy"]
        assert len(lines) == 1 + 3 * len(traces)
        assert "150" in text and "225" in text

    def test_udcoppc_entries_in_trace(self):
        inst = three_student_meeting("udcoppc")
        _, traces = run(inst, "dsau", scripted_meeting_params(),
                        seed=0, round_budget=4)
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

