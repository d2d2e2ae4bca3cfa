"""Output checks: invariants of a correct run that can be checked from outside.

Each function returns a list of failure messages; an empty list means the
output passed. An operation that raises, exits non-zero or fails any check
counts as failed.
"""

from __future__ import annotations

import math


def outcome_failures(outcome, domains, budget: int) -> list[str]:
    """total = privacy + quality, 1 ≤ rounds ≤ budget, values in domain."""
    out = []
    if outcome.total_cost_per_agent != (outcome.privacy_loss_per_agent
                                        + outcome.solution_quality_per_agent):
        out.append("total_cost_per_agent != privacy + quality")
    if not 1 <= outcome.rounds <= budget:
        out.append(f"rounds {outcome.rounds} outside [1, {budget}]")
    for i, v in enumerate(outcome.assignment):
        if v not in domains[i]:
            out.append(f"agent {i}: value {v} outside its domain")
    return out


def row_failures(row, budget: int) -> list[str]:
    """The invariants a sweep CSV row carries on its own."""
    out = []
    if row.total_cost_per_agent != (row.privacy_loss_per_agent
                                    + row.solution_quality_per_agent):
        out.append(f"{row.algorithm} seed {row.seed}: total != privacy + quality")
    if not 1 <= row.rounds <= budget:
        out.append(f"{row.algorithm} seed {row.seed}: rounds {row.rounds} "
                   f"outside [1, {budget}]")
    return out


def ledger_failures(entries, n: int, rounds: int, per_agent_privacy=None,
                    mean_privacy: float | None = None) -> list[str]:
    """Check the privacy columns of a trace.

    `entries` yields (round, agent, charged, cum_privacy). Each agent's
    charges must be non-negative, its cumulative privacy must never
    decrease and must end at the sum of its charges, and that sum must
    equal the privacy the outcome reports: per agent when given, else as
    the per-agent mean printed to six significant digits.
    """
    out = []
    charged_sum = [0.0] * n
    cum = [0.0] * n
    last_round = 0
    for rnd, agent, charged, cum_privacy in entries:
        last_round = max(last_round, rnd)
        if charged < 0:
            out.append(f"round {rnd} agent {agent}: negative charge {charged}")
        if cum_privacy < cum[agent]:
            out.append(f"round {rnd} agent {agent}: cumulative privacy decreased")
        charged_sum[agent] += charged
        cum[agent] = cum_privacy
    if last_round != rounds:
        out.append(f"trace ends at round {last_round}, outcome says {rounds}")
    for i in range(n):
        if not math.isclose(charged_sum[i], cum[i], rel_tol=1e-9, abs_tol=1e-9):
            out.append(f"agent {i}: charges sum to {charged_sum[i]}, "
                       f"cumulative privacy is {cum[i]}")
        if per_agent_privacy is not None and not math.isclose(
                charged_sum[i], per_agent_privacy[i], rel_tol=1e-9, abs_tol=1e-9):
            out.append(f"agent {i}: charges sum to {charged_sum[i]}, "
                       f"outcome privacy is {per_agent_privacy[i]}")
    if mean_privacy is not None and not printed_equal(sum(charged_sum) / n, mean_privacy):
        out.append(f"mean privacy {sum(charged_sum) / n} != printed {mean_privacy}")
    return out


def trace_entries(traces):
    """(round, agent, charged, cum_privacy) rows of an engine trace."""
    for t in traces:
        for i, (charged, cum) in enumerate(zip(t.charged, t.cum_privacy)):
            yield t.round, i, charged, cum


def printed_equal(value: float, printed: float) -> bool:
    """Equality up to the six significant digits the command line prints."""
    return abs(value - printed) <= 2e-5 * max(1.0, abs(value))


def rerun_failures(row, outcome, traces, domains, budget: int) -> list[str]:
    """A rerun of a sweep row must reproduce it and pass the run checks."""
    out = outcome_failures(outcome, domains, budget)
    out += ledger_failures(trace_entries(traces), len(outcome.assignment),
                           outcome.rounds, outcome.per_agent_privacy)
    same = (outcome.privacy_loss_per_agent, outcome.solution_quality_per_agent,
            outcome.total_cost_per_agent, outcome.rounds, outcome.messages,
            outcome.satisfied) == (
            row.privacy_loss_per_agent, row.solution_quality_per_agent,
            row.total_cost_per_agent, row.rounds, row.messages, row.satisfied)
    if not same:
        out.append(f"{row.algorithm} seed {row.seed}: rerun differs from the sweep row")
    return out


def parse_fields(stdout: str) -> dict[str, str]:
    """`key: value` lines printed by the command line."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def solve_failures(stdout: str, trace_text: str, algo: str, doc: dict,
                   budget: int) -> list[str]:
    """Check `udcop solve` output and its `--trace` file against the instance."""
    f = parse_fields(stdout)
    try:
        assignment = [int(v) for v in f["assignment"].split()]
        rounds = int(f["rounds"])
        privacy = float(f["privacy_loss_per_agent"])
        quality = float(f["solution_quality_per_agent"])
        total = float(f["total_cost_per_agent"])
        satisfied = f["satisfied"]
        algorithm = f["algorithm"]
    except (KeyError, ValueError) as e:
        return [f"solve output unreadable: {e!r}"]
    n = doc["n"]
    out = []
    if algorithm != algo:
        out.append(f"algorithm {algorithm} != {algo}")
    if not printed_equal(total, privacy + quality):
        out.append("total_cost_per_agent != privacy + quality")
    if not 1 <= rounds <= budget:
        out.append(f"rounds {rounds} outside [1, {budget}]")
    if len(assignment) != n:
        out.append(f"assignment has {len(assignment)} values for {n} agents")
    for i, v in enumerate(assignment[:n]):
        if v not in doc["domains"][i]:
            out.append(f"agent {i}: value {v} outside its domain")
    if satisfied != ("true" if len(set(assignment)) <= 1 else "false"):
        out.append(f"satisfied={satisfied} contradicts the assignment")
    try:
        rows = [line.split("\t") for line in trace_text.splitlines()[1:]]
        entries = [(int(r[0]), int(r[1]), float(r[5]), float(r[8])) for r in rows]
        final = [int(r[3]) for r in rows if int(r[0]) == rounds]
    except (IndexError, ValueError) as e:
        return out + [f"trace file unreadable: {e!r}"]
    out += ledger_failures(entries, n, rounds, mean_privacy=privacy)
    if final != assignment:
        out.append("trace's last round disagrees with the printed assignment")
    return out


def oracle_failures(stdout: str, doc: dict) -> list[str]:
    """`udcop oracle` must print the cheapest common value (smallest on ties)."""
    f = parse_fields(stdout)
    try:
        assignment = [int(v) for v in f["assignment"].split()]
        cost = float(f["cost"])
    except (KeyError, ValueError) as e:
        return [f"oracle output unreadable: {e!r}"]
    common = set(doc["domains"][0]).intersection(*map(set, doc["domains"][1:]))
    totals = {v: sum(table.get(str(v), 0.0) for table in doc["unary"])
              for v in common}
    best = min(sorted(totals), key=totals.__getitem__)
    out = []
    if assignment != [best] * doc["n"]:
        out.append(f"oracle assignment {assignment}, expected all {best}")
    if not printed_equal(totals[best], cost):
        out.append(f"oracle cost {cost}, expected {totals[best]}")
    return out
