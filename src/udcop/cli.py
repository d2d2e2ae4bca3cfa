"""Command-line front end: gen / solve / oracle / sweep / trace-example.

Exit codes: 0 success, 1 usage error, 2 validation, run or file error.
Every rejected input (a ValueError) and every unusable file (an OSError)
takes the one path in `main` to exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from udcop import engine, experiments, oracle, presets
from udcop.engine import format_float
from udcop.generator import GENERATED_KINDS, GenConfig, generate
from udcop.model import save_instance, load_instance
from udcop.solvers import DIVISOR_MODES, SOLVER_KINDS


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="udcop",
                     description="Privacy-aware distributed constraint "
                                 "optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    solver_defaults = engine.SolverParams()
    sweep_defaults = experiments.SweepConfig()

    gen = sub.add_parser("gen", help="generate a meeting-scheduling instance")
    gen.add_argument("--agents", type=int, required=True)
    gen.add_argument("--values", type=int, required=True)
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--cost-max", type=int, default=GenConfig.cost_max)
    gen.add_argument("--privacy-max", type=int, default=GenConfig.privacy_max)
    gen.add_argument("--kind", choices=GENERATED_KINDS, default=GenConfig.kind)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="run one solver on an instance file")
    solve.add_argument("--in", dest="instance", required=True)
    solve.add_argument("--algo", choices=SOLVER_KINDS, required=True)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--rounds", type=int, default=engine.DEFAULT_ROUND_BUDGET)
    solve.add_argument("--p", type=float, default=solver_defaults.p,
                       help="activation probability for dsa")
    solve.add_argument("--divisor", choices=DIVISOR_MODES,
                       default=solver_defaults.divisor_mode)
    solve.add_argument("--penalty", type=float, default=None,
                       help="finite disagreement penalty W for local search")
    solve.add_argument("--pure-alg2", action="store_true",
                       help="drop the dsau conflict guard (estimate-only moves)")
    solve.add_argument("--trace", default=None,
                       help="write the per-round trace to this file")

    orc = sub.add_parser("oracle", help="exact optimum of an instance file")
    orc.add_argument("--in", dest="instance", required=True)

    sweep = sub.add_parser("sweep", help="run the density/algorithm sweep")
    sweep.add_argument("--densities",
                       default=",".join(map(str, sweep_defaults.densities)))
    sweep.add_argument("--instances", type=int, default=sweep_defaults.instances_per_cell)
    sweep.add_argument("--algos", default=",".join(sweep_defaults.algorithms))
    sweep.add_argument("--agents", type=int, default=sweep_defaults.n)
    sweep.add_argument("--values", type=int, default=sweep_defaults.d)
    sweep.add_argument("--seed", type=int, default=sweep_defaults.master_seed)
    sweep.add_argument("--rounds", type=int, default=sweep_defaults.round_budget)
    sweep.add_argument("--p", type=float, default=sweep_defaults.solver_params.p)
    sweep.add_argument("--penalty", type=float,
                       default=sweep_defaults.solver_params.penalty)
    sweep.add_argument("--out-dir", required=True)

    trace = sub.add_parser("trace-example",
                           help="print a golden trace of the bundled "
                                "three-student meeting instance")
    trace.add_argument("variant", choices=("dsau", "molex"))
    return parser


def _load(path: str):
    try:
        return load_instance(path)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _cmd_gen(args) -> int:
    inst = generate(GenConfig(n=args.agents, d=args.values, density=args.density,
                              seed=args.seed, cost_max=args.cost_max,
                              privacy_max=args.privacy_max, kind=args.kind))
    save_instance(inst, args.out)
    print(f"wrote {args.out} (kind={inst.kind}, n={inst.n}, d={inst.d})")
    return 0


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    params = engine.SolverParams(p=args.p, divisor_mode=args.divisor,
                                 penalty=args.penalty, pure_alg2=args.pure_alg2)
    created = False
    if args.trace:
        # a path that cannot be written costs no run; append keeps an old
        # trace intact until a run has succeeded
        created = not os.path.lexists(args.trace)
        open(args.trace, "a", encoding="utf-8").close()
    try:
        outcome, traces = engine.run(inst, args.algo, params,
                                     seed=args.seed, round_budget=args.rounds)
    except ValueError:
        if created:     # a rejected run leaves no empty trace behind
            os.remove(args.trace)
        raise
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as trace_file:
            engine.write_trace(traces, trace_file)
    print(f"algorithm: {args.algo}")
    print(f"assignment: {' '.join(str(v) for v in outcome.assignment)}")
    print(f"satisfied: {'true' if outcome.satisfied else 'false'}")
    print(f"rounds: {outcome.rounds}")
    print(f"messages: {outcome.messages}")
    print(f"privacy_loss_per_agent: {outcome.privacy_loss_per_agent:.6g}")
    print(f"solution_quality_per_agent: {outcome.solution_quality_per_agent:.6g}")
    print(f"total_cost_per_agent: {outcome.total_cost_per_agent:.6g}")
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.instance)
    try:
        result = oracle.exact_optimum(inst)
    except ValueError as e:
        raise ValueError(f"{args.instance}: {e}") from e
    print(f"assignment: {' '.join(str(v) for v in result.assignment)}")
    print(f"cost: {result.cost:.6g}")
    return 0


def _parse_densities(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"densities: expected numbers separated by commas, "
                         f"got {text!r}") from None


def _cmd_sweep(args) -> int:
    cfg = experiments.SweepConfig(
        densities=_parse_densities(args.densities),
        instances_per_cell=args.instances, n=args.agents, d=args.values,
        algorithms=tuple(args.algos.split(",")),
        solver_params=engine.SolverParams(p=args.p, penalty=args.penalty),
        master_seed=args.seed, round_budget=args.rounds)
    rows = experiments.run_sweep(cfg)
    csv_path, summary_path = experiments.write_outputs(rows, args.out_dir)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    print(f"wrote {summary_path}")
    print(summary_path.read_text(encoding="utf-8"), end="")
    return 0


def _print_rounds(traces, label: str) -> None:
    print(f"[{label}]")
    for t in traces:
        per_agent = "  ".join(
            f"A{i}: {t.actions[i]} value={t.values[i]} "
            f"est {format_float(t.est_current[i])}->{format_float(t.est_next[i])} "
            f"cum_privacy={format_float(t.cum_privacy[i])}"
            for i in range(len(t.values)))
        print(f"round {t.round}: {per_agent}")


def _cmd_trace_example(args) -> int:
    inst = presets.three_student_meeting()
    seed = presets.MEETING_SEED
    if args.variant == "dsau":
        outcome, traces = engine.run(inst, "dsau", seed=seed, round_budget=10)
        _print_rounds(traces, "privacy-aware stochastic search")
        print(f"final assignment: ({', '.join(str(v) for v in outcome.assignment)})")
        utils = outcome.per_agent_utilities
        print("final per-agent utilities: " + ", ".join(format_float(u) for u in utils))
        return 0

    udcop_outcome, _ = engine.run(inst, "dsau", seed=seed, round_budget=2)
    outcome, traces = engine.run(inst, "molex", seed=seed, round_budget=2)
    _print_rounds(traces, "lexicographic (privacy, cost) baseline")
    print(f"achieved values: ({', '.join(str(v) for v in outcome.assignment)})")
    print("cumulative privacy: " +
          ", ".join(format_float(p) for p in outcome.per_agent_privacy))
    extra = outcome.per_agent_privacy[1] - udcop_outcome.per_agent_privacy[1]
    print(f"A1 extra privacy loss vs the privacy-aware run: {format_float(extra)}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "trace-example": _cmd_trace_example,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:     # a rejected input, its message names the field
        message = str(e)
    except OSError as e:        # a file or directory that cannot be used
        message = f"{e.filename}: {e.strerror}"
    print(f"udcop: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
