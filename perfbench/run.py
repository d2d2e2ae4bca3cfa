#!/usr/bin/env python3
"""Benchmark of the udcop package: one workload, one seed, one result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,scale,cli} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the pass repeats untraced for S seconds and the last
line of standard output is a JSON object holding the end-to-end metrics
that BENCHMARK.json lists. With ``--trace 1`` it first repeats untraced for
S/2 seconds, then traced for S/2 seconds, and the JSON holds the per-layer
metrics. The lines before it report every metric measured, the machine and
the output hashes. perfbench/README.md describes the workloads and metrics.
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here, before udcop is imported

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "scale", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(wl, seconds, tracer=None, first=None):
    """Repeat the workload's pass for about `seconds` (at least once).

    A further pass starts only if, at the median pass time so far, it ends
    less than half a pass after the window does, so the measured time lies
    within half a pass of `seconds`. Starting only passes that fit would
    leave up to a whole pass unused, a third of the window on `sweep`,
    whose passes take 12-16 s. Each pass is checked after its timing ends.
    """
    from perfbench import tracer as tracing

    passes = []
    while True:
        restore = tracing.install(tracer) if tracer is not None and wl.in_process else None
        t0 = time.perf_counter()
        try:
            res = wl.run_pass(tracer)
        finally:
            if restore is not None:
                restore()
        res.seconds = time.perf_counter() - t0
        wl.after_pass(res, tracer)
        first = first or res
        wl.check(res, first)
        res.payload = None
        passes.append(res)
        spent = sum(p.seconds for p in passes)
        if spent + statistics.median(p.seconds for p in passes) / 2 > seconds:
            return passes


def setup_in_child(args) -> float:
    """Set the workload up in a fresh interpreter; its set-up seconds."""
    from perfbench import workloads

    out = workloads.OUT / f"setup-{os.getpid()}.txt"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    try:
        child = workloads.spawn(cmd, out)
        if child.code != 0:
            raise RuntimeError(f"set-up in a child failed ({child.code}): "
                               f"{child.stderr[-500:]}")
        return float(out.read_text().split()[-1])
    finally:
        out.unlink(missing_ok=True)


def import_seconds(pairs: int = 3) -> float:
    """A fresh `import udcop.cli` minus a bare interpreter start (medians)."""
    from perfbench import workloads

    out = workloads.OUT / f"import-{os.getpid()}.txt"
    bare, full = [], []
    try:
        for _ in range(pairs):
            for code, samples in (("pass", bare), ("import udcop.cli", full)):
                child = workloads.spawn([sys.executable, "-c", code], out)
                if child.code != 0:
                    raise RuntimeError(f"{code!r} failed: {child.stderr[-500:]}")
                samples.append(child.seconds)
    finally:
        out.unlink(missing_ok=True)
    return statistics.median(full) - statistics.median(bare)


def environment() -> dict:
    import numpy
    import scipy
    from udcop import kernels

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "kernels": kernels.backend_name(), "machine": platform.machine()}


def end_to_end(wl, passes, setups) -> dict:
    """(value, unit) of every end-to-end metric of an untraced window."""
    seconds = sum(p.seconds for p in passes)
    latencies = [x for p in passes for x in p.latencies]
    if wl.in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = max(p.peak_rss_kib for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (seconds / len(passes), "s"),
        "runs_per_s": (sum(p.runs for p in passes) / seconds, "1/s"),
        "agent_steps_per_s": (sum(p.agent_steps for p in passes) / seconds, "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "peak_rss_mb": (rss_kib * 1024 / 1e6, "MB"),
    }
    # The 90th percentile only where at least ten samples lie beyond it.
    if len(latencies) >= 100:
        metrics["latency_ms_p90"] = (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms")
    return metrics


def per_layer(wl, tr, traced, untraced) -> dict:
    """(value, unit) of every per-layer metric; sums are per pass."""
    k = len(traced)
    metrics = {}
    totals: dict[str, list] = {}      # function -> [calls, self seconds]
    modules: dict[str, float] = {}    # layer -> self seconds
    for name, s in tr.stats().items():
        base, _, algo = name.partition(":")
        total = totals.setdefault(base, [0, 0.0])
        total[0] += s["calls"]
        total[1] += s["self_s"]
        if algo:
            metrics[f"{base}.{algo}.ms_p50"] = (statistics.median(tr.durations(name)) * 1e3, "ms")
            metrics[f"{base}.{algo}.total_s"] = (s["total_s"] / k, "s")
        module = base.split(".")[0]
        modules[module] = modules.get(module, 0.0) + s["self_s"]
    for base, (calls, self_s) in totals.items():
        metrics[f"{base}.calls"] = (_per_pass(calls, k), "count")
        metrics[f"{base}.self_s"] = (self_s / k, "s")
    for module, self_s in modules.items():
        metrics[f"{module}.self_s"] = (self_s / k, "s")

    runs = tr.runs
    rounds = sum(r[3] for r in runs)
    metrics["engine.runs"] = (_per_pass(len(runs), k), "count")
    metrics["engine.rounds"] = (_per_pass(rounds, k), "count")
    metrics["engine.agent_steps"] = (_per_pass(sum(r[1] * r[3] for r in runs), k), "count")
    metrics["engine.messages"] = (_per_pass(sum(r[4] for r in runs), k), "count")
    metrics["engine.idle_round_share"] = (sum(r[5] for r in runs) / rounds if rounds else 0.0,
                                          "ratio")
    weighted = metrics.get("kernels.eval_all_weighted.calls", (0, ""))[0]
    # Computed, not measured: the (n-1) x d int64 weight gather per call, plus
    # the unary input and the output row.
    metrics["kernels.eval_all_weighted.bytes"] = (
        weighted * ((wl.n - 1) * wl.d + 2 * wl.d) * 8, "bytes")
    # Computed: dense int64[n, d, d] weights per agent of a breakout run.
    metrics["solvers.weights_bytes"] = (
        max((r[1] ** 2 * r[2] ** 2 * 8 for r in runs if r[0] in ("dbo", "dbou")), default=0),
        "bytes")
    traced_wall = sum(p.seconds for p in traced)
    metrics["trace.unaccounted_share"] = (1 - tr.root_seconds() / traced_wall, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                   - statistics.median(p.seconds for p in untraced), "s")
    metrics["cli.import_s"] = (import_seconds(), "s")
    return metrics


def _per_pass(total, k):
    return total // k if total % k == 0 else total / k


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "udcop" / "__init__.py").is_file():
        print(f"perfbench: no udcop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import tracer as tracing
    from perfbench import workloads
    import udcop

    if SRC not in Path(udcop.__file__).resolve().parents:
        print(f"perfbench: imported udcop from {udcop.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    try:
        wl.setup()
        own_setup = time.perf_counter() - _T0
        if args.setup_only:
            print(own_setup)
            return 0
        setups = [own_setup] + [setup_in_child(args) for _ in range(2)]

        window = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(wl, window)
        e2e = end_to_end(wl, untraced, setups)
        passes = list(untraced)
        layers = {}
        if args.trace:
            tr = tracing.Tracer()
            traced = measure(wl, window, tr, first=untraced[0])
            passes += traced
            layers = per_layer(wl, tr, traced, untraced)
        hashes = dict(wl.hashes, **workloads.trace_example_hashes())
    finally:
        workloads.cleanup(wl)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"passes untraced={len(untraced)} traced={len(passes) - len(untraced)} "
          f"latency_samples={sum(len(p.latencies) for p in untraced)}")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(f"{'error_rate':<40} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, digest in hashes.items():
        print(f"sha256 {name} {digest}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
