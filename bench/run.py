"""Benchmark of ssetkit: three workloads through the public API, every
answer checked, end-to-end metrics untraced and per-layer metrics traced.

Run from the root of the repository:

    python3 bench/run.py                      # all workloads, one table
    python3 bench/run.py --workload soa --seed 3 --seconds 20 --trace 0

With --workload all (the default) each workload runs in its own process.
For one workload the last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("soa", "cells", "homology")
SETUP_REPEATS = 5

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    "core.enumerate_maps.calls", "core.enumerate_maps.self_s",
    "core.enumerate_maps.cache_hits", "core.enumerate_maps.cache_entries",
    "core.act.calls", "core.act.self_s",
    "core.compose.calls", "core.compose.self_s",
    "core.validate.self_s", "core.map_errors.self_s",
    "colimits.pushout.calls", "colimits.pushout.self_s",
    "colimits.pushout_induced.self_s", "colimits.coproduct.self_s",
    "colimits.sequential_colimit.self_s",
    "lifting.solve_lift.calls", "lifting.solve_lift.self_s",
    "lifting.solve_lift.refuted",
    "lifting.enumerate_squares.self_s",
    "lifting.enumerate_squares.pairs_tested",
    "lifting.enumerate_squares.yield",
    "lifting.check_rlp.self_s",
    "cells.close_stage.calls", "cells.close_stage.self_s",
    "cells.realize.calls", "cells.realize.self_s",
    "cells.j_to_i_presentation.self_s", "cells.factor_through_stage.self_s",
    "factorization.factorize.self_s",
    "factorization.verify_factorization.self_s",
    "homology.homology_groups.self_s",
    "homology.chain_complex.self_s",
    "homology.smith_normal_form.calls", "homology.smith_normal_form.self_s",
    "homology.smith_normal_form.entries",
    "homology.mapping_cone.self_s",
    "homology.weak_equivalence_certificate.self_s",
    "formats.parse_document.self_s", "formats.parse_cellpres.self_s",
    "formats.print_document.self_s", "formats.print_cellpres.self_s",
    "cli.main.calls", "cli.main.self_s",
    "trace.op_s", "trace.uncovered_s",
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".yield"):
        return "ratio"
    return "count"


def load_library():
    """Import ssetkit from this checkout's src/ and the benchmark modules;
    exits with code 2 when the sources are missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ssetkit
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import ssetkit from {src}: {exc}\n")
        sys.exit(2)
    if Path(ssetkit.__file__).resolve().parent.parent != src.resolve():
        sys.stderr.write(f"bench: ssetkit imported from {ssetkit.__file__}, "
                         f"not from {src}\n")
        sys.exit(2)
    import workloads
    return workloads


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# One workload in this process

class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies = []
        self.errors = []

    def wrong(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)


def run_round(ops, workloads, outcome, tracer=None, reference=None):
    """Run every operation once, timing only the call; returns the outcome
    digests in operation order.  Each operation starts from an empty
    hom-set cache, as in a fresh process, so that its time does not depend
    on which operations ran before it."""
    clock = time.perf_counter
    clear_cache = workloads.core.enumerate_maps.cache_clear
    digests = []
    for idx, op in enumerate(ops):
        exc = result = None
        clear_cache()
        if tracer is None:
            start = clock()
            try:
                result = op.call()
            except Exception as e:  # counted and classified below
                exc = e
            end = clock()
        else:
            start = tracer.begin_op(op.kind)
            try:
                result = op.call()
            except Exception as e:
                exc = e
            end = tracer.end_op()
        duration = end - start
        outcome.attempted += 1
        outcome.busy_s += duration
        if exc is not None:
            outcome.failed += 1
            digest = f"raised {type(exc).__name__}"
            if type(exc).__name__ != op.fault:
                outcome.wrong(f"{op.kind}: unexpected {type(exc).__name__}: "
                              f"{exc}")
        else:
            outcome.latencies.append(duration)
            try:
                digest = op.check(result)
            except workloads.WrongAnswer as e:
                digest = f"wrong {e}"
                outcome.wrong(f"{op.kind}: {e}")
        if reference is not None and reference[idx] != digest:
            outcome.wrong(f"{op.kind}: traced outcome {digest!r} differs "
                          f"from untraced {reference[idx]!r}")
        digests.append(digest)
    return digests


def measure_setup(workload, seed):
    """Median wall time from spawning a fresh interpreter to the point where
    its inputs are ready (import, generation and documents written)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("setup-only child failed")
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def run_workload(args):
    workloads = load_library()
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print(time.monotonic())
            return 0
        return measure(args, workloads, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, ops):
    tracer = reference = None
    if args.trace:
        import spans
        reference = run_round(ops, workloads, Outcome())
        tracer = spans.Tracer([sys.modules["workloads"]])
        tracer.install()
    outcome = Outcome()
    start = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - start < args.seconds:
        run_round(ops, workloads, outcome, tracer, reference)
        rounds += 1
    completed = len(outcome.latencies)
    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"rounds={rounds} ops_per_round={len(ops)} "
             f"attempted={outcome.attempted} failed={outcome.failed} "
             f"completed={completed}"]
    if tracer is not None:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
        values = tracer.metrics()
        metrics = {name: {"value": values[name], "unit": layer_unit(name)}
                   for name in PER_LAYER}
        covered = 1 - values["trace.uncovered_s"] / values["trace.op_s"]
        lines.append(f"traced ops_per_s {completed / outcome.busy_s:.6g} 1/s")
        lines.append(f"layer self times cover {covered:.1%} of "
                     f"{values['trace.op_s']:.3f} s traced operation time")
    else:
        setup_s = measure_setup(args.workload, args.seed)
        values = {
            "ops_per_s": completed / outcome.busy_s,
            "latency_p50_ms": 1000 * percentile(outcome.latencies, 50),
            "latency_p90_ms": 1000 * percentile(outcome.latencies, 90),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        lines.extend(f"{name} {values[name]:.6g} {unit}"
                     + (f" (n={completed})" if name.startswith("latency")
                        else "")
                     for name, unit in END_TO_END)
    for message in outcome.errors:
        sys.stderr.write(f"WRONG {message}\n")
    for line in lines:
        print(line)
    correct = not outcome.errors
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# All workloads, each in its own process

def run_all(args):
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().split("\n")
        if proc.returncode != 0 and not out[-1].startswith("{"):
            print(f"{name}: failed with exit code {proc.returncode}")
            status = proc.returncode or 1
            continue
        status = status or proc.returncode
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        rows.append((name, result))
    print()
    for name, result in rows:
        completed = result["attempted"] - result["failed"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"(percentiles over {completed} completed operations)")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
