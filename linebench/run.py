"""linenet benchmark: one workload, timed in rounds of a fixed list of operations.

    python3 linebench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  The benchmark repeats the workload's operations in
whole rounds for about ``--seconds``, checks every output, and prints one
JSON object as its last line.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs one more round with the
tracer installed and reports the per-layer metrics.  Spans and the CLI
reports land in ``.linebench-out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".linebench-out")
MODULES = ("allocate", "amc", "cli", "dbie", "delay", "emc", "errors", "gf", "mixtures", "model", "netcod",
           "rbie", "sim")


def process_age() -> float:
    """Seconds since this process started (the start is known to a clock tick)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


# workloads, oracles and linenet import numpy, so they load only after
# main() has set the thread counts.
def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> dict:
    """Import linenet from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "linenet", "__init__.py")):
        sys.exit(f"linebench: no linenet sources under {SRC}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("linenet")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        sys.exit(f"linebench: imported linenet from {package.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"linenet.{name}") for name in MODULES}
    mods["package"] = package
    return mods


@dataclass
class Round:
    """Outcome of one pass over the operation list."""

    wall: float = 0.0
    op_seconds: dict[str, float] = field(default_factory=dict)
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # failed checks
    errors: list[str] = field(default_factory=list)  # unexpected failures


def run_round(ops, linenet_error, tracer=None) -> Round:
    from oracles import CheckFailed

    out = Round()
    for op in ops:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            value = op.run()
            ok = value == 0 if op.report else True
            error = f"exit code {value}"
        except linenet_error as exc:
            ok, error = False, f"{type(exc).__name__}: {exc}"
        out.op_seconds[op.name] = time.perf_counter() - start
        out.wall += out.op_seconds[op.name]
        if tracer is not None:
            tracer.active = False
        if not ok:
            out.failed += 1
            if not op.expect_fail:
                out.errors.append(f"{op.name}: {error}")
            continue
        try:
            op.check(value)
        except CheckFailed as exc:
            out.failed += 1
            out.wrong.append(f"{op.name}: {exc}")
    return out


# Per-layer metrics: name -> unit.  Every traced run reports all of them.
PER_LAYER_UNITS = {
    "emc.build_emc.s": "s", "emc.build_emc.calls": "count", "emc.build_emc.states": "count",
    "emc.stationary.s": "s", "emc.stationary.calls": "count", "emc.stationary.states": "count",
    "emc.capacity_flow_crosscheck.s": "s",
    "amc.build_amc.s": "s", "amc.build_amc.states": "count",
    "amc.capacity_lower.s": "s", "amc.capacity_upper.s": "s",
    "rbie.solve_batch.s": "s", "rbie.solve_batch.candidates": "count", "rbie.solve_batch.sweeps": "count",
    "rbie.solve.s": "s", "rbie.solve.calls": "count",
    "dbie.solve.s": "s", "dbie.solve.self_s": "s", "dbie.solve.calls": "count",
    "dbie.solve.sweeps": "count", "dbie.solve.dps_max": "digits",
    "dbie.dj_distribution.s": "s", "dbie.dj_distribution.terms": "count",
    "mixtures.convolve.s": "s", "mixtures.compact.s": "s",
    "delay.delay_profile.s": "s", "delay.delay_profile.pmf_len": "count",
    "sim.simulate_feedback.s": "s", "sim.simulate_feedback.epochs_per_s": "1/s",
    "sim.simulate_delay_fcfs.s": "s", "sim.simulate_delay_fcfs.epochs_per_s": "1/s",
    "netcod.simulate_no_feedback.q2.s": "s", "netcod.simulate_no_feedback.q2.epochs_per_s": "1/s",
    "netcod.simulate_no_feedback.q65536.s": "s", "netcod.simulate_no_feedback.q65536.epochs_per_s": "1/s",
    "gf.mul.calls": "count",
    "allocate.allocate.self_s": "s", "allocate.allocate.evaluated": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
EPOCH_RATES = ("sim.simulate_feedback", "sim.simulate_delay_fcfs",
               "netcod.simulate_no_feedback.q2", "netcod.simulate_no_feedback.q65536")


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    inclusive, own = tracer.totals()
    values: dict[str, float] = dict(tracer.quantities)
    for name, seconds in inclusive.items():
        values[f"{name}.s"] = seconds
        values[f"{name}.self_s"] = own[name]
    for name, n in tracer.counts.items():
        values[f"{name}.calls"] = n
    for name in EPOCH_RATES:
        seconds = values.get(f"{name}.s", 0.0)
        values[f"{name}.epochs_per_s"] = values.get(f"{name}.epochs", 0) / seconds if seconds else 0.0
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    # One BLAS and OpenMP thread, before numpy loads: the machine has two
    # cores and the benchmark is a single process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = parse_args(argv)
    mods = import_program()
    import workloads
    from tracer import Tracer

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    ctx = workloads.Context(workdir, mods)
    ops = workloads.build(args.workload, args.seed, ctx)
    setup_s = process_age()

    linenet_error = mods["errors"].LineNetError
    walls: list[float] = []
    op_seconds: dict[str, list[float]] = {}
    attempted = failed = 0
    wrong: list[str] = []
    errors: list[str] = []

    def account(rnd: Round) -> None:
        nonlocal attempted, failed
        attempted += len(ops)
        failed += rnd.failed
        wrong.extend(rnd.wrong)
        errors.extend(rnd.errors)

    # Whole rounds only; another round starts while at least half of it
    # still fits in the time given, so a run lasts about --seconds.
    first = time.perf_counter()
    while not walls or time.perf_counter() - first + statistics.mean(walls) / 2 < args.seconds:
        rnd = run_round(ops, linenet_error)
        walls.append(rnd.wall)
        for name, seconds in rnd.op_seconds.items():
            op_seconds.setdefault(name, []).append(seconds)
        account(rnd)
    wall_s = statistics.median(walls)

    if args.trace:
        tracer = Tracer()
        tracer.install(mods["package"])
        try:
            rnd = run_round(ops, linenet_error, tracer)
        finally:
            tracer.uninstall()
        account(rnd)
        tracer.dump(os.path.join(workdir, "spans.json"))
        metrics = per_layer(tracer, rnd.wall, wall_s)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    messages = errors + wrong + ctx.stderr.getvalue().splitlines()
    for line in sorted(set(messages)):
        print(f"linebench: {line}", file=sys.stderr)
    print(f"linebench: {len(walls)} rounds of {[round(w, 3) for w in walls]} s", file=sys.stderr)
    for name, seconds in op_seconds.items():
        print(f"linebench: {name} median {statistics.median(seconds):.3f} s", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
