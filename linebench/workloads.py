"""The three workloads: fixed lists of operations and the checks on their outputs.

An operation is either an in-process ``linenet.cli.main(argv)`` call or a
direct library call.  Only the call itself is timed; its check runs
afterwards from the written report or the returned value.  The seed picks
the small random specs (two-hop closed-form specs and a three-hop bounds
spec) and the seeds of the feedback and FCFS simulations; the large specs
are fixed, so the work per round hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

PAPER_FOUR_HOP = ((0.5, 0.4999, 0.4998, 0.4), (5, 5, 5))
SPEC_4096 = ((0.3, 0.5, 0.5, 0.2, 0.4), (7, 7, 7, 7))
SPEC_14641 = ((0.25,) * 5, (10,) * 4)
SIX_HOP_59049 = ((0.25,) * 6, (8,) * 5)
SLOW_MIXING_4096 = ((0.005,) * 5, (7,) * 4)
EIGHT_HOP_M5 = ((0.25,) * 8, (5,) * 7)
EIGHT_HOP_M10 = ((0.25,) * 8, (10,) * 7)
CODED = ((0.5, 0.5, 0.5), (2, 2))
ALLOCATE_EPS = (0.3, 0.5, 0.5, 0.2)
ALLOCATE_BUDGET = 30
MIN_DELAY_FLOOR = 0.485
CONTINUOUS = ((10.0, 3.0, 2.99), (3, 3), 0.001)

# Exact capacities of the two chains too large for a dense reference, from
# oracles.sparse_exact_capacity (tests/test_oracles.py recomputes them).
PINNED_CAPACITY = {
    SIX_HOP_59049: 0.705603931493604,
    SLOW_MIXING_4096: 0.9936202379327392,
}

TWO_HOP_BUFFERS = (2, 5, 10)
THREE_HOP_BUFFERS = (3, 2)
CAPACITY_TOL = 1e-12  # emc.capacity_exact's default tolerance
CLI_TOL = 1e-10  # linenet's default --tol
SIM_EPOCHS = 5 * 10**5
FCFS_EPOCHS = 2 * 10**5
NETCOD_EPOCHS = 2 * 10**4
# The coded simulator runs at a fixed seed: how often it multiplies in
# GF(q) depends on the channel draws, and gf.mul.calls must repeat exactly.
NETCOD_SEED = "1"


@dataclass
class Op:
    """One timed call.  ``run`` returns a value for ``check``.  A CLI call
    returns its exit code, fails when that is not 0, and writes ``report``."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    report: str | None = None
    expect_fail: bool = False


class Context:
    """Where specs and reports go, and the linenet modules the ops call."""

    def __init__(self, workdir: str, linenet_modules: dict):
        self.workdir = workdir
        self.mod = linenet_modules
        os.makedirs(os.path.join(workdir, "specs"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "reports"), exist_ok=True)
        self.stderr = io.StringIO()

    def spec_file(self, name: str, spec) -> str:
        eps, buffers = spec
        path = os.path.join(self.workdir, "specs", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"eps": list(eps), "buffers": list(buffers)}, fh)
        return path

    def network(self, spec):
        return self.mod["model"].NetworkSpec(*spec)

    def cli_op(self, name: str, argv: list[str], check: Callable[[dict], None], expect_fail: bool = False) -> Op:
        out = os.path.join(self.workdir, "reports", f"{name}.json")
        main = self.mod["cli"]

        def run():
            with contextlib.redirect_stderr(self.stderr):
                return main.main([*argv, "--out", out])

        def check_report(_code):
            with open(out, encoding="utf-8") as fh:
                check(json.load(fh)["result"])

        return Op(name, run, check_report, report=out, expect_fail=expect_fail)


def two_hop_specs(rng: np.random.Generator):
    """Two-hop specs with random erasure probabilities, at least 0.05 apart.

    Buffer sizes are fixed so that the chain sizes, and with them the
    per-layer counts, do not depend on the seed.
    """
    out = []
    for m in TWO_HOP_BUFFERS:
        while True:
            e1, e2 = (float(v) for v in np.round(rng.uniform(0.1, 0.9, 2), 4))
            if abs(e1 - e2) >= 0.05:
                break
        out.append(((e1, e2), (m,)))
    return out


def reversed_spec(spec):
    eps, buffers = spec
    return tuple(reversed(eps)), tuple(reversed(buffers))


def min_cut(spec) -> float:
    return min(1.0 - e for e in spec[0])


# ---------------------------------------------------------------------------
# exact: exact chains and bounds
# ---------------------------------------------------------------------------

def exact_ops(ctx: Context, rng: np.random.Generator) -> list[Op]:
    emc = ctx.mod["emc"]
    ops = []

    def cli_tolerance(spec):
        return oracles.capacity_tolerance(ctx.network(spec).num_states, CLI_TOL)

    def exact_report(spec, ref=None):
        def check(res):
            if ref is not None:
                oracles.check_close("exact capacity", res["capacity"], ref, cli_tolerance(spec))
            oracles.check_flow(res["capacity"], res["interior_link_rates"])
            oracles.check_sandwich(0.0, res["capacity"], res["capacity"], min_cut(spec))
        return check

    four = PAPER_FOUR_HOP
    four_ref = oracles.dense_exact_capacity(*four)
    ops.append(ctx.cli_op("exact.paper_four_hop", ["exact", "--spec", ctx.spec_file("four", four)],
                          exact_report(four, four_ref)))
    # Both fail today: the stationary solve stops on a small step, not a
    # small error, and the flow crosscheck then rejects the result.
    for name, spec in (("exact.s4096", SPEC_4096), ("exact.s14641", SPEC_14641)):
        ops.append(ctx.cli_op(name, ["exact", "--spec", ctx.spec_file(name, spec)],
                              exact_report(spec), expect_fail=True))

    three = (tuple(float(v) for v in np.round(rng.uniform(0.1, 0.9, 3), 4)), THREE_HOP_BUFFERS)
    for name, spec in (("bounds.three_hop", three), ("bounds.paper_four_hop", four)):
        ref = oracles.dense_exact_capacity(*spec)

        def check(res, spec=spec, ref=ref):
            oracles.check_sandwich(res["lower"], res["exact"], res["upper"], min_cut(spec))
            oracles.check_close("exact capacity", res["exact"], ref, cli_tolerance(spec))
        ops.append(ctx.cli_op(name, ["bounds", "--with-exact", "--spec", ctx.spec_file(name, spec)], check))

    for name, spec in (("capacity_exact.six_hop_59049", SIX_HOP_59049),
                       ("capacity_exact.slow_mixing_4096", SLOW_MIXING_4096)):
        net = ctx.network(spec)
        ref = PINNED_CAPACITY[spec]
        tol = oracles.capacity_tolerance(net.num_states, CAPACITY_TOL)
        ops.append(Op(name, lambda net=net: emc.capacity_exact(net),
                      lambda c, ref=ref, tol=tol: oracles.check_close("exact capacity", c, ref, tol)))

    for i, spec in enumerate(two_hop_specs(rng)):
        ref = oracles.two_hop_capacity(spec[0][0], spec[0][1], spec[1][0])
        ops.append(ctx.cli_op(f"exact.two_hop.{i}", ["exact", "--spec", ctx.spec_file(f"two_hop_{i}", spec)],
                              lambda res, ref=ref, tol=cli_tolerance(spec): oracles.check_close(
                                  "two-hop exact capacity", res["capacity"], ref, tol)))

    for name, spec in (("reversal.paper_four_hop", four), ("reversal.s4096", SPEC_4096)):
        fwd, rev = ctx.network(spec), ctx.network(reversed_spec(spec))
        tol = oracles.capacity_tolerance(fwd.num_states, CAPACITY_TOL)
        ops.append(Op(name, lambda fwd=fwd, rev=rev: (emc.capacity_exact(fwd), emc.capacity_exact(rev)),
                      lambda pair, tol=tol: oracles.check_close("reversed capacity", pair[1], pair[0], tol)))
    return ops


# ---------------------------------------------------------------------------
# analytic: iterative estimates, delay profiles, allocation search
# ---------------------------------------------------------------------------

def analytic_ops(ctx: Context, rng: np.random.Generator) -> list[Op]:
    rbie = ctx.mod["rbie"]
    hops = len(ALLOCATE_EPS)
    ops = []

    def check_max_throughput(res):
        oracles.check_evaluated(res["evaluated"], ALLOCATE_BUDGET, hops)
        parts = hops - 1
        balanced = [ALLOCATE_BUDGET // parts + (i < ALLOCATE_BUDGET % parts) for i in range(parts)]
        ref = rbie.capacity(rbie.solve(ctx.network((ALLOCATE_EPS, balanced)), tol=1e-12))
        best = res["best"]
        oracles.check_max_throughput_winner(best["buffers"], best["capacity"], ALLOCATE_BUDGET, ref)

    def check_min_delay(res):
        oracles.check_evaluated(res["evaluated"], ALLOCATE_BUDGET, hops)
        oracles.check_floor(res["best"]["capacity"], MIN_DELAY_FLOOR)

    allocate = ["allocate", "--eps", ",".join(map(str, ALLOCATE_EPS)), "--budget", str(ALLOCATE_BUDGET)]
    ops.append(ctx.cli_op("allocate.max_throughput", allocate, check_max_throughput))
    ops.append(ctx.cli_op("allocate.min_delay",
                          [*allocate, "--objective", "min-delay", "--floor", str(MIN_DELAY_FLOOR)], check_min_delay))

    def check_delay(res):
        oracles.check_relative("rbie delay mean vs Little's law", res["rbie"]["mean"], res["rbie"]["little_mean"], 0.02)

    ops.append(ctx.cli_op("delay.eight_hop_m10",
                          ["delay", "--method", "both", "--spec", ctx.spec_file("eight_hop_m10", EIGHT_HOP_M10)],
                          check_delay))

    lambdas, buffers, tau = CONTINUOUS
    ctmc = oracles.continuous_tandem_throughput(lambdas, buffers)
    ops.append(ctx.cli_op(
        "continuous.bridge",
        ["continuous", "--lambdas", ",".join(map(str, lambdas)), "--buffers", ",".join(map(str, buffers)),
         "--tau", str(tau)],
        lambda res: oracles.check_relative("discretized exact vs continuous chain",
                                           res["packets_per_second"]["exact"], ctmc, 0.005)))

    for i, spec in enumerate(two_hop_specs(rng)):
        ref = oracles.two_hop_capacity(spec[0][0], spec[0][1], spec[1][0])
        path = ctx.spec_file(f"two_hop_{i}", spec)
        for method in ("rbie", "dbie"):
            ops.append(ctx.cli_op(
                f"{method}.two_hop.{i}", [method, "--spec", path],
                lambda res, ref=ref, method=method: oracles.check_close(
                    f"two-hop {method} capacity", res["capacity"], ref, 1e-9)))
    return ops


# ---------------------------------------------------------------------------
# simulate: Monte-Carlo simulators
# ---------------------------------------------------------------------------

def simulate_ops(ctx: Context, rng: np.random.Generator) -> list[Op]:
    rbie, delay = ctx.mod["rbie"], ctx.mod["delay"]
    seed = str(int(rng.integers(0, 2**31)))
    ops = []

    four = PAPER_FOUR_HOP
    four_ref = oracles.dense_exact_capacity(*four)
    ops.append(ctx.cli_op(
        "simulate.paper_four_hop",
        ["simulate", "--epochs", str(SIM_EPOCHS), "--seed", seed, "--spec", ctx.spec_file("four", four)],
        lambda res: oracles.check_within_se("simulated throughput", res["throughput"], res["throughput_se"],
                                            four_ref, 4.0)))

    fcfs = EIGHT_HOP_M5

    def check_fcfs(res):
        oracles.check_sim_little(res["occupancy_counts"], res["throughput"], res["delay_mean"])
        net = ctx.network(fcfs)
        analytic = delay.delay_profile(net, delay.psi_rho_from_rbie(rbie.solve(net), net)).mean
        oracles.check_close("simulated mean delay", res["delay_mean"], analytic, max(1.0, 4.0 * res["delay_se"]))

    ops.append(ctx.cli_op(
        "simulate.fcfs_eight_hop_m5",
        ["simulate", "--mode", "delay", "--epochs", str(FCFS_EPOCHS), "--seed", seed,
         "--spec", ctx.spec_file("eight_hop_m5", fcfs)],
        check_fcfs))

    coded_ref = oracles.dense_exact_capacity(*CODED)
    path = ctx.spec_file("coded", CODED)
    netcod = ["netcod", "--epochs", str(NETCOD_EPOCHS), "--seed", NETCOD_SEED, "--spec", path]
    ops.append(ctx.cli_op(
        "netcod.q2", [*netcod, "--q", "2"],
        lambda res: oracles.check_below_by_se("GF(2) innovative rate", res["innovative_rate"],
                                              res["innovative_rate_se"], coded_ref, 3.0)))
    ops.append(ctx.cli_op(
        "netcod.q65536", [*netcod, "--q", "65536"],
        lambda res: oracles.check_close("GF(65536) innovative rate", res["innovative_rate"], coded_ref, 1e-2)))
    return ops


BUILDERS = {"exact": exact_ops, "analytic": analytic_ops, "simulate": simulate_ops}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, ctx: Context) -> list[Op]:
    return BUILDERS[workload](ctx, np.random.default_rng(seed))
