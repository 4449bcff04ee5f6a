"""Command-line front end.

Subcommands: exact | bounds | rbie | dbie | delay | simulate | netcod |
continuous | allocate | reproduce.  Single results are emitted as JSON
documents carrying the resolved configuration; sweeps land in CSV.
Exit codes: 0 success, 2 validation error, 3 convergence failure,
4 state-space cap (``emc.STATE_CAP`` states) exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, allocate as allocate_mod, amc, dbie, delay, emc, rbie, sim
from . import netcod as netcod_mod
from .errors import (
    ConvergenceError,
    LineNetError,
    SpecValidationError,
    StateSpaceCapError,
)
from .gf import GF2m, SUPPORTED_FIELD_SIZES
from .model import NetworkSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_CAP = 4


def _load_spec(args) -> NetworkSpec:
    if args.spec is None:
        raise SpecValidationError("--spec PATH is required for this command")
    return NetworkSpec.load(args.spec)


def _report(args, command: str, result: dict, notes: list[str] | None = None) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    doc = {
        "tool": "linenet",
        "version": __version__,
        "command": command,
        "config": cfg,
        "result": result,
    }
    if notes:
        doc["notes"] = notes
    return doc


def _flatten(prefix: str, value, into: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, into)
    elif isinstance(value, (list, tuple)):
        into[prefix] = ";".join(str(v) for v in value)
    else:
        into[prefix] = value


def _strict(value):
    """Non-finite floats become None: strict JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(args, doc: dict) -> None:
    if getattr(args, "format", "json") == "csv":
        flat: dict = {}
        _flatten("", doc["result"], flat)
        _write_csv(args.out, list(flat), [list(flat.values())])
        return
    text = json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows as CSV to ``path``, or to stdout when it is None."""
    target = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            target.close()


def cmd_exact(args) -> int:
    spec = _load_spec(args)
    chain = emc.build_emc(spec)
    pi = emc.stationary(chain, tol=args.tol)
    cap = emc.capacity_exact(spec, pi=pi)
    cross = emc.capacity_flow_crosscheck(spec, tol=args.tol, pi=pi)
    result = {
        "capacity": cap,
        "interior_link_rates": list(cross),
        "num_states": spec.num_states,
        "min_cut": spec.min_cut,
    }
    if args.dump_matrix:
        coo = chain.probs.tocoo()
        _write_csv(args.dump_matrix, ["row", "col", "prob"],
                   zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    _emit(args, _report(args, "exact", result))
    return EXIT_OK


def cmd_bounds(args) -> int:
    spec = _load_spec(args)
    res = amc.bounds(spec, tol=args.tol, with_exact=args.with_exact)
    notes = []
    if not res.distinct_eps:
        notes.append("erasure probabilities are not pairwise distinct")
    result = {
        "lower": res.lower,
        "upper": res.upper,
        "exact": res.exact,
        "sandwich_ok": res.sandwich_ok(),
    }
    _emit(args, _report(args, "bounds", result, notes))
    return EXIT_OK


def cmd_rbie(args) -> int:
    spec = _load_spec(args)
    sol = rbie.solve(spec, tol=args.tol)
    result = {
        "capacity": rbie.capacity(sol),
        "rates": sol.r.tolist(),
        "blocking": sol.pb.tolist(),
        "iterations": sol.iterations,
        "residual": sol.residual,
    }
    _emit(args, _report(args, "rbie", result))
    return EXIT_OK


def cmd_dbie(args) -> int:
    spec = _load_spec(args)
    sol = dbie.solve(spec, tol=args.tol)
    result = {
        "capacity": dbie.capacity(sol),
        "blocking": sol.pb.tolist(),
        "starvation_fraction": sol.alpha.tolist(),
        "destination_interarrival": sol.f[-1].to_obj(),
        "iterations": sol.iterations,
        "precision_digits": sol.dps,
        "truncated_mass": sol.truncated_mass,
    }
    _emit(args, _report(args, "dbie", result))
    return EXIT_OK


def cmd_delay(args) -> int:
    spec = _load_spec(args)
    result: dict = {}
    if args.method in ("rbie", "both"):
        rsol = rbie.solve(spec, tol=args.tol)
        inputs = delay.psi_rho_from_rbie(rsol, spec)
        prof = delay.delay_profile(spec, inputs, include_source=args.include_source)
        result["rbie"] = {
            "mean": prof.mean,
            "variance": prof.variance,
            "little_mean": rsol.mean_delay,
            "per_node_little": (rsol.occupancy_mean / rbie.capacity(rsol)).tolist(),
        }
        pmf_prof = prof
    if args.method in ("dbie", "both"):
        dsol = dbie.solve(spec, tol=args.tol)
        inputs = delay.psi_rho_from_dbie(dsol, spec)
        prof = delay.delay_profile(spec, inputs, include_source=args.include_source)
        result["dbie"] = {"mean": prof.mean, "variance": prof.variance}
        if args.method == "dbie":
            pmf_prof = prof
    if args.pmf_out:
        pmf = pmf_prof.pmf.tolist()
        _write_csv(args.pmf_out, ["delay_epochs", "probability", "cumulative"],
                   zip(range(len(pmf)), pmf, pmf_prof.cdf().tolist()))
    _emit(args, _report(args, "delay", result))
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load_spec(args)
    if args.mode == "delay":
        stats = sim.simulate_delay_fcfs(spec, args.epochs, warmup=args.warmup, seed=args.seed)
    else:
        stats = sim.simulate_feedback(spec, args.epochs, warmup=args.warmup, seed=args.seed)
    result = stats.to_obj()
    if args.hist_out:
        if args.mode == "delay" and stats.delay_counts is not None:
            _write_csv(args.hist_out, ["delay_epochs", "count"], enumerate(stats.delay_counts.tolist()))
        else:
            _write_csv(args.hist_out, ["node", "occupancy", "count"], (
                [j, k, int(c)] for j, row in enumerate(stats.occupancy_counts) for k, c in enumerate(row)
            ))
    _emit(args, _report(args, "simulate", result))
    return EXIT_OK


def _values(text: str, kind, what: str) -> tuple:
    """The entries of a comma-separated option, each converted by ``kind``."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise SpecValidationError(
            f"{what} {text!r} is not a comma-separated list of {kind.__name__} values"
        ) from None


def cmd_netcod(args) -> int:
    spec = _load_spec(args)
    # every field size is checked before the first simulation
    sizes = _values(args.q_sweep, int, "--q-sweep") if args.q_sweep else ()
    for q in sizes:
        GF2m(q)  # the one field-size check; raises SpecValidationError
    # before any simulation, so that a spec over the state cap fails at once
    exact = emc.capacity_exact(spec) if args.compare_exact else None
    if args.q_sweep:
        rows = []
        for q in sizes:
            st = netcod_mod.simulate_no_feedback(
                spec, q, args.epochs, warmup=args.warmup, seed=args.seed
            )
            rows.append([q, st.innovative_rate, st.innovative_rate_se, exact])
        _write_csv(args.out, ["q", "innovative_rate", "se", "exact_capacity"], rows)
        return EXIT_OK
    stats = netcod_mod.simulate_no_feedback(
        spec, args.q, args.epochs, warmup=args.warmup, seed=args.seed
    )
    result = {
        "q": stats.q,
        "innovative_rate": stats.innovative_rate,
        "innovative_rate_se": stats.innovative_rate_se,
        "destination_rank": stats.destination_rank,
    }
    if args.compare_exact:
        result["exact_capacity"] = exact
    _emit(args, _report(args, "netcod", result))
    return EXIT_OK


def cmd_continuous(args) -> int:
    lambdas = _values(args.lambdas, float, "--lambdas")
    buffers = _values(args.buffers, int, "--buffers")
    cspec = sim.ContinuousSpec(lambdas=lambdas, buffers=buffers, tau=args.tau)
    net = sim.discretize(cspec)
    result = {
        "eps": list(net.eps),
        "tau": cspec.tau,
        "packets_per_second": {},
    }
    scale = 1 / cspec.tau
    if args.method in ("exact", "all"):
        result["packets_per_second"]["exact"] = scale * emc.capacity_exact(net)
    if args.method in ("rbie", "all"):
        result["packets_per_second"]["rbie"] = scale * rbie.capacity(rbie.solve(net))
    if args.method in ("dbie", "all"):
        result["packets_per_second"]["dbie"] = scale * dbie.capacity(dbie.solve(net))
    _emit(args, _report(args, "continuous", result))
    return EXIT_OK


def cmd_allocate(args) -> int:
    eps = _values(args.eps, float, "--eps")
    res = allocate_mod.allocate(
        eps,
        args.budget,
        objective=args.objective,
        floor=args.floor,
        top=args.top,
    )
    result = asdict(res)
    _emit(args, _report(args, "allocate", result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure-style dataset reproduction
# ---------------------------------------------------------------------------

def _sweep_row(spec: NetworkSpec, epochs: int, seed: int):
    """One sweep row; an exact or bound column whose chain has more than
    ``emc.OPTIONAL_STATE_CAP`` states is left blank."""
    cap = emc.OPTIONAL_STATE_CAP
    small = spec.num_states <= cap
    ex = emc.capacity_exact(spec) if small else None
    lo = amc.capacity_lower(spec) if small else None
    expanded = spec.with_buffers(amc.prefix_sum_buffers(spec.buffers))
    hi = amc.capacity_upper(spec) if expanded.num_states <= cap else None
    rb = rbie.capacity(rbie.solve(spec))
    db = dbie.capacity(dbie.solve(spec))
    simv = sim.simulate_feedback(spec, epochs, seed=seed).throughput if epochs else None
    return ex, lo, hi, rb, db, simv


FIGURES = ("capacity-vs-hops", "capacity-vs-memory", "capacity-vs-eps", "delay-profile", "tau-sweep")


def cmd_reproduce(args) -> int:
    fig = args.figure
    rows: list[list] = []
    if fig == "capacity-vs-hops":
        header = ["h", "eps", "exact", "lower", "upper", "rbie", "dbie", "sim"]
        for e in (0.25, 0.5):
            for h in range(2, args.max_hops + 1):
                spec = NetworkSpec((e,) * h, (5,) * (h - 1))
                rows.append([h, e, *_sweep_row(spec, args.epochs, args.seed)])
    elif fig == "capacity-vs-memory":
        header = ["m", "eps", "exact", "lower", "upper", "rbie", "dbie", "sim"]
        for e in (0.25, 0.5):
            for m in range(1, args.max_memory + 1):
                spec = NetworkSpec((e,) * 5, (m,) * 4)
                rows.append([m, e, *_sweep_row(spec, args.epochs, args.seed)])
    elif fig == "capacity-vs-eps":
        header = ["eps", "exact", "lower", "upper", "rbie", "dbie", "sim", "min_cut"]
        for e in np.linspace(0.05, 0.5, 10):
            spec = NetworkSpec((float(e),) * 5, (5,) * 4)
            rows.append([float(e), *_sweep_row(spec, args.epochs, args.seed), 1 - float(e)])
    elif fig == "delay-profile":
        header = ["m", "method", "mean", "variance"]
        for m in (5, 10, 15):
            spec = NetworkSpec((0.25,) * 8, (m,) * 7)
            rsol = rbie.solve(spec)
            prof_r = delay.delay_profile(spec, delay.psi_rho_from_rbie(rsol, spec))
            dsol = dbie.solve(spec)
            prof_d = delay.delay_profile(spec, delay.psi_rho_from_dbie(dsol, spec))
            rows.append([m, "rbie", prof_r.mean, prof_r.variance])
            rows.append([m, "dbie", prof_d.mean, prof_d.variance])
            if args.epochs:
                st = sim.simulate_delay_fcfs(spec, args.epochs, seed=args.seed)
                rows.append([m, "sim", st.delay_mean, st.delay_var])
    elif fig == "tau-sweep":
        header = ["tau", "exact_pps", "rbie_pps", "dbie_pps"]
        lambdas = (10.0, 3.0, 2.99)
        for tau in (0.025, 0.0125, 0.00625, 0.0015625, 0.001):
            net = sim.discretize(sim.ContinuousSpec(lambdas, (3, 3), tau))
            scale = 1 / tau
            rows.append([
                tau,
                scale * emc.capacity_exact(net),
                scale * rbie.capacity(rbie.solve(net)),
                scale * dbie.capacity(dbie.solve(net)),
            ])
    else:
        raise SpecValidationError(f"unknown figure id {fig!r}; known: {', '.join(FIGURES)}")
    _write_csv(args.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    """A solver tolerance: a finite positive float, else argparse exits 2."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call."""
    p = argparse.ArgumentParser(
        prog="linenet",
        description="Finite-buffer erasure line networks: capacity, bounds, estimates, delay, simulation",
    )
    p.add_argument("--version", action="version", version=f"linenet {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # name -> subcommand parser, for errors in a subcommand's own terms

    # options several subcommands share; each registers only those its handler reads
    shared = {
        "spec": ("--spec", dict(help='path to network JSON {"eps": [...], "buffers": [...]}')),
        "tol": ("--tol", dict(type=_tolerance, default=1e-10, help="solver tolerance")),
        "seed": ("--seed", dict(type=int, default=0)),
        "epochs": ("--epochs", dict(type=int, default=10**5)),
        "warmup": ("--warmup", dict(type=int, default=None)),
        "format": ("--format", dict(choices=("json", "csv"), default="json")),
    }

    def command(name, func, options, help):
        sp = sub.add_parser(name, help=help)
        for opt in options.split():
            flag, kwargs = shared[opt]
            sp.add_argument(flag, dest=opt, **kwargs)
        sp.add_argument("--out", help="output path (stdout when omitted)")
        sp.set_defaults(func=func)
        return sp

    sp = command("exact", cmd_exact, "spec tol format", "exact capacity from the occupancy chain")
    sp.add_argument("--dump-matrix", help="write the transition matrix as CSV triplets")

    sp = command("bounds", cmd_bounds, "spec tol format", "capacity lower/upper bounds")
    sp.add_argument("--with-exact", action="store_true")

    command("rbie", cmd_rbie, "spec tol format", "rate-based iterative estimate")
    command("dbie", cmd_dbie, "spec tol format", "distribution-based iterative estimate")

    sp = command("delay", cmd_delay, "spec tol format", "analytic delay profile")
    sp.add_argument("--method", choices=("rbie", "dbie", "both"), default="both")
    sp.add_argument("--include-source", action="store_true")
    sp.add_argument("--pmf-out", help="write the delay pmf as CSV")

    sp = command(
        "simulate", cmd_simulate, "spec epochs warmup seed format",
        "Monte-Carlo simulation of the feedback scheme",
    )
    sp.add_argument("--mode", choices=("throughput", "delay"), default="throughput")
    sp.add_argument("--hist-out", help="write histogram CSV")

    sp = command(
        "netcod", cmd_netcod, "spec epochs warmup seed format", "no-feedback coded simulation"
    )
    sp.add_argument("--q", type=int, default=65536, choices=SUPPORTED_FIELD_SIZES)
    sp.add_argument("--q-sweep", dest="q_sweep", help="comma-separated field sizes; emits a rate-vs-q CSV")
    sp.add_argument("--compare-exact", action="store_true")

    sp = command("continuous", cmd_continuous, "format", "continuous-time tandem via discretization")
    sp.add_argument("--lambdas", required=True, help="comma-separated service rates (1/s)")
    sp.add_argument("--buffers", required=True, help="comma-separated buffer sizes")
    sp.add_argument("--tau", type=float, required=True, help="epoch length (s)")
    sp.add_argument("--method", choices=("exact", "rbie", "dbie", "all"), default="all")

    sp = command("allocate", cmd_allocate, "format", "buffer allocation search")
    sp.add_argument("--eps", required=True, help="comma-separated erasure probabilities")
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument(
        "--objective", choices=("max-throughput", "min-delay"), default="max-throughput"
    )
    sp.add_argument("--floor", type=float, default=None, help="throughput floor for min-delay")
    sp.add_argument("--top", type=int, default=10)

    sp = command("reproduce", cmd_reproduce, "epochs seed", "emit plot-ready sweep datasets")
    sp.add_argument("--figure", required=True, help=f"one of: {', '.join(FIGURES)}")
    sp.add_argument("--max-hops", type=int, default=8, dest="max_hops")
    sp.add_argument("--max-memory", type=int, default=8, dest="max_memory")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:
        # exits 2 with the subcommand's usage line, which lists the options it takes
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.func(args)
    except StateSpaceCapError as exc:
        print(f"linenet: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConvergenceError as exc:
        print(f"linenet: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (SpecValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"linenet: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except LineNetError as exc:
        print(f"linenet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
