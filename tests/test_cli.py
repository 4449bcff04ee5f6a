import ast
import csv
import functools
import importlib
import json
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import linenet
from linenet import amc, cli, dbie, emc, rbie, sim
from linenet import netcod as netcod_mod

MODULES = sorted(m.name for m in pkgutil.iter_modules(linenet.__path__))
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"eps": [0.5, 0.4999, 0.4998, 0.4], "buffers": [5, 5, 5]}))
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_exact_command(spec_file, capsys):
    code, out = run(["exact", "--spec", spec_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "linenet"
    assert doc["result"]["capacity"] == pytest.approx(0.4350, abs=2e-3)
    assert doc["config"]["spec"] == spec_file
    assert "state_cap" not in doc["config"]


def test_exact_command_flow_conservation_on_4096_states(tmp_path, capsys):
    path = tmp_path / "s4096.json"
    path.write_text(json.dumps({"eps": [0.3, 0.5, 0.5, 0.2, 0.4], "buffers": [7, 7, 7, 7]}))
    code, out = run(["exact", "--spec", str(path)], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["num_states"] == 4096
    assert len(res["interior_link_rates"]) == 3
    for rate in res["interior_link_rates"]:
        assert rate == pytest.approx(res["capacity"], abs=1e-9)


def test_bounds_command(spec_file, capsys):
    code, out = run(["bounds", "--spec", spec_file, "--with-exact"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["lower"] <= res["exact"] <= res["upper"]
    assert res["sandwich_ok"]


def test_rbie_dbie_commands(spec_file, capsys):
    code, out = run(["rbie", "--spec", spec_file], capsys)
    assert code == 0
    assert json.loads(out)["result"]["capacity"] == pytest.approx(0.43484, abs=1e-4)
    code, out = run(["dbie", "--spec", spec_file], capsys)
    assert code == 0
    assert json.loads(out)["result"]["capacity"] == pytest.approx(0.435089, abs=1e-3)


def test_dbie_long_buffers(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"eps": [0.3, 0.5, 0.45], "buffers": [100, 100]}))
    code, out = run(["dbie", "--spec", str(path)], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["capacity"] == pytest.approx(0.49999999990515487, abs=1e-10)
    assert 0 <= res["truncated_mass"] < 1e-12


def test_dbie_equal_eps_needs_no_note(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"eps": [0.5, 0.5, 0.5], "buffers": [2, 2]}))
    code, out = run(["dbie", "--spec", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "notes" not in doc
    res = doc["result"]
    assert res["capacity"] == pytest.approx(0.3607635957396847, abs=1e-12)
    assert res["precision_digits"] == 15
    gap = res["destination_interarrival"]
    assert sorted(gap) == ["T", "alpha", "atom0"]
    assert np.diag(gap["T"]).tolist() == [0.5, 0.5, 0.5]


def test_cli_import_leaves_mpmath_unloaded():
    code = "import sys, linenet.cli; print('mpmath' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_delay_command(spec_file, capsys):
    code, out = run(["delay", "--spec", spec_file, "--method", "rbie"], capsys)
    assert code == 0
    res = json.loads(out)["result"]["rbie"]
    assert res["mean"] == pytest.approx(res["little_mean"], rel=0.02)


def test_delay_passes_its_tolerance_to_dbie(spec_file, monkeypatch, capsys):
    tols = []
    solve = cli.dbie.solve

    def spy(spec, **kwargs):
        tols.append(kwargs.get("tol"))
        return solve(spec, **kwargs)

    monkeypatch.setattr(cli.dbie, "solve", spy)
    code, _ = run(["delay", "--spec", spec_file, "--method", "dbie", "--tol", "1e-8"], capsys)
    assert code == 0
    assert tols == [1e-8]


def test_simulate_command(spec_file, capsys):
    code, out = run(
        ["simulate", "--spec", spec_file, "--epochs", "30000", "--seed", "7"], capsys
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["throughput"] == pytest.approx(0.435, abs=0.02)


def test_netcod_command(tmp_path, capsys):
    path = tmp_path / "net3.json"
    path.write_text(json.dumps({"eps": [0.5, 0.5, 0.5], "buffers": [2, 2]}))
    code, out = run(
        ["netcod", "--spec", str(path), "--q", "256", "--epochs", "20000", "--compare-exact"],
        capsys,
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert abs(res["innovative_rate"] - res["exact_capacity"]) < 0.05


def test_netcod_warmup_out_of_range_exits_validation(tmp_path, capsys):
    path = tmp_path / "net3.json"
    path.write_text(json.dumps({"eps": [0.5, 0.5, 0.5], "buffers": [2, 2]}))
    for warmup in ("1000", "2000"):
        code, out = run(
            ["netcod", "--spec", str(path), "--q", "16", "--epochs", "1000", "--warmup", warmup],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert out == ""


def test_delay_simulation_report_is_strict_json(spec_file, capsys):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out = run(
        ["simulate", "--spec", spec_file, "--mode", "delay", "--epochs", "3000", "--seed", "2"],
        capsys,
    )
    assert code == 0
    res = json.loads(out, parse_constant=reject)["result"]
    assert res["throughput_se"] > 0
    assert res["delay_mean"] > 0
    # over four hops no packet admitted after warm-up arrives within 4 epochs:
    # the delay statistics are NaN and must be written as null
    code, out = run(
        ["simulate", "--spec", spec_file, "--mode", "delay", "--epochs", "4", "--warmup", "2"],
        capsys,
    )
    assert code == 0
    res = json.loads(out, parse_constant=reject)["result"]
    assert res["delay_samples"] == 0
    assert res["delay_mean"] is None


def test_continuous_command(capsys):
    code, out = run(
        ["continuous", "--lambdas", "10,3,2.99", "--buffers", "3,3", "--tau", "0.001"],
        capsys,
    )
    assert code == 0
    res = json.loads(out)["result"]["packets_per_second"]
    assert res["exact"] == pytest.approx(2.2445, abs=2e-3)


def test_allocate_command(capsys):
    code, out = run(
        ["allocate", "--eps", "0.4,0.5,0.3", "--budget", "8"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["result"]["best"]["buffers"]) <= 8
    assert "state_cap" not in doc["config"] and "tol" not in doc["config"]


def test_reproduce_tau_sweep(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _ = run(["reproduce", "--figure", "tau-sweep", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "tau,exact_pps,rbie_pps,dbie_pps"
    assert len(lines) == 6


def test_reproduce_capacity_vs_memory(tmp_path, capsys):
    out_path = tmp_path / "mem.csv"
    code, _ = run(
        [
            "reproduce", "--figure", "capacity-vs-memory",
            "--max-memory", "3", "--epochs", "20000", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("m,eps,exact")
    assert len(lines) == 7
    # capacity grows with buffer size within each eps group
    import csv as _csv

    rows = list(_csv.DictReader(lines))
    for e in ("0.25", "0.5"):
        caps = [float(r["exact"]) for r in rows if r["eps"] == e]
        assert caps == sorted(caps)


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert cli.main(["exact", "--spec", str(bad)]) == cli.EXIT_VALIDATION
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    assert cli.main(["exact", "--spec", str(missing)]) == cli.EXIT_VALIDATION
    capsys.readouterr()

    big = tmp_path / "big.json"
    big.write_text(json.dumps({"eps": [0.5] * 25, "buffers": [1] * 24}))  # 2^24 states
    assert cli.main(["exact", "--spec", str(big)]) == cli.EXIT_CAP
    capsys.readouterr()

    eq = tmp_path / "unknown_fig"
    assert cli.main(["reproduce", "--figure", "nope"]) == cli.EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("buffers", [[2.9], [2.0], [True]])
def test_non_integer_buffer_exits_validation(buffers, tmp_path, capsys):
    # a buffer of 2.9 used to be solved as 2, and true as 1
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"eps": [0.5, 0.5], "buffers": buffers}))
    assert cli.main(["exact", "--spec", str(path)]) == cli.EXIT_VALIDATION
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"eps": [0.5, 0.5], "buffers": 2}, '"eps" and "buffers" arrays'),
        ({"eps": [0.5, None], "buffers": [2]}, "eps[1]=None must be a number"),
        ({"eps": ["0.5", "0.25"], "buffers": [2]}, "eps[0]='0.5' must be a number"),
        ({"eps": [True, 0.5], "buffers": [2]}, "eps[0]=True must be a number"),
    ],
    ids=["scalar-buffers", "null-eps", "string-eps", "bool-eps"],
)
def test_malformed_spec_document_exits_validation(doc, message, tmp_path, capsys):
    # each used to exit 1 with a bare TypeError, or, for strings, to be solved
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["exact", "--spec", str(path)]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["continuous", "--lambdas", "10,3,2.99", "--buffers", "3,2.5", "--tau", "0.001"], "3,2.5"),
        (["continuous", "--lambdas", "10,x,2.99", "--buffers", "3,3", "--tau", "0.001"], "10,x,2.99"),
        (["allocate", "--eps", "0.3,x", "--budget", "4"], "0.3,x"),
        (["allocate", "--eps", "0.3,0.5,", "--budget", "4"], "0.3,0.5,"),
    ],
    ids=["continuous-buffers", "continuous-lambdas", "allocate-eps", "allocate-trailing-comma"],
)
def test_malformed_comma_list_exits_validation(argv, bad, capsys):
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert repr(bad) in capsys.readouterr().err


@pytest.mark.parametrize("method", ["rbie", "dbie"])
def test_sweep_limit_exits_convergence(method, spec_file, monkeypatch, capsys):
    # one sweep from the all-zero start cannot settle the blocking vector
    monkeypatch.setattr(getattr(cli, method), "_MAX_SWEEPS", 1)
    assert cli.main([method, "--spec", spec_file]) == cli.EXIT_CONVERGENCE
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--spec", "{spec}", "--with-exact"],
        ["netcod", "--spec", "{spec}", "--compare-exact", "--epochs", "20000"],
        ["netcod", "--spec", "{spec}", "--compare-exact", "--q-sweep", "2,256"],
        ["continuous", "--lambdas", ",".join(["1"] * 25), "--buffers", ",".join(["1"] * 24),
         "--tau", "0.1"],
    ],
    ids=["bounds", "netcod", "netcod-q-sweep", "continuous"],
)
def test_spec_over_the_state_cap_exits_4_before_any_work(argv, tmp_path, monkeypatch, capsys):
    # 2^24 states from buffers of 1, so that a simulation run by mistake
    # before the cap check stays small
    path = tmp_path / "over_cap.json"
    path.write_text(json.dumps({"eps": [0.5] * 25, "buffers": [1] * 24}))

    def no_simulation(*args, **kwargs):
        pytest.fail("simulated a spec that is over the state cap")

    monkeypatch.setattr(netcod_mod, "simulate_no_feedback", no_simulation)
    assert cli.main([a.format(spec=path) for a in argv]) == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert "above the cap of 10000000" in err and "use rbie, dbie or the simulator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--spec", "net.json"],
        ["bounds", "--spec", "net.json"],
        ["netcod", "--spec", "net.json"],
        ["continuous", "--lambdas", "10,3", "--buffers", "3", "--tau", "0.01"],
        ["reproduce", "--figure", "tau-sweep"],
    ],
    ids=lambda argv: argv[0],
)
def test_state_cap_option_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--state-cap", "1000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --state-cap 1000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["allocate", "--eps", "0.3,0.5,0.5", "--budget", "6", "--tol", "1e-3"],
        ["exact", "--spec", "net.json", "--epochs", "5"],
    ],
)
def test_options_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    # the usage line is the subcommand's, so it lists the options the command does take
    assert f"usage: linenet {argv[0]} [-h]" in err


def test_allocate_method_option_is_rejected(capsys):
    # the search is chosen from comb(budget, parts); forcing it skipped that guard
    with pytest.raises(SystemExit) as exc:
        cli.main(["allocate", "--eps", "0.3,0.5,0.5", "--budget", "6", "--method", "exhaustive"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method exhaustive" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0.3,1.5,0.5", "1.0,0.5,0.5"])
def test_allocate_checks_eps_before_any_sweep(eps, monkeypatch, capsys):
    # the search used to run first: 10^5 sweeps and exit 3, or a divide warning and exit 2
    calls = []
    monkeypatch.setattr(rbie, "solve_batch", lambda *a, **k: calls.append(a))
    t0 = time.perf_counter()
    assert cli.main(["allocate", "--eps", eps, "--budget", "5"]) == cli.EXIT_VALIDATION
    assert time.perf_counter() - t0 < 1
    assert calls == []
    assert "strictly inside (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["exact", "bounds", "rbie", "dbie", "delay"])
def test_tolerance_must_be_finite_and_positive(command, tol, spec_file, capsys):
    # inf stopped dbie after one sweep and switched off exact's residual check;
    # -1 swept rbie 10^5 times, and nan broke its flow conservation
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--spec", spec_file, "--tol", tol])
    assert exc.value.code == 2
    assert f"argument --tol: {tol!r} is not a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1e-6", "1e-4"])
@pytest.mark.parametrize("command", ["rbie", "delay"])
def test_flow_check_follows_the_sweep_tolerance(command, tol, tmp_path, monkeypatch, capsys):
    # eight hops at eps 0.25 stop with a flow spread of about 2.4 times the
    # sweeps' tolerance: 2.2e-6 at tol 1e-6, above a fixed bound of 1e-6
    path = tmp_path / "eight.json"
    path.write_text(json.dumps({"eps": [0.25] * 8, "buffers": [10] * 7}))
    argv = [command, "--spec", str(path), "--tol", tol]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    fixed_point = rbie._fixed_point

    def corrupted(*args):
        r, pb, it, residual = fixed_point(*args)
        r[:, 1] += 1e-2
        return r, pb, it, residual

    monkeypatch.setattr(rbie, "_fixed_point", corrupted)
    assert cli.main(argv) == 1
    assert "flow conservation violated" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("command", ["simulate", "netcod"])
def test_seed_outside_the_philox_key_range_exits_validation(command, seed, spec_file, capsys):
    # a negative seed used to end in a ValueError traceback from np.random.Philox
    argv = [command, "--spec", spec_file, "--seed", seed, "--epochs", "2000"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert f"seed {seed} must lie in [0, 2^128)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, small, expanded_small",
    [
        # a row's exact and lower cells are solved when its chain has at most 200 000
        # states, its upper cell when the prefix-summed chain has; x is the row's first column
        (["--figure", "capacity-vs-hops"], lambda h: h <= 7, lambda h: h <= 5),
        (["--figure", "capacity-vs-hops", "--max-hops", "12"], lambda h: h <= 7, lambda h: h <= 5),
        (["--figure", "capacity-vs-memory"], lambda m: True, lambda m: True),
        # the upper chain at m = 10 has 293 601 states
        (["--figure", "capacity-vs-memory", "--max-memory", "10"], lambda m: True, lambda m: m <= 9),
        (["--figure", "capacity-vs-eps"], lambda e: True, lambda e: True),
    ],
    ids=["hops", "hops-12", "memory", "memory-10", "eps"],
)
def test_reproduce_solves_the_pinned_exact_and_bound_cells(argv, small, expanded_small, tmp_path,
                                                          monkeypatch):
    # every solver is a stub, so the test pins the cells and runs no solve
    for mod, name in ((emc, "capacity_exact"), (amc, "capacity_lower"), (amc, "capacity_upper"),
                      (rbie, "capacity"), (dbie, "capacity")):
        monkeypatch.setattr(mod, name, lambda arg: 0.5)
    monkeypatch.setattr(rbie, "solve", lambda spec: None)
    monkeypatch.setattr(dbie, "solve", lambda spec: None)
    monkeypatch.setattr(sim, "simulate_feedback", lambda *a, **k: types.SimpleNamespace(throughput=0.5))
    out = tmp_path / "sweep.csv"
    assert cli.main(["reproduce", *argv, "--out", str(out)]) == cli.EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows
    for row in rows:
        x = float(next(iter(row.values())))
        assert bool(row["exact"]) == bool(row["lower"]) == small(x), row
        assert bool(row["upper"]) == expanded_small(x), row
        assert row["rbie"] and row["dbie"] and row["sim"], row


def test_readme_cli_examples_parse():
    # every `linenet ...` line of the README's CLI block parses with nothing left unread
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("linenet ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        args, unread = parser.parse_known_args(argv)
        assert unread == [], line
        assert args.command == argv[0]


def test_matrix_dump_flag(spec_file, tmp_path, capsys):
    target = tmp_path / "mat.csv"
    code, _ = run(["exact", "--spec", spec_file, "--dump-matrix", str(target)], capsys)
    assert code == 0
    assert target.read_text().startswith("row,col,prob")


def test_options_do_not_leak_between_calls(spec_file, tmp_path, capsys):
    target = tmp_path / "mat.csv"
    code, _ = run(["exact", "--spec", spec_file, "--dump-matrix", str(target)], capsys)
    assert code == 0
    target.write_text("untouched")
    code, out = run(["exact", "--spec", spec_file], capsys)
    assert code == 0
    assert target.read_text() == "untouched"
    assert "dump_matrix" not in json.loads(out)["config"]
    assert cli.build_parser() is cli.build_parser()


def test_csv_format_single_result(spec_file, capsys):
    code, out = run(["exact", "--spec", spec_file, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("capacity,")
    assert float(lines[1].split(",")[0]) == pytest.approx(0.4351, abs=1e-3)


def test_netcod_q_sweep_csv(tmp_path, capsys):
    path = tmp_path / "net3.json"
    path.write_text(json.dumps({"eps": [0.5, 0.5, 0.5], "buffers": [2, 2]}))
    out_path = tmp_path / "rates.csv"
    code, _ = run(
        [
            "netcod", "--spec", str(path), "--q-sweep", "2,256",
            "--epochs", "6000", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "q,innovative_rate,se,exact_capacity"
    assert len(lines) == 3


@pytest.mark.parametrize("sweep", ["2,17", "2,256,x"])
def test_netcod_q_sweep_checks_every_field_size_before_simulating(sweep, tmp_path, monkeypatch, capsys):
    path = tmp_path / "net3.json"
    path.write_text(json.dumps({"eps": [0.5, 0.5, 0.5], "buffers": [2, 2]}))
    calls = []
    monkeypatch.setattr(netcod_mod, "simulate_no_feedback", lambda *a, **k: calls.append(a))
    argv = ["netcod", "--spec", str(path), "--q-sweep", sweep, "--out", str(tmp_path / "rates.csv")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert calls == []
    assert sweep.split(",")[-1] in capsys.readouterr().err
    assert not (tmp_path / "rates.csv").exists()


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a stale name in __all__ makes `from linenet.<module> import *` raise
    mod = importlib.import_module(f"linenet.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _referenced(path: pathlib.Path) -> set[str]:
    """Names that a module's code refers to: by name, as an attribute, or in an import."""
    tree = ast.parse(path.read_text())
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return names


@functools.cache
def _used_names() -> frozenset[str]:
    """Names that cli.py refers to, README.md names in backticks, or a linebench file names."""
    names = _referenced(pathlib.Path(cli.__file__))
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        names |= set(re.findall(r"\w+", span))
    for path in (ROOT / "linebench").rglob("*"):
        if path.suffix in (".py", ".md"):
            names |= set(re.findall(r"\w+", path.read_text()))
    return frozenset(names)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_user(name):
    # a name only the package's own tests reach stays internal, so it can change freely
    mod = importlib.import_module(f"linenet.{name}")
    unused = [n for n in getattr(mod, "__all__", ()) if n not in _used_names()]
    assert unused == []


@functools.cache
def _program_nodes() -> tuple[ast.AST, ...]:
    """Every syntax node in the package's modules and in the benchmark's top-level files."""
    paths = [*pathlib.Path(linenet.__file__).parent.glob("*.py"), *(ROOT / "linebench").glob("*.py")]
    return tuple(n for path in paths for n in ast.walk(ast.parse(path.read_text())))


@pytest.mark.parametrize("name", MODULES)
def test_every_definition_has_a_user(name):
    # a top-level def or class, or a class's method or property, that only the package's
    # own tests reach belongs with those tests
    src = pathlib.Path(linenet.__file__).parent
    used = set(_used_names()).union(*(_referenced(path) for path in src.glob("*.py")))
    tree = ast.parse((src / f"{name}.py").read_text())
    defined = [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    # a method is used only where it is read as an attribute; Python itself calls the
    # exempt ones: dunder methods, and among them the dataclass hook __post_init__
    read = {n.attr for n in _program_nodes() if isinstance(n, ast.Attribute)}
    methods = [f"{c.name}.{f.name}" for c in tree.body if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)
               and not (f.name.startswith("__") and f.name.endswith("__")) and f.name not in read]
    assert [n for n in defined if n not in used] + methods == []


@functools.cache
def _calls() -> tuple[ast.Call, ...]:
    """Every call in the package's modules and in the benchmark's top-level files."""
    return tuple(n for n in _program_nodes() if isinstance(n, ast.Call))


def _passes(call: ast.Call, func: str, arg: str, position: int | None) -> bool:
    """Whether ``call`` calls a function named ``func`` and passes it ``arg``."""
    callee = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
    if callee != func:
        return False
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


@pytest.mark.parametrize("name", MODULES)
def test_every_public_parameter_has_a_caller(name):
    # a defaulted parameter that only the tests set is a knob without a user: the
    # tests reach the same path through a module constant or a monkeypatched kernel
    mod = importlib.import_module(f"linenet.{name}")
    tree = ast.parse(pathlib.Path(mod.__file__).read_text())
    unset = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in getattr(mod, "__all__", ()):
            continue
        a = fn.args
        params = a.posonlyargs + a.args
        defaulted = [(p.arg, i) for i, p in enumerate(params) if i >= len(params) - len(a.defaults)]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        unset += [f"{fn.name}({arg}=)" for arg, i in defaulted
                  if not any(_passes(c, fn.name, arg, i) for c in _calls())]
    assert unset == []
