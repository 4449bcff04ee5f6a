"""Each workload's checks are wired to its outputs, and the tracer sees every layer."""

import json

import pytest

import run
import workloads
from oracles import CheckFailed
from tracer import Tracer

MODS = run.import_program()


@pytest.fixture
def ops_by_name(tmp_path):
    def build(workload, seed=3):
        ctx = workloads.Context(str(tmp_path / workload), MODS)
        return {op.name: op for op in workloads.build(workload, seed, ctx)}
    return build


def perturbed_report_fails(op, edit):
    """Run a CLI op, then edit its report and expect its check to fail."""
    assert op.run() == 0
    op.check(0)
    with open(op.report, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["result"])
    with open(op.report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(CheckFailed):
        op.check(0)


def bump(key, delta):
    def edit(res):
        res[key] += delta
    return edit


def test_workloads_have_fixed_operation_lists(ops_by_name):
    for name in workloads.WORKLOADS:
        assert list(ops_by_name(name, seed=1)) == list(ops_by_name(name, seed=2))


def test_same_seed_gives_same_inputs(ops_by_name, tmp_path):
    ops_by_name("exact", seed=5)
    first = (tmp_path / "exact" / "specs" / "bounds.three_hop.json").read_text()
    ops_by_name("exact", seed=5)
    assert (tmp_path / "exact" / "specs" / "bounds.three_hop.json").read_text() == first


def test_exact_checks_reject_perturbed_reports(ops_by_name):
    ops = ops_by_name("exact")
    perturbed_report_fails(ops["exact.paper_four_hop"], bump("capacity", 1e-7))
    perturbed_report_fails(ops["exact.two_hop.1"], bump("capacity", 1e-7))
    perturbed_report_fails(ops["bounds.three_hop"], bump("lower", 0.5))
    perturbed_report_fails(ops["bounds.paper_four_hop"], bump("exact", 1e-7))
    rev = ops["reversal.paper_four_hop"]
    fwd_cap, rev_cap = rev.run()
    rev.check((fwd_cap, rev_cap))
    with pytest.raises(CheckFailed):
        rev.check((fwd_cap, rev_cap + 1e-9))


def test_expected_failures_fail_by_flow_crosscheck(tmp_path):
    ctx = workloads.Context(str(tmp_path), MODS)
    op = {op.name: op for op in workloads.build("exact", 3, ctx)}["exact.s4096"]
    assert op.expect_fail
    assert op.run() == 1
    assert "flow conservation violated" in ctx.stderr.getvalue()


def test_analytic_checks_reject_perturbed_reports(ops_by_name):
    ops = ops_by_name("analytic")
    perturbed_report_fails(ops["continuous.bridge"], lambda r: r["packets_per_second"].update(exact=2.26))
    perturbed_report_fails(ops["rbie.two_hop.0"], bump("capacity", 1e-8))
    perturbed_report_fails(ops["dbie.two_hop.2"], bump("capacity", 1e-8))
    perturbed_report_fails(ops["allocate.max_throughput"], bump("evaluated", -1))


def test_tracer_wraps_every_binding_and_restores_it():
    emc, amc = MODS["emc"], MODS["amc"]
    original = emc.stationary
    assert amc.stationary is original
    tracer = Tracer()
    tracer.install(MODS["package"])
    try:
        assert emc.stationary is not original and amc.stationary is emc.stationary
        tracer.active = True
        amc.capacity_lower(MODS["model"].NetworkSpec(*workloads.PAPER_FOUR_HOP))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert emc.stationary is original and amc.stationary is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "amc.capacity_lower"
    assert {"amc.build_amc", "emc.stationary"} <= set(names)
    assert all(parent == 0 for name, _, _, parent in tracer.spans if name in ("amc.build_amc", "emc.stationary"))
    inclusive, own = tracer.totals()
    children = sum(end - start for _, start, end, parent in tracer.spans if parent == 0)
    assert own["amc.capacity_lower"] == pytest.approx(inclusive["amc.capacity_lower"] - children)
    assert tracer.quantities["amc.build_amc.states"] == 216


def test_traced_counts_repeat_across_seeds(tmp_path):
    counts = []
    for seed in (1, 2):
        ctx = workloads.Context(str(tmp_path / str(seed)), MODS)
        ops = [op for op in workloads.build("exact", seed, ctx) if "two_hop" in op.name or "bounds" in op.name]
        tracer = Tracer()
        tracer.install(MODS["package"])
        try:
            rnd = run.run_round(ops, MODS["errors"].LineNetError, tracer)
        finally:
            tracer.uninstall()
        assert rnd.failed == 0
        counts.append((dict(tracer.counts), {k: v for k, v in tracer.quantities.items() if k.endswith("states")}))
    assert counts[0] == counts[1]
