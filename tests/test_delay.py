import dataclasses
import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import line_specs
from linenet import cli, dbie, delay, rbie
from linenet.errors import ConsistencyError
from linenet.mixtures import GeometricMixture
from linenet.model import NetworkSpec, effective_failure


def brute_nbinom(k, failure, t_max):
    """k-fold convolution of a unit geometric pmf, directly."""
    g = np.zeros(t_max + 1)
    ts = np.arange(1, t_max + 1)
    g[1:] = (1 - failure) * failure ** (ts - 1.0)
    out = g.copy()
    for _ in range(k - 1):
        out = np.convolve(out, g)[: t_max + 1]
    return out


@pytest.fixture(scope="module")
def eight_hop_solutions():
    out = {}
    for m in (5, 10, 15):
        spec = NetworkSpec((0.25,) * 8, (m,) * 7)
        out[m] = (spec, rbie.solve(spec), dbie.solve(spec))
    return out


def test_psi_from_rbie_sums_to_one(paper_four_hop):
    sol = rbie.solve(paper_four_hop)
    inputs = delay.psi_rho_from_rbie(sol, paper_four_hop)
    for p in inputs.psi:
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= -1e-12)


def test_psi_from_dbie_sums_to_one(paper_four_hop):
    sol = dbie.solve(paper_four_hop)
    inputs = delay.psi_rho_from_dbie(sol, paper_four_hop)
    for p in inputs.psi:
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= -1e-12)


@pytest.mark.parametrize("i", [0, -1])
def test_psi_from_dbie_rejects_a_nan_occupancy(paper_four_hop, i):
    # caught by the negative-mass check itself, before the clip passes the NaN on
    sol = dbie.solve(paper_four_hop)
    pis = [p.copy() for p in sol.pi_embedded]
    pis[1][i] = np.nan
    with pytest.raises(ConsistencyError, match="waiting distribution 1 has negative mass nan"):
        delay.psi_rho_from_dbie(dataclasses.replace(sol, pi_embedded=pis), paper_four_hop)


def test_psi_single_slot_node():
    spec = NetworkSpec((0.4, 0.5, 0.6), (1, 1))
    rinp = delay.psi_rho_from_rbie(rbie.solve(spec), spec)
    dinp = delay.psi_rho_from_dbie(dbie.solve(spec), spec)
    for inp in (rinp, dinp):
        for p in inp.psi:
            np.testing.assert_allclose(p, [1.0], atol=1e-12)


@given(line_specs())
@settings(max_examples=50, deadline=None)
def test_profile_is_a_pmf_within_its_tail_budget(spec):
    # about half the specs have all-equal eps, which dbie solves as they are
    for inputs in (
        delay.psi_rho_from_rbie(rbie.solve(spec), spec),
        delay.psi_rho_from_dbie(dbie.solve(spec), spec),
    ):
        prof = delay.delay_profile(spec, inputs)
        assert prof.pmf.min() >= 0.0
        assert -1e-12 <= prof.tail_mass_dropped <= delay._TAIL_BUDGET


@pytest.mark.parametrize("psi", [(np.nan, 0.5), (0.5, np.nan)])
def test_profile_rejects_a_non_finite_waiting_distribution(psi):
    # a NaN fails every comparison, so it must be caught before the convolution
    with pytest.raises(ConsistencyError, match="waiting distribution 0"):
        delay.NodeDelayInputs(psi=[np.array(psi)], rho=np.zeros(2), eps_eff=np.array([0.4]))


def test_node_delay_single_geometric():
    gap = delay._node_gap(np.array([1.0]), 0.5)
    pmf, _ = gap.pmf_head(delay._TAIL_BUDGET)
    assert gap.mean() == pytest.approx(2.0, abs=1e-6)
    assert float(np.arange(pmf.size) @ pmf) == pytest.approx(2.0, abs=1e-6)
    assert pmf[0] == 0.0
    assert pmf[1] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("e", [1.0, float("nan")])
def test_node_delay_rejects_a_wait_that_never_ends(e):
    with pytest.raises(ConsistencyError, match="effective failure probability"):
        delay._node_gap(np.array([0.5, 0.5]), e)


def test_node_delay_mixture_mean():
    gap = delay._node_gap(np.array([0.5, 0.5]), 0.5)
    assert gap.mean() == pytest.approx(0.5 * 2 + 0.5 * 4, abs=1e-6)


def test_node_delay_matches_brute_convolution():
    pmf, _ = delay._node_gap(np.array([0.0, 0.0, 1.0]), 0.35).pmf_head(delay._TAIL_BUDGET)
    oracle = brute_nbinom(3, 0.35, pmf.size - 1)
    np.testing.assert_allclose(pmf, oracle, atol=1e-12)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone costs about 0.3 s of import, and no module needs it
    code = "import sys, linenet.cli; print('scipy.stats' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_profile_mean_additivity(paper_four_hop):
    sol = rbie.solve(paper_four_hop)
    inputs = delay.psi_rho_from_rbie(sol, paper_four_hop)
    prof = delay.delay_profile(paper_four_hop, inputs)
    parts = [
        delay._node_gap(inputs.psi[j], inputs.eps_eff[j])
        for j in range(3)
    ]
    expect = sum(p.mean() for p in parts)
    assert prof.mean == pytest.approx(expect, rel=1e-9)
    assert prof.tail_mass_dropped <= 1e-6


def test_profile_two_hop_single_factor():
    spec = NetworkSpec((0.5, 0.5), (2,))
    sol = rbie.solve(spec)
    inputs = delay.psi_rho_from_rbie(sol, spec)
    prof = delay.delay_profile(spec, inputs)
    part = delay._node_gap(inputs.psi[0], inputs.eps_eff[0])
    assert prof.mean == pytest.approx(part.mean(), rel=1e-6)


def nbinom_mixture_moments(psi, e):
    """Mean and variance of a psi-mixture of negative binomials: i + 1
    geometric services, each ending with probability 1 - e."""
    k = np.arange(1, len(psi) + 1)
    means = k / (1 - e)
    mean = float(psi @ means)
    return mean, float(psi @ (k * e / (1 - e) ** 2 + means**2)) - mean**2


@pytest.mark.parametrize("estimate", ["rbie", "dbie"])
@pytest.mark.parametrize("include_source", [False, True])
def test_profile_moments_are_the_per_node_closed_forms(paper_four_hop, estimate, include_source):
    spec = paper_four_hop
    if estimate == "rbie":
        inputs = delay.psi_rho_from_rbie(rbie.solve(spec), spec)
    else:
        inputs = delay.psi_rho_from_dbie(dbie.solve(spec), spec)
    nodes = [(inputs.psi[j], inputs.eps_eff[j]) for j in range(spec.h - 1)]
    if include_source:
        nodes.append((np.ones(1), effective_failure(spec.eps[0], inputs.rho[0])))
    # the waits are independent, so both moments add over the nodes
    mean, var = np.sum([nbinom_mixture_moments(psi, e) for psi, e in nodes], axis=0)
    prof = delay.delay_profile(spec, inputs, include_source=include_source)
    assert prof.mean == pytest.approx(mean, rel=1e-12)
    assert prof.variance == pytest.approx(var, rel=1e-12)


def test_profile_pmf_is_the_gap_recursion(paper_four_hop):
    spec = paper_four_hop
    inputs = delay.psi_rho_from_dbie(dbie.solve(spec), spec)
    gaps = [delay._node_gap(inputs.psi[j], inputs.eps_eff[j]) for j in range(spec.h - 1)]
    gap = functools.reduce(GeometricMixture.convolve, gaps)
    prof = delay.delay_profile(spec, inputs)
    ks = range(min(prof.pmf.size, 201))
    np.testing.assert_allclose(prof.pmf[: len(ks)], [gap.pmf(k) for k in ks], rtol=1e-12, atol=1e-17)
    assert 0.0 <= prof.tail_mass_dropped < delay._TAIL_BUDGET
    assert prof.tail_mass_dropped == pytest.approx(1.0 - prof.pmf.sum(), abs=1e-12)


def test_include_source_adds_head_of_line_wait():
    spec = NetworkSpec((0.5, 0.5), (2,))
    sol = rbie.solve(spec)
    inputs = delay.psi_rho_from_rbie(sol, spec)
    base = delay.delay_profile(spec, inputs)
    with_src = delay.delay_profile(spec, inputs, include_source=True)
    e1 = spec.eps[0] + inputs.rho[0] * (1 - spec.eps[0])
    assert with_src.mean - base.mean == pytest.approx(1 / (1 - e1), abs=1e-6)


def test_little_two_hop_closed_form():
    spec = NetworkSpec((0.5, 0.5), (2,))
    sol = rbie.solve(spec)
    assert sol.mean_delay == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(sol.occupancy_mean / rbie.capacity(sol), [3.0], atol=1e-10)


def test_little_starved_network_limit():
    spec = NetworkSpec((0.995, 0.3), (3,))
    sol = rbie.solve(spec)
    # occupancy collapses when the source link starves the relay
    assert sol.occupancy_mean.sum() < 0.02
    assert sol.mean_delay < 1.5


def test_little_agrees_with_profile(eight_hop_solutions):
    for m, (spec, rsol, _) in eight_hop_solutions.items():
        inputs = delay.psi_rho_from_rbie(rsol, spec)
        prof = delay.delay_profile(spec, inputs)
        assert abs(rsol.mean_delay - prof.mean) / prof.mean < 0.02


def test_benchmark_means_internally_consistent(eight_hop_solutions):
    """Analytic means from both estimates agree closely on the 8-hop grid.

    The exact-process simulation reproduces these same values (see the
    acceptance suite), anchoring the delay pipeline end to end.
    """
    expected = {5: 29.32, 10: 52.49, 15: 75.77}
    for m, (spec, rsol, dsol) in eight_hop_solutions.items():
        rprof = delay.delay_profile(spec, delay.psi_rho_from_rbie(rsol, spec))
        dprof = delay.delay_profile(spec, delay.psi_rho_from_dbie(dsol, spec))
        assert abs(rprof.mean - dprof.mean) / dprof.mean < 0.005
        assert dprof.mean == pytest.approx(expected[m], abs=0.05)


def test_monotone_mean_and_variance_in_buffers(eight_hop_solutions):
    means, variances = [], []
    for m in (5, 10, 15):
        spec, _, dsol = eight_hop_solutions[m]
        prof = delay.delay_profile(spec, delay.psi_rho_from_dbie(dsol, spec))
        means.append(prof.mean)
        variances.append(prof.variance)
    assert means[0] < means[1] < means[2]
    assert variances[0] < variances[1] < variances[2]


def test_profile_csv(tmp_path, paper_four_hop, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(paper_four_hop.to_dict()))
    path = tmp_path / "delay.csv"
    argv = ["delay", "--method", "rbie", "--spec", str(spec_path), "--pmf-out", str(path)]
    assert cli.main(argv) == 0
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "delay_epochs,probability,cumulative"
    last = rows[-1].split(",")
    assert float(last[2]) == pytest.approx(1.0, abs=2e-6)
