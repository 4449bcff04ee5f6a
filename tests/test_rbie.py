import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linenet import emc, rbie
from linenet.allocate import compositions_at_most
from linenet.errors import ConsistencyError
from linenet.model import NetworkSpec
from conftest import line_specs, random_spec


def test_local_params_example():
    alpha, beta, alpha0 = rbie.local_params(0.5, 0.5, 0.0)
    assert (alpha, beta, alpha0) == (0.25, 0.25, 0.5)


def test_local_params_limits():
    alpha, beta, alpha0 = rbie.local_params(0.3, 0.5, 1.0)
    assert beta == 0.0
    alpha, beta, alpha0 = rbie.local_params(0.0, 0.5, 0.0)
    assert alpha == 0.0 and alpha0 == 0.0


def test_occupancy_phi_example():
    np.testing.assert_allclose(
        rbie.occupancy_phi(0.5, 0.5, 0.0, 2), [0.2, 0.4, 0.4], atol=1e-15
    )


def test_occupancy_phi_blocked_forever():
    np.testing.assert_allclose(rbie.occupancy_phi(0.5, 0.5, 1.0, 3), [0, 0, 0, 1])


def test_occupancy_phi_never_fed():
    np.testing.assert_allclose(rbie.occupancy_phi(0.0, 0.5, 0.0, 3), [1, 0, 0, 0])


def test_occupancy_phi_equal_rates_uniformish():
    # alpha == beta: geometric ratio one, partial sums stay exact
    phi = rbie.occupancy_phi(0.5, 0.5, 0.0, 5)
    assert phi[1:] == pytest.approx(phi[1], abs=1e-15)
    assert phi.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps_next", [0.0, 0.5])
def test_node_moments_match_occupancy_phi(eps_next):
    # the sweep reads phi_0, phi_m and the mean from partial sums built by
    # doubling; occupancy_phi sums the same geometric block term by term
    rng = np.random.default_rng(5)
    # never drains, never fed, both rates zero (eps_next = 0), one slot
    cases = [(0.5, 1.0, 3), (0.0, 0.0, 3), (1.0, 0.0, 3), (0.5, 0.0, 1)]
    cases += [(rng.uniform(0.01, 0.99), rng.uniform(0.0, 0.99), int(rng.integers(1, 2000))) for _ in range(200)]
    # alpha / beta = 1 + d at r = 0.45, where closed forms cancel
    for d in (1e-4, 1e-6, -1e-6, 1e-9, 0.0):
        c = (1 + d) * 0.55 * (1 - eps_next)
        for m in (5, 333, 10**5):
            cases.append((0.45, (c - 0.45 * eps_next) / (0.45 * (1 - eps_next) + c), m))
    r, q, m = (np.array(v) for v in zip(*cases))
    phi0, phim, mean = rbie._node_moments(r, eps_next, q, m)
    for i, (ri, qi, mi) in enumerate(cases):
        phi = rbie.occupancy_phi(ri, eps_next, qi, mi)
        assert phi0[i] == pytest.approx(phi[0], abs=1e-12)
        assert phim[i] == pytest.approx(phi[mi], abs=1e-12)
        assert mean[i] == pytest.approx(np.arange(mi + 1) @ phi, rel=1e-12, abs=1e-300)
        # rows do not interact: the row alone gives the same bits
        alone = rbie._node_moments(r[i : i + 1], eps_next, q[i : i + 1], m[i : i + 1])
        assert (alone[0][0], alone[1][0], alone[2][0]) == (phi0[i], phim[i], mean[i])


def test_step_pb_and_rate_examples():
    # one node's blocking and emitted rate, read off the solved two-hop line
    sol = rbie.solve(NetworkSpec((0.5, 0.5), (2,)))
    assert sol.iterations == 2
    assert sol.r[1] == pytest.approx(0.4, abs=1e-15)
    assert sol.pb[0] == pytest.approx(0.2, abs=1e-15)
    # a node never fed stays empty, so it neither blocks nor emits
    phi = rbie.occupancy_phi(0.0, 0.5, 0.0, 2)
    assert phi[0] == 1.0
    assert phi[2] == 0.0


def test_paper_four_hop_solution(paper_four_hop):
    sol = rbie.solve(paper_four_hop)
    np.testing.assert_allclose(
        sol.r, [0.5, 0.46797, 0.43958, 0.43484], atol=2e-5
    )
    np.testing.assert_allclose(
        sol.pb, [0.13031, 0.07078, 0.01076, 0.0], atol=2e-5
    )
    assert rbie.capacity(sol) == pytest.approx(0.43484, abs=2e-5)


def test_two_hop_immediate_convergence():
    spec = NetworkSpec((0.5, 0.5), (2,))
    sol = rbie.solve(spec)
    assert sol.iterations <= 2
    assert rbie.capacity(sol) == pytest.approx(emc.capacity_exact(spec), abs=1e-9)


def test_near_critical_line_converges_by_aitken_steps():
    # source and last hop both deliver 0.0547 per epoch; plain sweeps shrink
    # the change by 1.7e-4 per sweep and stop after 102 472, past _MAX_SWEEPS
    eps = (0.9453125, 0.087078368759064, 0.125, 0.9453125)
    sol = rbie.solve(NetworkSpec(eps, (3, 3, 3)))
    assert sol.iterations < 10 * rbie._AITKEN_EVERY and sol.residual <= 1e-12
    # what 102 472 plain sweeps reach
    assert rbie.capacity(sol) == pytest.approx(0.05468651491886923, abs=1e-12)
    out = rbie.solve_batch(eps, np.array([[3, 3, 3], [1, 1, 1], [3, 1, 2]]), tol=1e-12)
    assert out["capacity"][0] == rbie.capacity(sol)
    np.testing.assert_array_equal(out["r"][0], sol.r)
    np.testing.assert_array_equal(out["pb"][0], sol.pb)


def sweep_iterates(spec: NetworkSpec, pb0: float, sweeps: int = 100):
    """(r, pb) after each of ``sweeps`` shared sweep steps on one line, from pb = pb0."""
    buffers = np.array([spec.buffers])
    r = np.zeros((1, spec.h))
    r[:, 0] = 1.0 - spec.eps[0]
    pb = np.full((1, spec.h), pb0)
    pb[:, -1] = 0.0
    out = []
    for _ in range(sweeps):
        pb = rbie._sweep(spec.eps, buffers, r, pb)
        out.append((r[0].copy(), pb[0].copy()))
    return out


def test_monotone_iterates(paper_four_hop):
    history = sweep_iterates(paper_four_hop, 0.0)
    rs = np.array([r for r, _ in history])
    pbs = np.array([p for _, p in history])
    assert np.all(np.diff(rs, axis=0) >= -1e-14)
    assert np.all(np.diff(pbs, axis=0) >= -1e-14)


def test_unique_fixed_point_from_perturbed_init(paper_four_hop):
    a = rbie.solve(paper_four_hop)
    r, pb = sweep_iterates(paper_four_hop, 0.5)[-1]
    assert np.max(np.abs(a.r - r)) < 1e-8
    assert np.max(np.abs(a.pb - pb)) < 1e-8


def test_flow_conservation_residual():
    rng = np.random.default_rng(3)
    for _ in range(10):
        spec = random_spec(rng)
        sol = rbie.solve(spec)
        flows = sol.r * (1 - sol.pb)
        assert flows.max() - flows.min() <= 1e-9


def test_estimate_within_one_percent_uniform():
    # the 1% accuracy claim is for five-slot buffers; single-slot
    # networks run up to ~5% and get a looser sanity band
    for e in (0.25, 0.5):
        for h in (3, 4, 5):
            for m, rel in ((1, 0.06), (3, 0.012), (5, 0.01)):
                spec = NetworkSpec((e,) * h, (m,) * (h - 1))
                est = rbie.capacity(rbie.solve(spec))
                exact = emc.capacity_exact(spec)
                assert abs(est - exact) / exact < rel


def test_two_hop_capacity_closed_form():
    spec = NetworkSpec((0.5, 0.5), (2,))
    sol = rbie.solve(spec)
    assert rbie.capacity(sol) == pytest.approx(0.4, abs=1e-12)


def test_phi_retained_on_solution(paper_four_hop):
    sol = rbie.solve(paper_four_hop)
    assert len(sol.phi) == 3
    for j, phi in enumerate(sol.phi):
        assert phi.shape == (6,)
        assert phi.sum() == pytest.approx(1.0, abs=1e-12)


def _pmf_means(sol) -> np.ndarray:
    """Each node's mean occupancy, summed term by term from its pmf."""
    return np.array([float(np.arange(len(p)) @ p) for p in sol.phi])


def test_solve_batch_matches_scalar(paper_four_hop):
    buffers = np.array([[5, 5, 5], [1, 2, 3], [4, 4, 4]])
    out = rbie.solve_batch(paper_four_hop.eps, buffers, tol=1e-12)
    for k in range(buffers.shape[0]):
        spec = NetworkSpec(paper_four_hop.eps, tuple(int(v) for v in buffers[k]))
        sol = rbie.solve(spec)
        assert out["capacity"][k] == pytest.approx(rbie.capacity(sol), abs=1e-12)
        assert out["mean_delay"][k] == pytest.approx(
            float(_pmf_means(sol).sum()) / rbie.capacity(sol), rel=1e-12
        )


@st.composite
def eps_and_buffer_rows(draw):
    """One erasure profile and one to six buffer rows for it."""
    spec = draw(line_specs())
    n = spec.h - 1
    rows = draw(st.lists(st.lists(st.integers(1, 3), min_size=n, max_size=n), max_size=5))
    return spec.eps, np.array([spec.buffers, *rows])


@given(eps_and_buffer_rows())
@settings(max_examples=100, deadline=None)
def test_batch_rows_conserve_flow_and_match_solve(case):
    eps, buffers = case
    out = rbie.solve_batch(eps, buffers, tol=1e-12)
    flows = out["r"] * (1.0 - out["pb"])
    assert np.all(flows.max(axis=1) - flows.min(axis=1) <= 1e-9)
    for k, row in enumerate(buffers):
        sol = rbie.solve(NetworkSpec(eps, tuple(int(v) for v in row)))
        assert out["capacity"][k] == pytest.approx(rbie.capacity(sol), abs=1e-12)
        np.testing.assert_allclose(out["r"][k], sol.r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out["pb"][k], sol.pb, rtol=0, atol=1e-12)
        # every reported quantity comes from one derivation, so these agree to the bit
        assert out["capacity"][k] == rbie.capacity(sol)
        np.testing.assert_array_equal(out["occupancy_mean"][k], sol.occupancy_mean)
        assert out["mean_delay"][k] == sol.mean_delay
        assert out["residual"] <= 1e-12 and sol.residual <= 1e-12


def test_batch_mean_delay_matches_phi_near_equal_rates():
    # rows where a closed-form geometric sum near ratio 1 was off by up to 1.4e-9
    eps = (0.3, 0.5, 0.5, 0.2)
    cands = compositions_at_most(30, 3)
    out = rbie.solve_batch(eps, cands, tol=1e-12)
    for row in ((7, 2, 21), (9, 2, 5), (6, 6, 4), (15, 9, 6), (7, 2, 17)):
        k = int(np.flatnonzero((cands == row).all(axis=1))[0])
        sol = rbie.solve(NetworkSpec(eps, row))
        expected = float(_pmf_means(sol).sum()) / rbie.capacity(sol)
        assert out["mean_delay"][k] == pytest.approx(expected, rel=1e-12)


def test_capacity_raises_when_flow_is_not_conserved(paper_four_hop):
    sol = rbie.solve(paper_four_hop)
    assert rbie.capacity(sol) == float(sol.r[-1] * (1.0 - sol.pb[-1]))
    r = sol.r.copy()
    r[1] += 1e-5
    with pytest.raises(ConsistencyError, match="flow conservation"):
        rbie.capacity(dataclasses.replace(sol, r=r))
    r[1] = np.nan
    with pytest.raises(ConsistencyError, match="flow conservation violated in rate solution: spread nan"):
        rbie.capacity(dataclasses.replace(sol, r=r))
    # the same rule holds row by row for batches
    out = rbie.solve_batch(paper_four_hop.eps, np.array([[2, 2, 2], [3, 1, 2]]), tol=1e-12)
    np.testing.assert_array_equal(rbie._conserved_flow(out["r"], out["pb"], out["residual"]), out["capacity"])
    out["r"][1, 1] += 1e-5
    with pytest.raises(ConsistencyError, match="flow conservation"):
        rbie._conserved_flow(out["r"], out["pb"], out["residual"])
