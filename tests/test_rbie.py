import numpy as np
import pytest

from linenet import emc, rbie
from linenet.model import NetworkSpec
from conftest import random_spec


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


def test_monotone_iterates(paper_four_hop):
    sol = rbie.solve(paper_four_hop, keep_history=True)
    rs = np.array([r for r, _ in sol.history])
    pbs = np.array([p for _, p in sol.history])
    assert np.all(np.diff(rs, axis=0) >= -1e-14)
    assert np.all(np.diff(pbs, axis=0) >= -1e-14)


def test_unique_fixed_point_from_perturbed_init(paper_four_hop):
    a = rbie.solve(paper_four_hop)
    b = rbie.solve(paper_four_hop, pb_init=0.5)
    assert np.max(np.abs(a.r - b.r)) < 1e-8
    assert np.max(np.abs(a.pb - b.pb)) < 1e-8


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


def test_solve_batch_matches_scalar(paper_four_hop):
    buffers = np.array([[5, 5, 5], [1, 2, 3], [4, 4, 4]])
    out = rbie.solve_batch(paper_four_hop.eps, buffers, tol=1e-12)
    for k in range(buffers.shape[0]):
        spec = NetworkSpec(paper_four_hop.eps, tuple(int(v) for v in buffers[k]))
        sol = rbie.solve(spec)
        assert out["capacity"][k] == pytest.approx(rbie.capacity(sol), abs=1e-8)
        assert out["mean_delay"][k] == pytest.approx(
            float(sol.occupancy_means().sum()) / rbie.capacity(sol), rel=1e-6
        )
