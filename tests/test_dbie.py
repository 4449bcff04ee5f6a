import dataclasses
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import lu_solve, matrix, mp, mpf

from conftest import QueueOracle, diagonal_mixture, dj_series, gap_pmf, sample_mixture
from linenet import dbie, emc, mixtures
from linenet.errors import (
    ConsistencyError,
    ConvergenceError,
    DegenerateDistributionError,
    SpecValidationError,
)
from linenet.mixtures import GeometricMixture
from linenet.model import NetworkSpec, effective_failure


def series_d0_oracle(lam, tt, kmax=4000):
    """D_0 by direct series: no departure over a geometric gap."""
    return sum((1 - lam) * lam ** (k - 1) * tt ** k for k in range(1, kmax))


def test_effective_failure_limits():
    assert float(effective_failure(0.5, 0.0)) == 0.5
    assert float(effective_failure(0.5, 1.0)) == 1.0
    assert float(effective_failure(0.25, 0.4)) == pytest.approx(0.55)


def test_effective_failure_on_arrays_matches_scalars():
    eps, pb = np.array([0.1, 0.25, 0.7]), np.array([0.0, 0.4, 0.93])
    got = effective_failure(eps, pb)
    assert got.tolist() == [effective_failure(float(e), float(q)) for e, q in zip(eps, pb)]


def dj_floats(g, tt):
    """The 50-digit departure-count series, rounded to doubles."""
    return np.array(dj_series(g, tt), dtype=float)


def test_dj_closed_form_single_geometric():
    g = GeometricMixture.geometric(0.5)
    node = dbie._analyze_node(g, 1, 0.6, 0.0)
    assert node.d0 == pytest.approx((1 - 0.5) * 0.6 / (1 - 0.5 * 0.6), abs=1e-12)
    assert node.d0 == pytest.approx(series_d0_oracle(0.5, 0.6), abs=1e-10)
    assert node.d0 + node.tails[0] == pytest.approx(1.0, abs=1e-10)


def test_dj_nonnegative_and_wald():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t1, t2 = sorted(rng.uniform(0.1, 0.9, 2))
        if t2 - t1 < 1e-3:
            continue
        w = rng.uniform(0.1, 0.9)
        g = diagonal_mixture([(w, t1), (1 - w, t2)])
        tt = rng.uniform(0.2, 0.9)
        d = dj_floats(g, tt)
        assert all(float(v) >= -1e-12 for v in d)
        mean_count = float(sum(j * v for j, v in enumerate(d)))
        assert mean_count == pytest.approx(float(g.mean()) * (1 - tt), rel=1e-8)


@pytest.mark.parametrize("tt", [0.0, 1.0, 1.5, -0.2])
def test_dj_rejects_failure_parameter_outside_unit_interval(tt):
    # with no downstream blocking the effective failure parameter is eps itself
    with pytest.raises(SpecValidationError):
        dbie._analyze_node(GeometricMixture.geometric(0.5), 3, tt, 0.0)


@pytest.mark.parametrize("part", ["alpha", "T"])
def test_dj_rejects_a_non_finite_gap_at_once(part):
    # a NaN entry is named before any solve
    gap = diagonal_mixture([(0.5, 0.3), (0.5, 0.6)])
    bad = getattr(gap, part).copy()
    bad.flat[-1] = np.nan
    start = time.perf_counter()
    with pytest.raises(ConsistencyError, match=f"non-finite {part}"):
        dbie._analyze_node(dataclasses.replace(gap, **{part: bad}), 3, 0.4, 0.0)
    assert time.perf_counter() - start < 0.1


def test_nan_starvation_fraction_raises(monkeypatch):
    # NaN occupancy weights give the starvation gap NaN weights
    cut = dbie._stationary_from_tails

    def nan_pi(*args):
        return np.full_like(cut(*args), np.nan)

    monkeypatch.setattr(dbie, "_stationary_from_tails", nan_pi)
    with pytest.raises(ConsistencyError, match="starvation fraction nan"):
        dbie._analyze_node(GeometricMixture.geometric(0.5), 3, 0.4, 0.1)


def test_singular_triangular_solve_raises():
    # a phase that never ends makes I - T singular
    with pytest.raises(ConsistencyError, match="LAPACK info 2"):
        dbie._analyze_node(diagonal_mixture([(0.5, 0.3), (0.5, 1.0)]), 3, 0.4, 0.0)


def test_dj_on_chained_phases_against_thinning():
    # a starvation-or-zero gap followed by service: T has an off-diagonal entry
    g = GeometricMixture(np.array([0.7]), np.array([[0.3]]), 0.3).convolve(
        GeometricMixture.geometric(0.6)
    )
    tt = effective_failure(0.5, 0.3)
    d = dj_floats(g, tt)
    rng = np.random.default_rng(12)
    n = 200_000
    counts = rng.binomial(sample_mixture(g, rng, n), 1 - tt)
    for j in range(6):
        p_hat = float((counts == j).mean())
        assert abs(p_hat - d[j]) < 3.5 * np.sqrt(d[j] * (1 - d[j]) / n) + 1e-9
    assert float(np.arange(d.size) @ d) == pytest.approx(g.mean() * (1 - tt), rel=1e-9)


def test_dj_against_thinning_oracle():
    g = diagonal_mixture([(0.6, 0.3), (0.4, 0.7)])
    theta, q = 0.5, 0.3
    oracle = QueueOracle(g, 2, theta, q, 150_000, seed=8)
    d = dj_floats(g, effective_failure(theta, q))
    n = oracle.potential.size
    for j in range(6):
        p_hat = float((oracle.potential == j).mean())
        p = float(d[j])
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 3 * sigma + 1e-9


def _embedded_matrix(g, m, theta, q):
    """Dense post-arrival transition matrix over occupancies 1..m, entry
    by entry from the departure-count series."""
    d = dj_floats(g, effective_failure(theta, q))

    def dval(k: int) -> float:
        return d[k] if 0 <= k < d.size else 0.0

    P = np.zeros((m, m))
    for i in range(1, m + 1):
        # all i packets drained before the next arrival
        P[i - 1, 0] += d[i:].sum()
        for j in range(2, m + 1):
            P[i - 1, j - 1] += dval(i + 1 - j)
        # a blocked arrival leaves a full queue full
        P[i - 1, m - 1] += dval(i - m)
    return P


def test_embedded_chain_single_slot():
    g = GeometricMixture.geometric(0.5)
    P = _embedded_matrix(g, 1, 0.4, 0.0)
    pi = dbie._analyze_node(g, 1, 0.4, 0.0).pi
    assert P.shape == (1, 1) and float(P[0, 0]) == pytest.approx(1.0, abs=1e-10)
    assert [float(v) for v in pi] == [1.0]


def test_embedded_chain_rows_stochastic():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1, t2 = sorted(rng.uniform(0.1, 0.9, 2))
        if t2 - t1 < 1e-3:
            continue
        w = rng.uniform(0.1, 0.9)
        g = diagonal_mixture([(w, t1), (1 - w, t2)])
        m = int(rng.integers(1, 6))
        theta, q = rng.uniform(0.2, 0.8), rng.uniform(0, 0.5)
        P = _embedded_matrix(g, m, theta, q)
        pi = dbie._analyze_node(g, m, theta, q).pi
        for i in range(m):
            assert float(sum(P[i, j] for j in range(m))) == pytest.approx(1.0, abs=1e-10)
        assert float(sum(pi)) == pytest.approx(1.0, abs=1e-10)


def _two_term_case(rng):
    t1, t2 = sorted(rng.uniform(0.1, 0.9, 2))
    w = rng.uniform(0.1, 0.9)
    g = diagonal_mixture([(w, t1), (1 - w, t2 + 1e-3)])
    return g, rng.uniform(0.2, 0.8), rng.uniform(0, 0.5)


def _closed_form_cases(rng):
    """Two-term diagonal mixtures, a chain of two phases, and a chain of
    two phases with equal parameters, each with (theta, q)."""
    chained = GeometricMixture(np.array([0.7]), np.array([[0.3]]), 0.3).convolve(
        GeometricMixture.geometric(0.6)
    )
    equal = GeometricMixture(np.array([0.6]), np.array([[0.5]]), 0.4).convolve(
        GeometricMixture.geometric(0.5)
    )
    return [_two_term_case(rng) for _ in range(3)] + [(chained, 0.5, 0.3), (equal, 0.5, 0.2)]


@pytest.mark.parametrize("m", [1, 2, 5, 30, 60])
def test_tails_match_the_series_at_50_digits(m):
    # D_0 and T(1..m) in closed form against the series summed term by term
    for g, theta, q in _closed_form_cases(np.random.default_rng(300 + m)):
        node = dbie._analyze_node(g, m, theta, q)
        d = dj_series(g, effective_failure(theta, q), m)
        with mp.workdps(50):
            assert abs(node.d0 - d[0]) <= mpf("1e-13") * d[0]
            assert node.tails.shape == (m,)
            for x in range(1, m + 1):
                ref = mp.fsum(d[x:])
                assert abs(float(node.tails[x - 1]) - ref) <= mpf("1e-13") * ref


def test_one_sweep_makes_two_triangular_solves_per_node(paper_four_hop, monkeypatch):
    # one inverse of I - tt T and one solve against I - T per node; the only
    # mean taken through the gap class is the destination's, for the capacity
    calls = {"dbie": 0, "mixtures": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(dbie, "dtrtrs", counted("dbie", dbie.dtrtrs))
    monkeypatch.setattr(mixtures, "solve_triangular", counted("mixtures", mixtures.solve_triangular))
    sol = dbie.solve(paper_four_hop, tol=1.0)
    assert sol.iterations == 1
    assert calls == {"dbie": 2 * (paper_four_hop.h - 1), "mixtures": 1}


def _lu_stationary(P):
    """Dense oracle at 50 digits: (I - P)^T pi = 0 with the balance
    equation of state m replaced by the normalization."""
    m = P.shape[0]
    with mp.workdps(50):
        A = matrix(m, m)
        for i in range(m):
            for j in range(m):
                A[i, j] = 1 if i == m - 1 else (1 if i == j else 0) - mpf(P[j, i])
        return lu_solve(A, matrix([0] * (m - 1) + [1]))


@pytest.mark.parametrize("m", [1, 2, 5, 30, 60])
def test_stationary_matches_dense_lu(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(3):
        g, theta, q = _two_term_case(rng)
        pi = dbie._analyze_node(g, m, theta, q).pi
        oracle = _lu_stationary(_embedded_matrix(g, m, theta, q))
        for k in range(m):
            assert float(pi[k]) == pytest.approx(float(oracle[k]), abs=1e-9)


@pytest.mark.parametrize("m", [1, 3, 10, 40])
def test_stationary_cut_equations_hold(m):
    # the double-precision recursion against the cut equations summed at 50 digits
    rng = np.random.default_rng(200 + m)
    with mp.workdps(50):
        for _ in range(3):
            g, theta, q = _two_term_case(rng)
            dm = dj_series(g, effective_failure(theta, q), m)
            node = dbie._analyze_node(g, m, theta, q)
            pi, mass = node.pi, float(node.d0 + node.tails[0])
            pm = [mpf(v) for v in pi]
            assert abs(mp.fsum(pm) - 1) < mpf("1e-14")
            assert abs(mass - mp.fsum(dm)) < mpf("1e-14")
            assert all(v > 0 for v in pi)
            for k in range(1, m):
                up = pm[k - 1] * dm[0]
                down = mp.fsum(pm[i - 1] * mp.fsum(dm[i + 1 - k:]) for i in range(k + 1, m + 1))
                assert abs(up - down) <= mpf("1e-13") * up


@given(
    t1=st.floats(0.05, 0.9),
    gap=st.floats(0.01, 0.09),
    w=st.floats(0.05, 0.95),
    theta=st.floats(0.1, 0.9),
    q=st.floats(0.0, 0.5),
)
@settings(max_examples=30, deadline=None)
def test_blocking_prob_nonincreasing_in_buffer(t1, gap, w, theta, q):
    g = diagonal_mixture([(w, t1), (1 - w, t1 + gap)])
    pb = [dbie._analyze_node(g, m, theta, q).blocking for m in range(1, 13)]
    for small, large in zip(pb, pb[1:]):
        assert large <= small + 1e-12


def test_embedded_chain_vs_queue_oracle():
    g = GeometricMixture.geometric(0.5)
    theta = 0.5
    oracle = QueueOracle(g, 2, theta, 0.0, 200_000, seed=3)
    pi = dbie._analyze_node(g, 2, theta, 0.0).pi
    n = oracle.post.size
    for k in (1, 2):
        p_hat = float((oracle.post == k).mean())
        p = float(pi[k - 1])
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 3.5 * sigma


def test_blocking_prob_vs_queue_oracle():
    g = diagonal_mixture([(0.6, 0.3), (0.4, 0.7)])
    theta, q, m = 0.5, 0.2, 2
    oracle = QueueOracle(g, m, theta, q, 200_000, seed=13)
    p = dbie._analyze_node(g, m, theta, q).blocking
    p_hat = float(oracle.blocked.mean())
    sigma = np.sqrt(p * (1 - p) / oracle.blocked.size)
    assert abs(p_hat - p) < 3.5 * sigma


def test_blocking_prob_ample_buffer():
    p = dbie._analyze_node(GeometricMixture.geometric(0.5), 50, 0.4, 0.0).blocking
    assert p < 1e-6


def test_blocking_prob_paper_values(paper_four_hop):
    sol = dbie.solve(paper_four_hop)
    np.testing.assert_allclose(
        sol.pb[:3], [0.12983, 0.070006, 0.010406], atol=2e-5
    )


def test_starvation_memoryless_single_term(monkeypatch):
    pi = np.array([0.3, 0.7])
    monkeypatch.setattr(dbie, "_stationary_from_tails", lambda d0, tails: pi)
    fx = dbie._analyze_node(GeometricMixture.geometric(0.4), 2, 0.5, 0.0).starvation
    assert fx.alpha.size == 1
    assert float(fx.alpha[0]) == pytest.approx(1.0, abs=1e-12)
    assert float(fx.T[0, 0]) == pytest.approx(0.4, abs=1e-15)


def test_starvation_weights_normalized():
    g = diagonal_mixture([(0.6, 0.3), (0.4, 0.7)])
    fx = dbie._analyze_node(g, 3, 0.5, 0.1).starvation
    assert float(fx.weight_sum()) == pytest.approx(1.0, abs=1e-10)


def test_starvation_vs_queue_oracle():
    g = GeometricMixture.geometric(0.5)
    theta, m = 0.5, 2
    oracle = QueueOracle(g, m, theta, 0.0, 300_000, seed=21)
    fx = dbie._analyze_node(g, m, theta, 0.0).starvation
    n = oracle.starve.size
    assert n > 10_000
    for k in range(1, 8):
        p = float(gap_pmf(fx, k))
        p_hat = float((oracle.starve == k).mean())
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 3.5 * sigma


def test_upsilon_defining_mean_identity():
    g = diagonal_mixture([(0.6, 0.3), (0.4, 0.7)])
    m, theta, q = 3, 0.5, 0.2
    res = dbie._analyze_node(g, m, theta, q)
    expect = float(g.mean()) * (1 - q) / (1 - res.blocking)
    assert float(res.g_out.mean()) == pytest.approx(expect, rel=1e-12)
    assert 0.0 <= res.alpha <= 1.0


def test_upsilon_paper_destination_mixture(paper_four_hop):
    # the signed spectral weights of the destination gap PH(alpha, T):
    # f(k) = sum_l p_l (1 - t_l) t_l^(k-1) over the eigenvalues t_l of T
    sol = dbie.solve(paper_four_hop)
    g = sol.f[3]
    with mp.workdps(50):
        thetas, vecs = mp.eig(matrix(g.T.tolist()))
        left = matrix([g.alpha.tolist()]) * vecs
        right = mp.inverse(vecs) * matrix(g.exit.tolist())
        weights = {
            round(float(t), 4): float(left[l] * right[l] / (1 - t)) for l, t in enumerate(thetas)
        }
    assert weights[0.5] == pytest.approx(138240.92, rel=2e-4)
    assert weights[0.4999] == pytest.approx(-275765.59, rel=2e-4)
    assert weights[0.4998] == pytest.approx(137525.64, rel=2e-4)
    assert weights[0.4] == pytest.approx(0.03, abs=5e-3)


def test_solve_paper_capacity(paper_four_hop):
    sol = dbie.solve(paper_four_hop)
    assert dbie.capacity(sol) == pytest.approx(0.435089, abs=1e-4)


def test_solve_paper_capacity_pinned(paper_four_hop):
    sol = dbie.solve(paper_four_hop)
    assert dbie.capacity(sol) == pytest.approx(0.4350849911370754, abs=1e-10)
    assert 0 <= sol.truncated_mass < 1e-12


def test_solve_two_hop_matches_exact():
    spec = NetworkSpec((0.5, 0.49), (2,))
    sol = dbie.solve(spec)
    assert dbie.capacity(sol) == pytest.approx(emc.capacity_exact(spec), abs=1e-6)


@pytest.mark.parametrize("m", [400, 1000])
def test_solve_long_buffer_behind_a_slow_source(m):
    # each level of the cut recursion grows by about 1/D_0 = 190, so it
    # overflows unless the levels are rescaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = dbie.solve(NetworkSpec((0.9, 0.05), (m,)))
    assert dbie.capacity(sol) == pytest.approx(0.1, rel=1e-15)
    assert sol.pb[0] < 1e-300


def test_solve_fixed_point_stability(paper_four_hop):
    sol = dbie.solve(paper_four_hop, tol=1e-10)
    again = dbie.solve(paper_four_hop, tol=1e-10)
    assert sol.iterations == again.iterations
    np.testing.assert_allclose(sol.pb, again.pb, atol=0)


def test_perturbation_sweep_stability():
    # ties shifted by rank times d: capacity is linear in small d, and the
    # tied line solved directly is its d -> 0 limit
    caps = [
        dbie.capacity(dbie.solve(NetworkSpec((0.5, 0.5 + d, 0.5 + 2 * d), (2, 2))))
        for d in (1e-5, 1e-6, 1e-7)
    ]
    assert max(caps) - min(caps) < 1e-5
    limit = caps[2] - (caps[1] - caps[2]) / 9
    tied = dbie.capacity(dbie.solve(NetworkSpec((0.5, 0.5, 0.5), (2, 2))))
    assert tied == pytest.approx(limit, abs=1e-11)


def test_non_finite_residual_stops_the_sweeps(paper_four_hop, monkeypatch):
    analyze = dbie._analyze_node

    def nan_blocking(*args):
        return dataclasses.replace(analyze(*args), blocking=float("nan"))

    monkeypatch.setattr(dbie, "_analyze_node", nan_blocking)
    with pytest.raises(ConvergenceError) as err:
        dbie.solve(paper_four_hop)
    assert err.value.iterations == 1


def test_starvation_degenerate_signal(monkeypatch):
    g = GeometricMixture.geometric(0.5)
    monkeypatch.setattr(dbie, "_stationary_from_tails", lambda d0, tails: np.zeros(2))
    with pytest.raises(DegenerateDistributionError):
        dbie._analyze_node(g, 2, 0.5, 0.0)
