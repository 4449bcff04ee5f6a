import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from conftest import diagonal_mixture
from linenet.mixtures import GeometricMixture


def brute_convolve_pmf(f, g, kmax):
    """Independent oracle: direct pmf convolution on a truncated grid."""
    fv = [float(f.pmf(k)) for k in range(kmax + 1)]
    gv = [float(g.pmf(k)) for k in range(kmax + 1)]
    out = np.convolve(fv, gv)[: kmax + 1]
    return out


def spectral_pmf(thetas, k):
    """pmf at k of a sum of geometrics with distinct parameters, from its
    signed spectral weights w_l = prod_{j != l} (1 - t_j) / (t_l - t_j),
    evaluated at the current mpmath precision."""
    ts = [mpf(t) for t in thetas]
    total = mpf(0)
    for l, tl in enumerate(ts):
        w = mpf(1)
        for j, tj in enumerate(ts):
            if j != l:
                w *= (1 - tj) / (tl - tj)
        total += w * (1 - tl) * tl ** (k - 1)
    return total


def test_single_convolution_identity():
    res = GeometricMixture.geometric(0.5).convolve(GeometricMixture.geometric(0.25))
    np.testing.assert_array_equal(res.alpha, [1.0, 0.0])
    np.testing.assert_array_equal(res.T, [[0.5, 0.5], [0.0, 0.25]])
    # the same law as the signed mixture 3 geometric(0.5) - 2 geometric(0.25)
    for k in range(1, 60):
        spectral = 3 * 0.5 * 0.5 ** (k - 1) - 2 * 0.75 * 0.25 ** (k - 1)
        assert res.pmf(k) == pytest.approx(spectral, abs=1e-15)
    assert float(res.mean()) == pytest.approx(2 + 4 / 3, abs=1e-12)


def test_convolution_pmf_matches_brute_force():
    a = GeometricMixture.geometric(0.5).convolve(GeometricMixture.geometric(0.25))
    oracle = brute_convolve_pmf(
        GeometricMixture.geometric(0.5), GeometricMixture.geometric(0.25), 200
    )
    got = np.array([float(a.pmf(k)) for k in range(201)])
    np.testing.assert_allclose(got, oracle, atol=1e-12)


def test_convolve_with_identity_is_noop():
    a = GeometricMixture.geometric(0.3).convolve(GeometricMixture.geometric(0.6))
    zero = GeometricMixture(np.zeros(0), np.zeros((0, 0)), 1.0)  # no phases, all mass at 0
    for same in (a.convolve(zero), zero.convolve(a)):
        np.testing.assert_array_equal(same.alpha, a.alpha)
        np.testing.assert_array_equal(same.T, a.T)
        assert same.atom0 == a.atom0


def test_weight_sums_preserved():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t1, t2, t3 = sorted(rng.uniform(0.05, 0.95, 3))
        a = GeometricMixture.geometric(t1).convolve(GeometricMixture.geometric(t3))
        b = a.convolve(GeometricMixture.geometric(t2))
        assert float(b.weight_sum()) == pytest.approx(1.0, abs=1e-9)


def test_random_pairs_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ts = rng.uniform(0.05, 0.95, 4)
        w = rng.uniform(0.2, 0.8)
        a = diagonal_mixture([(w, ts[0]), (1 - w, ts[1])])
        b = diagonal_mixture([(0.5, ts[2]), (0.5, ts[3])])
        conv = a.convolve(b)
        oracle = brute_convolve_pmf(a, b, 200)
        got = np.array([float(conv.pmf(k)) for k in range(201)])
        np.testing.assert_allclose(got[2:], oracle[2:], atol=1e-10)


def test_mean_additivity():
    a = diagonal_mixture([(0.7, 0.2), (0.3, 0.8)])
    b = GeometricMixture.geometric(0.55)
    conv = a.convolve(b)
    assert float(conv.mean()) == pytest.approx(float(a.mean() + b.mean()), rel=1e-12)


def test_variance_of_a_geometric_and_additivity():
    g = GeometricMixture.geometric(0.8)
    assert g.variance() == pytest.approx(0.8 / 0.2**2, rel=1e-12)
    a = diagonal_mixture([(0.7, 0.2), (0.3, 0.8)])
    assert a.convolve(g).variance() == pytest.approx(a.variance() + g.variance(), rel=1e-12)


def test_variance_matches_the_pmf_with_a_mass_at_zero():
    # a non-diagonal T and an atom at zero, summed far into the tail
    a = GeometricMixture(np.array([0.5, 0.3]), np.array([[0.4, 0.35], [0.0, 0.6]]), 0.2)
    g = a.convolve(diagonal_mixture([(0.6, 0.3), (0.4, 0.7)]))
    ks = np.arange(400)
    pmf = np.array([g.pmf(int(k)) for k in ks])
    mean = float(ks @ pmf)
    assert g.mean() == pytest.approx(mean, rel=1e-12)
    assert g.variance() == pytest.approx(float((ks - mean) ** 2 @ pmf), rel=1e-12)


def test_pmf_head_is_the_matrix_power_pmf():
    a = GeometricMixture(np.array([0.5, 0.3]), np.array([[0.4, 0.35], [0.0, 0.6]]), 0.2)
    g = a.convolve(diagonal_mixture([(0.6, 0.3), (0.4, 0.97)]))
    tail = 1e-9
    pmf, left = g.pmf_head(tail)
    assert pmf.size > 201
    ks = range(201)
    np.testing.assert_allclose(pmf[:201], [g.pmf(k) for k in ks], rtol=1e-12, atol=1e-17)
    # the mass left is P(gap > last k emitted): below the cut, and not before it
    assert 0.0 <= left < tail
    assert left == pytest.approx(1.0 - pmf.sum(), abs=1e-13)
    assert 1.0 - pmf[:-1].sum() >= tail


def test_coincident_parameters_give_negative_binomial():
    theta = 0.5
    g = GeometricMixture.geometric(theta)
    two = g.convolve(g)
    three = two.convolve(g)
    oracle = brute_convolve_pmf(two, g, 200)
    for k in range(201):
        nbinom = (k - 1) * (1 - theta) ** 2 * theta ** (k - 2) if k >= 2 else 0.0
        assert two.pmf(k) == pytest.approx(nbinom, abs=1e-15)
        assert three.pmf(k) == pytest.approx(oracle[k], abs=1e-15)
    assert three.mean() == pytest.approx(3 / (1 - theta), rel=1e-14)


@given(
    st.lists(st.floats(0.05, 0.95).map(lambda v: round(v, 3)), min_size=2, max_size=4),
    st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_convolution_properties(thetas, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(thetas) - 1))
    a = diagonal_mixture(list(zip(weights, thetas[:-1])))
    b = GeometricMixture.geometric(thetas[-1])
    conv = a.convolve(b)
    assert float(conv.weight_sum()) == pytest.approx(1.0, abs=1e-9)
    assert float(conv.mean()) == pytest.approx(float(a.mean() + b.mean()), rel=1e-9)
    # a sum of two waits of at least one epoch each cannot finish in one
    assert abs(float(conv.pmf(1))) < 1e-9
    assert float(conv.pmf(0)) == 0.0


def test_compact_restores_unit_mass():
    a = GeometricMixture(np.array([0.6, 0.4 + 1e-12]), np.diag([0.5, 0.25]), 1e-13)
    c = a.compact()
    assert float(c.weight_sum()) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_array_equal(c.T, a.T)
    assert c.pmf(3) == pytest.approx(a.pmf(3) / a.weight_sum(), rel=1e-15)


def test_serialization_round_trip():
    a = GeometricMixture.geometric(0.5).convolve(GeometricMixture.geometric(0.25))
    obj = json.loads(json.dumps(a.to_obj()))
    assert obj == {"alpha": [1.0, 0.0], "T": [[0.5, 0.5], [0.0, 0.25]], "atom0": 0.0}
    back = GeometricMixture(np.array(obj["alpha"]), np.array(obj["T"]), obj["atom0"])
    assert [back.pmf(k) for k in range(20)] == [a.pmf(k) for k in range(20)]
    ups = GeometricMixture(np.array([0.75]), np.array([[0.5]]), 0.25)
    assert ups.to_obj() == {"alpha": [0.75], "T": [[0.5]], "atom0": 0.25}


def test_extended_precision_survives_large_weights():
    # near-equal parameters: the 50-digit spectral form needs weights near
    # 1e9 of both signs; the phase-type form holds the same law in doubles
    thetas = (0.5, 0.50001, 0.50002)
    conv = GeometricMixture.geometric(thetas[0])
    for t in thetas[1:]:
        conv = conv.convolve(GeometricMixture.geometric(t))
    assert abs(float(conv.weight_sum()) - 1.0) < 1e-12
    assert np.all(conv.alpha >= 0) and np.all(conv.T >= 0)
    with mp.workdps(50):
        for k in (1, 2, 3, 10, 100, 1000):
            expect = spectral_pmf(thetas, k)
            assert float(conv.pmf(k)) == pytest.approx(float(expect), rel=1e-12, abs=1e-30)
