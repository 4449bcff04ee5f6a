import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from linenet.errors import DistinctParamError
from linenet.mixtures import GeometricMixture


def brute_convolve_pmf(f, g, kmax):
    """Independent oracle: direct pmf convolution on a truncated grid."""
    fv = [float(f.pmf(k)) for k in range(kmax + 1)]
    gv = [float(g.pmf(k)) for k in range(kmax + 1)]
    out = np.convolve(fv, gv)[: kmax + 1]
    return out


def test_single_convolution_identity():
    res = GeometricMixture.geometric(0.5).convolve(GeometricMixture.geometric(0.25))
    terms = {float(t): float(p) for p, t in res.terms}
    assert terms[0.5] == pytest.approx(3.0, abs=1e-15)
    assert terms[0.25] == pytest.approx(-2.0, abs=1e-15)
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
    same = a.convolve(GeometricMixture.identity())
    assert same.terms == a.terms
    assert same.atom0 == a.atom0


def test_weight_sums_preserved():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t1, t2, t3 = sorted(rng.uniform(0.05, 0.95, 3))
        if t2 - t1 < 1e-3 or t3 - t2 < 1e-3:
            continue
        a = GeometricMixture.geometric(t1).convolve(GeometricMixture.geometric(t3))
        b = a.convolve(GeometricMixture.geometric(t2))
        assert float(b.weight_sum()) == pytest.approx(1.0, abs=1e-9)


def test_random_pairs_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ts = rng.uniform(0.05, 0.95, 4)
        if np.min(np.diff(np.sort(ts))) < 1e-3:
            continue
        w = rng.uniform(0.2, 0.8)
        a = GeometricMixture.from_terms([(w, ts[0]), (1 - w, ts[1])])
        b = GeometricMixture.from_terms([(0.5, ts[2]), (0.5, ts[3])])
        conv = a.convolve(b)
        oracle = brute_convolve_pmf(a, b, 200)
        got = np.array([float(conv.pmf(k)) for k in range(201)])
        np.testing.assert_allclose(got[2:], oracle[2:], atol=1e-10)


def test_mean_additivity():
    a = GeometricMixture.from_terms([(0.7, 0.2), (0.3, 0.8)])
    b = GeometricMixture.geometric(0.55)
    conv = a.convolve(b)
    assert float(conv.mean()) == pytest.approx(float(a.mean() + b.mean()), rel=1e-12)


def test_coincident_parameters_rejected():
    with pytest.raises(DistinctParamError):
        GeometricMixture.geometric(0.5).convolve(GeometricMixture.geometric(0.5))


@given(
    st.lists(
        st.floats(0.05, 0.95).map(lambda v: round(v, 3)),
        min_size=2,
        max_size=4,
        unique=True,
    ),
    st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_convolution_properties(thetas, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(thetas) - 1))
    a = GeometricMixture.from_terms(list(zip(weights, thetas[:-1])))
    b = GeometricMixture.geometric(thetas[-1])
    conv = a.convolve(b)
    assert float(conv.weight_sum()) == pytest.approx(1.0, abs=1e-9)
    assert float(conv.mean()) == pytest.approx(float(a.mean() + b.mean()), rel=1e-9)
    # a sum of two waits of at least one epoch each cannot finish in one
    assert abs(float(conv.pmf(1))) < 1e-9
    assert float(conv.pmf(0)) == 0.0


def test_validate_catches_bad_mixtures():
    bad = GeometricMixture.from_terms([(2.0, 0.5)])
    with pytest.raises(ValueError):
        bad.validate()
    ok = GeometricMixture.geometric(0.4).convolve(GeometricMixture.geometric(0.6))
    ok.validate()


def test_compact_drops_negligible_terms():
    a = GeometricMixture.from_terms([(1.0, 0.5), (1e-30, 0.25)])
    c = a.compact()
    assert len(c.terms) == 1
    assert float(c.weight_sum()) == pytest.approx(1.0, abs=1e-15)


def test_serialization_round_trip():
    a = GeometricMixture.geometric(0.5).convolve(GeometricMixture.geometric(0.25))
    assert a.to_obj() == [{"p": float(p), "theta": float(t)} for p, t in a.terms]
    ups = GeometricMixture.identity().scaled(0.25).plus(
        GeometricMixture.geometric(0.5).scaled(0.75)
    )
    assert ups.to_obj() == [{"p": 0.75, "theta": 0.5}, {"p": 0.25, "theta": None}]


def test_extended_precision_survives_large_weights():
    # weights near 1e5 with cancellation: unit mass must survive
    with mp.workdps(50):
        a = GeometricMixture.geometric(mpf("0.5"))
        b = GeometricMixture.geometric(mpf("0.50001"))
        c = GeometricMixture.geometric(mpf("0.50002"))
        conv = a.convolve(b).convolve(c)
        assert abs(float(conv.weight_sum()) - 1.0) < 1e-12
        for k in (1, 2, 10, 100):
            assert float(conv.pmf(k)) >= -1e-12
