import itertools

import numpy as np
import pytest

from linenet import amc, emc
from linenet.model import NetworkSpec, enumerate_states
from conftest import line_specs, random_spec, step1

from hypothesis import given, settings


def test_step_amc_examples():
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    assert step1(amc.step_amc_batch, (0, 0), (1, 1, 1), spec) == (1, 0)

    spec2 = NetworkSpec((0.5, 0.5), (2,))
    assert step1(amc.step_amc_batch, (2,), (1, 0), spec2) == (2,)

    spec3 = NetworkSpec((0.5, 0.5, 0.5), (1, 1))
    assert step1(amc.step_amc_batch, (1, 0), (1, 0, 0), spec3) == (1, 0)
    assert step1(amc.step_amc_batch, (1, 0), (1, 0, 1), spec3) == (1, 0)


def test_exhaustive_pointwise_domination_after_one_step():
    # from any shared state, one coupled step keeps exact >= approximate
    spec = NetworkSpec((0.4, 0.6, 0.3), (1, 1))
    for s in map(tuple, enumerate_states(spec)):
        for x in itertools.product((0, 1), repeat=3):
            n_exact = step1(emc.step_emc_batch, s, x, spec)
            n_approx = step1(amc.step_amc_batch, s, x, spec)
            assert all(a >= b for a, b in zip(n_exact, n_approx))


def test_two_hop_chains_identical():
    spec = NetworkSpec((0.37, 0.71), (3,))
    np.testing.assert_allclose(
        emc.build_emc(spec).probs.toarray(), amc.build_amc(spec).probs.toarray(), atol=1e-15
    )
    assert amc.capacity_lower(spec) == pytest.approx(emc.capacity_exact(spec), abs=1e-10)
    assert amc.capacity_upper(spec) == pytest.approx(emc.capacity_exact(spec), abs=1e-10)


def test_prefix_sum_buffers():
    assert amc.prefix_sum_buffers((5, 5, 5)) == (5, 10, 15)
    assert amc.prefix_sum_buffers((3,)) == (3,)


def test_five_hop_lower_bound_strictly_below_exact():
    spec = NetworkSpec((0.5,) * 5, (5,) * 4)
    lb = amc.capacity_lower(spec)
    exact = emc.capacity_exact(spec)
    assert lb < exact


def test_sandwich_on_random_specs():
    rng = np.random.default_rng(7)
    for _ in range(12):
        spec = random_spec(rng, h_choices=(3, 4), m_max=3)
        res = amc.bounds(spec, with_exact=True)
        assert res.lower <= res.exact + 1e-9
        assert res.exact <= res.upper + 1e-9


@given(line_specs())
@settings(max_examples=100, deadline=None)
def test_bounds_sandwich_below_min_cut(spec):
    res = amc.bounds(spec, with_exact=True)
    assert res.lower <= res.exact + 1e-9
    assert res.exact <= res.upper + 1e-9
    assert res.upper <= spec.min_cut + 1e-9


def test_monotone_gap_in_buffer_size():
    gaps = []
    for k in range(1, 9):
        spec = NetworkSpec((0.5, 0.5, 0.5), (k, k))
        res = amc.bounds(spec)
        gaps.append(res.upper - res.lower)
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-9


def test_coupled_boundedness():
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    assert amc.coupled_boundedness_batch([spec.eps], [spec.buffers], 30_000, seed=1)[0]
    assert not amc.coupled_boundedness_batch(
        [spec.eps], [spec.buffers], 30_000, seed=1, swap_roles=True
    )[0]


def test_coupled_boundedness_two_hop_trivial():
    spec = NetworkSpec((0.5, 0.5), (2,))
    assert amc.coupled_boundedness_batch([spec.eps], [spec.buffers], 5_000, seed=3)[0]


def test_coupled_upper(paper_four_hop):
    spec = paper_four_hop
    assert amc.coupled_upper_batch([spec.eps], [spec.buffers], 30_000, seed=2)[0]


def test_coupled_upper_mutation_fails():
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    failed = any(
        not amc.coupled_upper_batch([spec.eps], [spec.buffers], 5_000, seed=s, expand_buffers=False)[0]
        for s in range(8)
    )
    assert failed


def test_batch_matches_scalar_checks():
    rng = np.random.default_rng(11)
    eps = rng.uniform(0.1, 0.9, (6, 3))
    buf = rng.integers(1, 4, (6, 2))
    out = amc.coupled_boundedness_batch(eps, buf, 3_000, seed=5)
    assert out.shape == (6,)
    assert out.all()
    out_up = amc.coupled_upper_batch(eps, buf, 3_000, seed=5)
    assert out_up.all()
