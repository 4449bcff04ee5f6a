import itertools
import json
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from linenet import amc, cli, emc
from linenet.errors import ConsistencyError, ConvergenceError, StateSpaceCapError
from linenet.model import NetworkSpec, enumerate_states
from conftest import StructureViolationError, line_specs, random_spec, step1, verify_block_structure

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse


def brute_transition_row(spec, s):
    """Independent oracle: enumerate channel realizations literally."""
    probs = {}
    for x in itertools.product((0, 1), repeat=spec.h):
        p = 1.0
        for xi, e in zip(x, spec.eps):
            p *= (1 - e) if xi else e
        nxt = step1(emc.step_emc_batch, s, x, spec)
        probs[nxt] = probs.get(nxt, 0.0) + p
    return probs


def test_transfer_indicators_empty_buffers():
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    for x in itertools.product((0, 1), repeat=3):
        y = step1(emc.transfer_indicators_batch, (0, 0), x, spec)
        assert y == (x[0], 0, 0)


def test_transfer_indicators_full_buffer_cut_through():
    spec = NetworkSpec((0.5, 0.5), (2,))
    # departure frees the slot within the epoch, arrival stored
    assert step1(emc.transfer_indicators_batch, (2,), (1, 1), spec) == (1, 1)
    # no departure: arrival refused
    assert step1(emc.transfer_indicators_batch, (2,), (1, 0), spec) == (0, 0)


def test_step_examples():
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    assert step1(emc.step_emc_batch, (0, 0), (0, 1, 1), spec) == (0, 0)
    # every transfer succeeds; flows cancel
    assert step1(emc.step_emc_batch, (1, 1), (1, 1, 1), spec) == (1, 1)


def test_step_bounded_movement_exhaustive():
    spec = NetworkSpec((0.4, 0.6, 0.3), (2, 2))
    for s in map(tuple, enumerate_states(spec)):
        for x in itertools.product((0, 1), repeat=3):
            nxt = step1(emc.step_emc_batch, s, x, spec)
            for j in range(2):
                assert 0 <= nxt[j] <= spec.buffers[j]
                assert abs(nxt[j] - s[j]) <= 1


def test_build_emc_birth_death():
    spec = NetworkSpec((0.5, 0.5), (2,))
    mat = emc.build_emc(spec).probs.toarray()
    expected = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.25, 0.5, 0.25],
            [0.0, 0.25, 0.75],
        ]
    )
    np.testing.assert_allclose(mat, expected, atol=1e-15)


def test_build_emc_matches_brute_force():
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    dense = emc.build_emc(spec).probs.toarray()
    from linenet.model import state_index

    for s in map(tuple, enumerate_states(spec)):
        oracle = brute_transition_row(spec, s)
        i = state_index(s, spec) - 1
        for t in map(tuple, enumerate_states(spec)):
            j = state_index(t, spec) - 1
            assert dense[i, j] == pytest.approx(oracle.get(t, 0.0), abs=1e-15)


def test_build_emc_figure_edge_weight():
    # from the all-empty state only the first link matters
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    dense = emc.build_emc(spec).probs.toarray()
    from linenet.model import state_index

    i = state_index((0, 0), spec) - 1
    j = state_index((1, 0), spec) - 1
    assert dense[i, j] == pytest.approx(1 - 0.3, abs=1e-15)


def test_rows_sum_to_one_and_support_bound():
    rng = np.random.default_rng(0)
    for _ in range(10):
        spec = random_spec(rng)
        mat = emc.build_emc(spec)
        np.testing.assert_allclose(mat.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.diff(mat.probs.indptr).max() <= min(3 ** (spec.h - 1), spec.num_states)


@pytest.mark.parametrize("build", [emc.build_emc, amc.build_amc], ids=["emc", "amc"])
def test_both_chain_builders_check_their_rows(build, monkeypatch):
    outcomes = emc._channel_outcomes

    def inflated(eps):
        x, probs = outcomes(eps)
        return x, probs * (1 + 1e-9)

    monkeypatch.setattr(emc, "_channel_outcomes", inflated)
    with pytest.raises(ConsistencyError, match="do not sum to 1"):
        build(NetworkSpec((0.3, 0.5, 0.7), (2, 2)))


def per_outcome_chain(spec, step_batch):
    """Reference build: one CSR matrix per channel realization, added in bit order."""
    n, h = spec.num_states, spec.h
    m = np.asarray(spec.buffers, dtype=np.int64)
    weights = np.concatenate(([1], np.cumprod(m + 1)[:-1]))
    states = enumerate_states(spec)
    eps = np.asarray(spec.eps)
    rows = np.arange(n, dtype=np.int64)
    acc = None
    for bits in range(2**h):
        x = np.array([(bits >> a) & 1 for a in range(h)], dtype=np.int64)
        p = float(np.prod(np.where(x == 1, 1.0 - eps, eps)))
        cols = step_batch(states, x, m) @ weights
        part = sparse.coo_matrix((np.full(n, p), (rows, cols)), shape=(n, n)).tocsr()
        acc = part if acc is None else acc + part
    acc.sum_duplicates()
    return acc


def bit_identity_specs():
    rng = np.random.default_rng(12)
    m_max = {2: 9, 3: 6, 4: 4, 5: 3, 6: 2}
    specs = [NetworkSpec((0.5, 0.5), (2,)), NetworkSpec((0.3, 0.5, 0.7), (1, 1))]
    for h in (2, 3, 4, 5, 6):
        for _ in range(7):
            eps = tuple(float(e) for e in rng.uniform(0.05, 0.95, size=h))
            specs.append(NetworkSpec(eps, tuple(int(v) for v in rng.integers(1, m_max[h] + 1, h - 1))))
    return specs


@pytest.mark.parametrize(
    "build, kernel",
    [(emc.build_emc, emc.step_emc_batch), (amc.build_amc, amc.step_amc_batch)],
    ids=["emc", "amc"],
)
def test_class_assembly_matches_per_outcome_build(build, kernel):
    specs = bit_identity_specs()
    assert len(specs) >= 30 and any(1 in s.buffers for s in specs)
    for spec in specs:
        got, ref = build(spec).probs, per_outcome_chain(spec, kernel)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (spec, name)


def test_class_assembly_needs_kernels_that_read_only_empty_and_full():
    # a kernel that also reads "exactly one packet" breaks the class invariant
    def reads_middle(states, x, m):
        return emc.step_emc_batch(states, x * (states[:, :1] != 1), m)

    spec = NetworkSpec((0.3, 0.5, 0.7), (3, 3))
    got = emc._build_chain(spec, reads_middle).probs
    ref = per_outcome_chain(spec, reads_middle)
    assert abs(got - ref).max() > 0.1


def test_build_emc_memory_near_matrix_size():
    spec = NetworkSpec((0.25,) * 6, (8,) * 5)
    tracemalloc.start()
    try:
        P = emc.build_emc(spec).probs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert P.shape == (59049, 59049)
    assert peak <= 1.6 * (P.data.nbytes + P.indices.nbytes + P.indptr.nbytes)


def test_state_cap():
    # 2^24 states without a large buffer: every exact entry point refuses it
    # before it allocates anything of the chain's size
    spec = NetworkSpec((0.5,) * 25, (1,) * 24)
    assert spec.num_states == 2**24 > emc.STATE_CAP
    entries = (
        emc.build_emc, amc.build_amc, amc.capacity_lower, amc.capacity_upper, amc.bounds,
        emc.capacity_exact, emc.capacity_flow_crosscheck, verify_block_structure,
        emc.h_matrix_bound,
    )
    for entry in entries:
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceCapError, match="use rbie, dbie or the simulator"):
                entry(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (entry.__name__, peak)


def test_stationary_birth_death():
    spec = NetworkSpec((0.5, 0.5), (2,))
    pi = emc.stationary(emc.build_emc(spec))
    np.testing.assert_allclose(pi, [0.2, 0.4, 0.4], atol=1e-11)


def _no_levels(P: sparse.csr_matrix) -> emc.SparseStochasticMatrix:
    """The chain without its buffers, so that it has no level plan: the GCROT path."""
    return emc.SparseStochasticMatrix(P.shape[0], P)


def test_stationary_rejects_reducible():
    eye = sparse.eye(4, format="csr")
    with pytest.raises(ConvergenceError):
        emc.stationary(_no_levels(eye))


def test_stationary_rejects_residual_above_tol(paper_four_hop):
    # six levels of 36 states: the level path
    with pytest.raises(ConvergenceError, match="level-elimination") as err:
        emc.stationary(emc.build_emc(paper_four_hop), tol=1e-30)
    assert err.value.residual > 1e-30
    assert err.value.iterations == 6


def test_stationary_gmres_failure_names_its_path(paper_four_hop):
    with pytest.raises(ConvergenceError, match="GCROT stationary solve") as err:
        emc.stationary(_no_levels(emc.build_emc(paper_four_hop).probs), tol=1e-30)
    assert err.value.residual > 1e-30
    assert err.value.iterations > 0
    assert f"{err.value.iterations} operator applications" in str(err.value)


def two_hop_closed_form(e1: float, e2: float, m: int) -> float:
    """Capacity of the two-hop birth-death walk, summed in exact rationals.

    From occupancy 0 the walk rises with a0 = 1 - e1; inside it rises
    with (1 - e1) e2 and falls with d = e1 (1 - e2), so pi_k = pi_0 (a0/d)
    rho^(k-1) for k >= 1 with rho = (1 - e1) e2 / d.
    """
    e1, e2 = Fraction(e1), Fraction(e2)
    d = e1 * (1 - e2)
    rho = (1 - e1) * e2 / d
    mass = (rho**m - 1) / (rho - 1) if rho != 1 else Fraction(m)
    return float((1 - e2) * (1 - 1 / (1 + (1 - e1) / d * mass)))


@pytest.mark.parametrize("m", [200, 1000, 5000])
def test_capacity_exact_long_two_hop_symmetric(m):
    assert abs(emc.capacity_exact(NetworkSpec((0.5, 0.5), (m,))) - 0.5 * (1 - 1 / (2 * m + 1))) <= 1e-10


def test_capacity_exact_long_two_hop_general():
    # the level ratio is 7/3: unscaled, pi would overflow over 1 000 levels
    got = emc.capacity_exact(NetworkSpec((0.3, 0.5), (1000,)))
    assert two_hop_closed_form(0.5, 0.5, 7) == pytest.approx(0.5 * (1 - 1 / 15), abs=1e-15)
    assert abs(got - two_hop_closed_form(0.3, 0.5, 1000)) <= 1e-10


def test_bounds_sandwich_long_three_hop():
    spec = NetworkSpec((0.3, 0.5, 0.5), (100, 100))
    start = time.perf_counter()
    res = amc.bounds(spec, with_exact=True)
    assert time.perf_counter() - start < 5.0
    assert res.lower <= res.exact <= res.upper <= spec.min_cut


def test_capacity_exact_reversal_on_the_permuted_path():
    # levels follow the largest buffer: the first node here, the last in the reversal
    spec = NetworkSpec((0.3, 0.5, 0.5), (1000, 2))
    rev = NetworkSpec((0.5, 0.5, 0.3), (2, 1000))
    assert emc._level_plan(spec.buffers) == (0, 3)
    assert emc._level_plan(rev.buffers) == (1, 3)
    assert abs(emc.capacity_exact(spec) - emc.capacity_exact(rev)) <= 1e-10


@pytest.mark.parametrize("build", [emc.build_emc, amc.build_amc], ids=["emc", "amc"])
@given(spec=line_specs(h_values=(2, 3, 4, 5), m_max=5))
@settings(max_examples=40, deadline=None)
def test_level_and_gmres_paths_agree(build, spec):
    chain = build(spec)
    assert emc._level_plan(chain.buffers) is not None
    levels, gmres = emc.stationary(chain), emc.stationary(_no_levels(chain.probs))
    assert np.max(np.abs(levels - gmres)) <= 1e-12
    for pi in (levels, gmres):
        assert np.max(np.abs(pi @ chain.probs - pi)) <= 1e-12
        assert np.all(pi >= 0) and pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_level_plan_refuses_factors_over_the_budget():
    # 256-state levels, but 2.56 M states: the factors would take 5.2 GB
    n = 256 * 10_001
    assert 8 * n * 256 > emc._LEVEL_FACTOR_BYTES
    assert emc._level_plan((255, 10_000)) is None
    # 16 384 states in 256-state levels fill the budget exactly; one level more does not fit
    assert emc._level_plan((15, 15, 63)) == (2, 256)
    assert emc._level_plan((15, 15, 64)) is None
    assert emc._level_plan((16, 16, 16)) is None  # 289-state levels
    assert emc._level_plan(()) is None


@pytest.mark.parametrize(
    "spec",
    [
        NetworkSpec((0.5, 0.4999, 0.4998, 0.4), (5, 5, 5)),
        # slowly mixing: nearly every transmission is erased
        NetworkSpec((0.99, 0.997, 0.99701), (3, 3)),
    ],
    ids=["paper_four_hop", "slow_mixing"],
)
def test_stationary_residual_contract(spec):
    mat = emc.build_emc(spec)
    pi = emc.stationary(mat, tol=1e-12)
    resid = np.max(np.abs(pi @ mat.probs - pi))
    assert resid <= 1e-12
    assert pi.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(pi >= 0)
    system = mat.probs.toarray().T - np.eye(mat.n)
    system[-1, :] = 1.0
    rhs = np.zeros(mat.n)
    rhs[-1] = 1.0
    np.testing.assert_allclose(pi, np.linalg.solve(system, rhs), rtol=0, atol=1e-12)


def test_krylov_path_matches_dense_solve_slow_mixing():
    # 169 states, nearly every transmission erased: restarted GMRES(50) is 1.8e-12 off here
    mat = emc.build_emc(NetworkSpec((0.99, 0.997, 0.99701), (12, 12))).probs
    pi = emc.stationary(_no_levels(mat))
    system = mat.toarray().T - np.eye(mat.shape[0])
    system[-1, :] = 1.0
    rhs = np.zeros(mat.shape[0])
    rhs[-1] = 1.0
    np.testing.assert_allclose(pi, np.linalg.solve(system, rhs), rtol=0, atol=1e-12)


def test_capacity_exact_birth_death():
    spec = NetworkSpec((0.5, 0.5), (2,))
    assert emc.capacity_exact(spec) == pytest.approx(0.4, abs=1e-11)


def test_capacity_exact_paper_network(paper_four_hop):
    cap = emc.capacity_exact(paper_four_hop)
    assert cap == pytest.approx(0.43501, abs=1e-3)


def test_capacity_exact_reversal_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = random_spec(rng, h_choices=(2, 3, 4, 5), m_max=4)
        rev = NetworkSpec(tuple(reversed(spec.eps)), tuple(reversed(spec.buffers)))
        assert emc.capacity_exact(rev) == pytest.approx(emc.capacity_exact(spec), abs=1e-10)


@given(line_specs())
@settings(max_examples=100, deadline=None)
def test_capacity_nondecreasing_in_each_buffer(spec):
    base = emc.capacity_exact(spec)
    for j in range(spec.h - 1):
        grown = list(spec.buffers)
        grown[j] += 1
        assert emc.capacity_exact(spec.with_buffers(tuple(grown))) >= base - 1e-9


@given(line_specs(), st.integers(0, 3), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_capacity_nonincreasing_in_each_eps(spec, link, frac):
    j = link % spec.h
    eps = list(spec.eps)
    eps[j] += frac * (0.95 - eps[j])
    base = emc.capacity_exact(spec)
    assert emc.capacity_exact(NetworkSpec(tuple(eps), spec.buffers)) <= base + 5e-12


def test_capacity_approaches_min_cut():
    small = emc.capacity_exact(NetworkSpec((0.5, 0.5, 0.5), (5, 5)))
    big = emc.capacity_exact(NetworkSpec((0.5, 0.5, 0.5), (25, 25)))
    assert small < big < 0.5
    assert 0.5 - big < 0.5 * (0.5 - small)


def test_flow_crosscheck(paper_four_hop):
    rates = emc.capacity_flow_crosscheck(paper_four_hop)
    cap = emc.capacity_exact(paper_four_hop)
    assert rates.shape == (2,)
    np.testing.assert_allclose(rates, cap, atol=1e-8)

    spec3 = NetworkSpec((0.5, 0.5, 0.5), (2, 2))
    rates3 = emc.capacity_flow_crosscheck(spec3)
    assert rates3[0] == pytest.approx(emc.capacity_exact(spec3), abs=1e-10)

    assert emc.capacity_flow_crosscheck(NetworkSpec((0.5, 0.5), (2,))).size == 0


@given(line_specs(h_values=(3, 4, 5), m_max=4))
@settings(max_examples=40, deadline=None)
def test_flow_crosscheck_matches_per_state_sum(spec):
    # the crosscheck sums pi per occupancy class; here every state is visited
    pi = emc.stationary(emc.build_emc(spec))
    states = enumerate_states(spec)
    m = np.asarray(spec.buffers, dtype=np.int64)
    rates = np.zeros(spec.h)
    for bits in range(2**spec.h):
        x = np.array([(bits >> a) & 1 for a in range(spec.h)])
        p = np.prod(np.where(x == 1, 1.0 - np.asarray(spec.eps), spec.eps))
        rates += p * (pi @ emc.transfer_indicators_batch(states, x, m))
    got = emc.capacity_flow_crosscheck(spec, pi=pi)
    np.testing.assert_allclose(got, rates[1 : spec.h - 1], rtol=0, atol=1e-13)


def test_block_structure_three_hop():
    report = verify_block_structure(NetworkSpec((0.3, 0.5, 0.7), (2, 2)))
    assert report.down_block_min_diagonal >= report.down_block_diagonal_bound > 0


def test_block_structure_down_diagonal_bound_does_not_underflow():
    # 343-state levels: the product of a down-block's diagonal underflows to 0
    report = verify_block_structure(NetworkSpec((0.3, 0.4, 0.5, 0.6, 0.35), (6, 6, 6, 6)))
    assert report.block_size == 343
    assert report.down_block_min_diagonal >= report.down_block_diagonal_bound > 0


def test_block_structure_two_hop_scalar_blocks():
    P = emc.build_emc(NetworkSpec((0.5, 0.5), (4,))).probs
    for i in range(1, 5):
        band = emc._level_band(P, i, 1)
        assert band.shape == (1, 3)
        assert band[0, 0] == pytest.approx(0.5 * 0.5, abs=1e-15)  # success * loss


def test_block_structure_up_block_corner_zero():
    P = emc.build_emc(NetworkSpec((0.3, 0.5, 0.7), (2, 2))).probs
    assert emc._level_band(P, 0, 3)[0, 6] == 0.0


def test_block_structure_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        spec = random_spec(rng, h_choices=(2, 3, 4), m_max=4)
        verify_block_structure(spec)


@pytest.mark.parametrize(
    "edits, message",
    [
        ([(7, 7, 0.5)], "interior stay-block 2 differs"),
        ([(14, 9, 0.1)], "down-block 4 is not upper triangular"),
        ([(13, 10, 1e-6)], "down-block 4 diagonal entry"),
        ([(0, 5, 0.1)], "up-block 0 is not lower triangular"),
        ([(0, 3, 0.1)], "up-block 0 has a feasible all-empty"),
        ([(2, j, 0.0) for j in range(6)] + [(2, 2, 1.0)], "I - stay-block 0 is singular"),
    ],
    ids=["interior", "down-triangular", "down-diagonal", "up-triangular", "up-corner", "stay"],
)
def test_block_structure_rejects_corrupted_blocks(monkeypatch, edits, message):
    # five levels of three states; levels 0 and 4 are not interior
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 4))
    dense = emc.build_emc(spec).probs.toarray()
    for r, c, v in edits:
        dense[r, c] = v
    bad = emc.SparseStochasticMatrix(n=15, probs=sparse.csr_matrix(dense))
    monkeypatch.setattr(emc, "build_emc", lambda spec: bad)
    with pytest.raises(StructureViolationError, match=message):
        verify_block_structure(spec)


def test_levels_rebuild_the_chain():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        spec = random_spec(rng, h_choices=(2, 3, 4, 5), m_max=4)
        P = emc.build_emc(spec).probs
        n, b = P.shape[0], emc._tail_block_size(spec)
        # one empty level of padding on each side
        rebuilt = np.zeros((n, n + 2 * b))
        for i in range(n // b):
            rebuilt[i * b : (i + 1) * b, i * b : (i + 3) * b] = emc._level_band(P, i, b)
        assert np.array_equal(rebuilt[:, b : n + b], P.toarray())
        assert not rebuilt[:, :b].any() and not rebuilt[:, n + b :].any()


def test_block_structure_allocates_no_dense_chain():
    # 1 005 states: a dense copy of the chain alone would take 8.1 MB
    spec = NetworkSpec((0.3, 0.5, 0.7), (4, 200))
    tracemalloc.start()
    try:
        verify_block_structure(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_h_matrix_bound_three_hop():
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    bound = emc.h_matrix_bound(spec)
    assert bound >= emc.capacity_exact(spec) - 1e-12


def test_h_matrix_relation_residual():
    # the factors carry pi_{i+1} = pi_i R_i; checked against the GCROT path's pi
    for spec in (
        NetworkSpec((0.3, 0.5, 0.7), (2, 2)),
        NetworkSpec((0.5, 0.4999, 0.4998, 0.4), (2, 2, 2)),
        NetworkSpec((0.2, 0.6, 0.4, 0.5), (1, 2, 3)),
        NetworkSpec((0.5, 0.5), (4,)),
    ):
        P = emc.build_emc(spec).probs
        b = emc._tail_block_size(spec)
        _, factors = emc._eliminate_levels(P, b)
        levels = emc.stationary(_no_levels(P)).reshape(-1, b)
        for i, R in enumerate(factors):
            assert np.max(np.abs(levels[i] @ R - levels[i + 1])) <= 1e-12, (spec, i)


def test_h_matrix_two_hop_birth_death_ratios():
    spec = NetworkSpec((0.5, 0.5), (3,))
    _, factors = emc._eliminate_levels(emc.build_emc(spec).probs, 1)
    # ratios pi_k / pi_0 of the birth-death walk: alpha0/beta then alpha/beta
    alpha0_over_beta = 0.5 / 0.25
    alpha_over_beta = 0.25 / 0.25
    expect = [1.0, alpha0_over_beta, alpha0_over_beta * alpha_over_beta,
              alpha0_over_beta * alpha_over_beta ** 2]
    got = np.concatenate(([1.0], np.cumprod(factors[:, 0, 0])))
    np.testing.assert_allclose(got, expect, atol=1e-10)
    # for two hops the norm bound collapses to the exact capacity
    assert emc.h_matrix_bound(spec) == pytest.approx(emc.capacity_exact(spec), abs=1e-10)


@pytest.mark.parametrize(
    "spec, expect",
    [
        # the paper's four-hop line; exact capacity 0.4351269373497866
        (NetworkSpec((0.5, 0.4999, 0.4998, 0.4), (5, 5, 5)), 0.4755071210974122),
        # long last buffers, up to 201 levels
        (NetworkSpec((0.3, 0.5, 0.7), (3, 12)), 0.2999949312741595),
        (NetworkSpec((0.3, 0.5, 0.7), (4, 30)), 0.2999999999988476),
        (NetworkSpec((0.3, 0.5, 0.7), (4, 200)), 0.30000000000000004),
    ],
)
def test_h_matrix_bound_from_the_elimination_factors(spec, expect):
    bound = emc.h_matrix_bound(spec)
    assert bound == pytest.approx(expect, abs=1e-12)
    assert bound >= emc.capacity_exact(spec) - 1e-12


def test_h_matrix_bound_brackets_the_exact_capacity():
    rng = np.random.default_rng(17)
    for _ in range(40):
        spec = random_spec(rng, h_choices=(2, 3, 4, 5), m_max=4)
        bound = emc.h_matrix_bound(spec)
        assert emc.capacity_exact(spec) - 1e-12 <= bound <= 1 - spec.eps[-1], spec
        if spec.h == 2:
            assert bound == pytest.approx(emc.capacity_exact(spec), abs=1e-10)


def test_matrix_csv_dump(tmp_path, capsys):
    spec = NetworkSpec((0.5, 0.5), (2,))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    path = tmp_path / "mat.csv"
    assert cli.main(["exact", "--spec", str(spec_path), "--dump-matrix", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,prob"
    total = sum(float(l.split(",")[2]) for l in lines[1:])
    assert total == pytest.approx(3.0, abs=1e-12)
