import itertools
import tracemalloc

import numpy as np
import pytest

from linenet import amc, emc
from linenet.model import NetworkSpec, enumerate_states, make_rng
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


def _mutate(monkeypatch, never_drop: bool, keep_buffers: bool) -> None:
    """Break the coupled check's lower relation, its upper one, or both.

    ``never_drop`` stores every arrival in the drop-on-full chains, so they
    can hold more than the exact chain; ``keep_buffers`` leaves the upper
    chain on the original buffers instead of their prefix sums.
    """
    if never_drop:
        drop = amc._drop

        def store_all(states, x, m):
            sent, _ = drop(states, x, m)
            return sent, sent[:, :-1]

        monkeypatch.setattr(amc, "_drop", store_all)
    if keep_buffers:
        monkeypatch.setattr(amc, "prefix_sum_buffers", lambda buffers: buffers)


def test_coupled_boundedness(monkeypatch):
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    assert amc.coupled_bounds_batch([spec.eps], [spec.buffers], 30_000, seed=1)[0][0]
    _mutate(monkeypatch, never_drop=True, keep_buffers=False)
    assert not amc.coupled_bounds_batch([spec.eps], [spec.buffers], 30_000, seed=1)[0][0]


def test_coupled_boundedness_two_hop_trivial():
    spec = NetworkSpec((0.5, 0.5), (2,))
    assert amc.coupled_bounds_batch([spec.eps], [spec.buffers], 5_000, seed=3)[0][0]


def test_coupled_upper(paper_four_hop):
    spec = paper_four_hop
    assert amc.coupled_bounds_batch([spec.eps], [spec.buffers], 30_000, seed=2)[1][0]


def test_coupled_upper_mutation_fails(monkeypatch):
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    _mutate(monkeypatch, never_drop=False, keep_buffers=True)
    failed = any(
        not amc.coupled_bounds_batch([spec.eps], [spec.buffers], 5_000, seed=s)[1][0]
        for s in range(8)
    )
    assert failed


def test_batch_matches_scalar_checks():
    rng = np.random.default_rng(11)
    eps = rng.uniform(0.1, 0.9, (6, 3))
    buf = rng.integers(1, 4, (6, 2))
    out, out_up = amc.coupled_bounds_batch(eps, buf, 3_000, seed=5)
    assert out.shape == (6,)
    assert out.all()
    assert out_up.all()


def _coupled_oracle(eps, buffers, epochs, seed, keep_buffers):
    """Per-epoch reference walk: each chain steps alone, checks run every epoch.

    It steps the drop-on-full chains with ``amc._drop``, so a mutation of
    that rule reaches it too.
    """
    K, n = buffers.shape
    expanded = buffers if keep_buffers else np.cumsum(buffers, axis=1)
    rng = make_rng(seed)
    n_exact, n_low, n_up = (np.zeros((K, n), dtype=np.int64) for _ in range(3))
    dest_exact, dest_up = np.zeros(K, dtype=np.int64), np.zeros(K, dtype=np.int64)
    lower_ok, upper_ok = np.ones(K, dtype=bool), np.ones(K, dtype=bool)
    for _ in range(epochs):
        x = (rng.random((K, n + 1)) >= eps).astype(np.int64)
        # the last link delivers whenever its channel succeeds and its sender holds a packet
        dest_exact += x[:, -1] * (n_exact[:, -1] > 0)
        dest_up += amc._drop(n_up, x, expanded)[0][:, -1]
        n_exact = emc.step_emc_batch(n_exact, x, buffers)
        n_low = amc.step_amc_batch(n_low, x, buffers)
        n_up = amc.step_amc_batch(n_up, x, expanded)
        lower_ok &= np.all(n_exact >= n_low, axis=1)
        suffix = [np.cumsum(np.column_stack([s, d])[:, ::-1], axis=1)
                  for s, d in ((n_exact, dest_exact), (n_up, dest_up))]
        upper_ok &= np.all(suffix[1] >= suffix[0], axis=1)
    return lower_ok, upper_ok


@pytest.fixture(scope="module")
def mixed_batch():
    # buffers 1..6 and eps across (0.1, 0.9): within a few hundred epochs each
    # mutated relation fails on some networks and still holds on others
    rng = np.random.default_rng(5)
    return rng.uniform(0.1, 0.9, (40, 3)), rng.integers(1, 7, (40, 2))


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("never_drop, keep_buffers",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_coupled_bounds_matches_per_epoch_walk(mixed_batch, never_drop, keep_buffers, small_chunks,
                                               monkeypatch):
    eps, buf = mixed_batch
    K, n = buf.shape
    _mutate(monkeypatch, never_drop, keep_buffers)
    if small_chunks:
        # three epochs per chunk: the chains must carry their state across chunks
        monkeypatch.setattr(amc, "_CHUNK_ELEMENTS", 3 * (3 * K * (n + 1)))
    chunk = amc._CHUNK_ELEMENTS // (3 * K * (n + 1))
    for epochs in (1, chunk - 1, chunk, chunk + 1, max(3 * chunk + 2, 300)):
        got = amc.coupled_bounds_batch(eps, buf, epochs, seed=9)
        want = _coupled_oracle(eps, buf, epochs, 9, keep_buffers)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    # at the longest walk the mutated relations hold on some networks and fail on
    # others; a chain that drops nothing dominates in suffix sums at any buffer sizes
    lower, upper = got
    assert lower.all() if not never_drop else 0 < lower.sum() < K
    assert upper.all() if never_drop or not keep_buffers else 0 < upper.sum() < K


def test_coupled_bounds_memory_flat_in_epochs(mixed_batch):
    eps, buf = mixed_batch
    K, n = buf.shape
    chunk = amc._CHUNK_ELEMENTS // (3 * K * (n + 1))
    peaks = []
    for epochs in (2 * chunk, 8 * chunk):
        tracemalloc.start()
        amc.coupled_bounds_batch(eps, buf, epochs, seed=4)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
