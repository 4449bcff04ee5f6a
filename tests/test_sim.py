import numpy as np
import pytest
from scipy import stats

from linenet import delay, emc, rbie, sim
from linenet.errors import SpecValidationError
from linenet.model import NetworkSpec
from conftest import random_spec


def test_reproducible_bit_identical():
    spec = NetworkSpec((0.5, 0.4, 0.6), (2, 3))
    a = sim.simulate_feedback(spec, 30_000, warmup=1000, seed=9)
    b = sim.simulate_feedback(spec, 30_000, warmup=1000, seed=9)
    assert a.packets_delivered == b.packets_delivered
    assert a.throughput == b.throughput
    np.testing.assert_array_equal(a.occupancy_counts, b.occupancy_counts)
    c = sim.simulate_feedback(spec, 30_000, warmup=1000, seed=10)
    assert c.packets_delivered != a.packets_delivered


@pytest.mark.parametrize(
    "eps,buffers",
    [((0.4, 0.6, 0.3), (2, 2)), ((0.3, 0.5), (2,)), ((0.35, 0.5, 0.45, 0.3), (1, 2, 1))],
)
def test_walk_couples_with_batch_kernels(eps, buffers):
    # the walk's scalar transfer rule against the batch kernel the chains use
    spec = NetworkSpec(eps, buffers)
    m = np.asarray(buffers, dtype=np.int64)
    prev = np.zeros((1, spec.h - 1), dtype=np.int64)
    visited = set()
    for t, x, y, n in sim._walk(spec, 20_000, seed=1):
        xa = np.asarray(x, dtype=np.int64)
        assert emc.transfer_indicators_batch(prev, xa, m)[0].tolist() == y, t
        nxt = emc.step_emc_batch(prev, xa, m)
        assert nxt[0].tolist() == n, t
        visited.add((tuple(prev[0].tolist()), tuple(x)))
        prev = nxt
    assert t == 20_000 - 1
    assert len(visited) == spec.num_states * 2 ** spec.h


# fixed-seed outputs: a change to the channel draws or the transfer rule shows here
PINNED_FEEDBACK = {
    "eps": (0.3, 0.5, 0.7), "buffers": (2, 2),
    "packets_delivered": 4928,
    "throughput_se": 0.00292598985567119,
    "occupancy_counts": [[309, 2475, 15216], [1617, 4981, 11402]],
    "joint_counts": [3, 10, 227, 9, 102, 600, 38, 213, 1370],
}
PINNED_DELAY = {
    "eps": (0.3, 0.45, 0.5, 0.2), "buffers": (2, 3, 1),
    "packets_delivered": 7464,
    "occupancy_counts": [[720, 4130, 13150, 0], [1469, 3868, 5573, 7090], [8674, 9326, 0, 0]],
    "delay_counts": [0, 0, 0, 44, 115, 320, 516, 732, 897, 899, 881, 767, 583, 460, 333, 308,
                     205, 133, 103, 60, 36, 27, 20, 7, 4, 2, 4, 1, 2, 0, 0, 0, 1],
    "delay_mean": 10.183914209115281,
    "delay_se": 0.1053284814136635,
    "delay_var": 12.548554726517475,
}


def test_simulators_match_pinned_values():
    p = PINNED_FEEDBACK
    st_ = sim.simulate_feedback(
        NetworkSpec(p["eps"], p["buffers"]), 20_000, warmup=2_000, seed=4, joint_stride=7
    )
    assert st_.packets_delivered == p["packets_delivered"]
    assert st_.throughput_se == p["throughput_se"]
    assert st_.occupancy_counts.tolist() == p["occupancy_counts"]
    assert st_.joint_counts.tolist() == p["joint_counts"]

    p = PINNED_DELAY
    st_ = sim.simulate_delay_fcfs(NetworkSpec(p["eps"], p["buffers"]), 20_000, warmup=2_000, seed=11)
    assert st_.packets_delivered == p["packets_delivered"]
    assert st_.occupancy_counts.tolist() == p["occupancy_counts"]
    assert st_.delay_counts.tolist() == p["delay_counts"]
    assert (st_.delay_mean, st_.delay_se, st_.delay_var) == (
        p["delay_mean"], p["delay_se"], p["delay_var"]
    )


def test_throughput_matches_exact_within_3se():
    rng = np.random.default_rng(123)
    for _ in range(5):
        spec = random_spec(rng, h_choices=(2, 3), m_max=3)
        st_ = sim.simulate_feedback(spec, 200_000, warmup=20_000, seed=77)
        exact = emc.capacity_exact(spec)
        assert abs(st_.throughput - exact) < 3 * st_.throughput_se + 1e-9


def test_throughput_paper_network_short_run(paper_four_hop):
    st_ = sim.simulate_feedback(paper_four_hop, 300_000, seed=5)
    assert st_.throughput == pytest.approx(0.43513, abs=3 * st_.throughput_se + 1e-9)


def test_occupancy_histogram_matches_stationary():
    spec = NetworkSpec((0.3, 0.5, 0.7), (2, 2))
    st_ = sim.simulate_feedback(spec, 400_000, warmup=40_000, seed=2, joint_stride=64)
    pi = emc.stationary(emc.build_emc(spec))
    counts = st_.joint_counts
    n = counts.sum()
    expected = pi * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    crit = stats.chi2.ppf(0.999, df=pi.size - 1)
    assert chi2 < crit


def test_delay_two_hop_single_slot_geometric():
    spec = NetworkSpec((0.3, 0.5), (1,))
    st_ = sim.simulate_delay_fcfs(spec, 300_000, seed=3)
    assert st_.delay_mean == pytest.approx(2.0, abs=3 * st_.delay_se + 1e-9)
    # delays are single geometric gaps: variance theta / (1-theta)^2
    assert st_.delay_var == pytest.approx(0.5 / 0.25, rel=0.05)


def test_delay_histogram_against_analytic_ks():
    # the 0.02 band is for the long balanced benchmark, where the
    # renewal decoupling is accurate; small unbalanced nets run worse
    spec = NetworkSpec((0.25,) * 8, (5,) * 7)
    st_ = sim.simulate_delay_fcfs(spec, 400_000, seed=6)
    sol = rbie.solve(spec)
    prof = delay.delay_profile(spec, delay.psi_rho_from_rbie(sol, spec))
    counts = st_.delay_counts.astype(float)
    emp_cdf = np.cumsum(counts) / counts.sum()
    ana_cdf = prof.cdf()
    k = min(emp_cdf.size, ana_cdf.size)
    ks = float(np.max(np.abs(emp_cdf[:k] - ana_cdf[:k])))
    # the analytic profile deliberately over-spreads (variance above the
    # true one), which costs ~0.03 of sup-distance at the mode
    assert ks < 0.04


def test_warmup_validation():
    spec = NetworkSpec((0.5, 0.5), (2,))
    with pytest.raises(SpecValidationError):
        sim.simulate_feedback(spec, 1000, warmup=1000, seed=0)
    assert sim.default_warmup(10**6) == 10**5
    assert sim.default_warmup(50_000) == 10_000
    assert sim.default_warmup(10_000) == 5_000


def test_stats_json_round_trip():
    spec = NetworkSpec((0.5, 0.5), (2,))
    st_ = sim.simulate_delay_fcfs(spec, 20_000, seed=1)
    doc = st_.to_obj()
    assert doc["packets_delivered"] == st_.packets_delivered
    assert "delay_mean" in doc


def test_discretize_example():
    c = sim.ContinuousSpec((10.0, 3.0, 2.99), (3, 3), 0.001)
    disc = sim.discretize(c)
    np.testing.assert_allclose(disc.network.eps, (0.99, 0.997, 0.99701), atol=1e-12)
    assert disc.network.buffers == (3, 3)
    assert disc.rate_scale == pytest.approx(1000.0)


def test_discretize_rejects_coarse_step():
    with pytest.raises(SpecValidationError):
        sim.ContinuousSpec((10.0, 3.0), (3,), 0.2)


def test_continuous_bridge_against_ctmc_oracle():
    """tau -> 0 limit of the scaled discrete capacity equals the
    independently solved continuous-time chain."""
    from itertools import product

    l1, l2, l3 = 10.0, 3.0, 2.99
    m1 = m2 = 3
    states = list(product(range(m1 + 1), range(m2 + 1)))
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    Q = np.zeros((n, n))
    for (a, b) in states:
        i = idx[(a, b)]
        if a < m1:
            Q[i, idx[(a + 1, b)]] += l1
        if a > 0 and b < m2:
            Q[i, idx[(a - 1, b + 1)]] += l2
        if b > 0:
            Q[i, idx[(a, b - 1)]] += l3
    np.fill_diagonal(Q, -Q.sum(axis=1))
    A = np.vstack([Q.T[:-1], np.ones(n)])
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(A, rhs, rcond=None)[0]
    ctmc_cap = l3 * sum(pi[idx[(a, b)]] for (a, b) in states if b > 0)

    taus = (0.002, 0.001, 0.0005, 0.00025)
    vals = []
    for tau in taus:
        d = sim.discretize(sim.ContinuousSpec((l1, l2, l3), (m1, m2), tau))
        vals.append(d.rate_scale * emc.capacity_exact(d.network))
    errs = [abs(v - ctmc_cap) for v in vals]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 6e-4
