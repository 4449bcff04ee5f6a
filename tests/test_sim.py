import tracemalloc

import numpy as np
import pytest
from scipy import stats

from linenet import delay, emc, rbie, sim
from linenet.errors import SpecValidationError
from linenet.model import NetworkSpec
from conftest import joint_counts, random_spec


def test_reproducible_bit_identical():
    spec = NetworkSpec((0.5, 0.4, 0.6), (2, 3))
    a = sim.simulate_feedback(spec, 30_000, warmup=1000, seed=9)
    b = sim.simulate_feedback(spec, 30_000, warmup=1000, seed=9)
    assert a.packets_delivered == b.packets_delivered
    assert a.throughput == b.throughput
    np.testing.assert_array_equal(a.occupancy_counts, b.occupancy_counts)
    c = sim.simulate_feedback(spec, 30_000, warmup=1000, seed=10)
    assert c.packets_delivered != a.packets_delivered


EIGHT_HOP_M5 = ((0.25,) * 8, (5,) * 7)
EIGHT_HOP_M10 = ((0.25,) * 8, (10,) * 7)


@pytest.mark.parametrize(
    "eps,buffers,cap,blocks,epochs",
    [
        pytest.param((0.4, 0.6, 0.3), (2, 2), sim._TABLE_CAP, 1, 20_000, id="one-block"),
        pytest.param((0.3, 0.5), (2,), sim._TABLE_CAP, 1, 20_000, id="h2"),
        pytest.param(
            (0.35, 0.5, 0.45, 0.3), (1, 2, 1), sim._TABLE_CAP, 1, 20_000, id="one-block-h4"
        ),
        # a lowered cap splits a small line, so every (state, channel) pair still occurs
        pytest.param((0.35, 0.5, 0.45, 0.3), (1, 2, 1), 16, 3, 20_000, id="three-blocks-small"),
        pytest.param((0.35, 0.5, 0.45, 0.3), (1, 2, 1), 8, 3, 20_000, id="node-over-cap-small"),
        pytest.param(*EIGHT_HOP_M5, sim._TABLE_CAP, 2, 3_000, id="two-blocks"),
        pytest.param(*EIGHT_HOP_M10, sim._TABLE_CAP, 3, 3_000, id="three-blocks"),
        # node 1's own table, 4 * 20001 entries, exceeds the cap
        pytest.param((0.3, 0.4, 0.6), (2, 20_000), sim._TABLE_CAP, 2, 3_000, id="node-over-cap"),
    ],
)
def test_chunks_couple_with_batch_kernel(eps, buffers, cap, blocks, epochs, monkeypatch):
    # the block tables against a K = 1 batch-kernel trajectory on the same draws
    monkeypatch.setattr(sim, "_TABLE_CAP", cap)
    spec = NetworkSpec(eps, buffers)
    assert len(sim._runs(spec.buffers)) == blocks
    m = np.asarray(buffers, dtype=np.int64)
    prev = np.zeros((1, spec.h - 1), dtype=np.int64)
    visited = set()
    t = 0
    for t0, x, n, admitted, delivered in sim._chunks(spec, epochs, seed=1):
        assert t0 == t
        for row in range(len(x)):
            xa = x[row].astype(np.int64)
            y = emc.transfer_indicators_batch(prev, xa, m)[0]
            assert (admitted[row], delivered[row]) == (y[0], y[-1]), t
            nxt = emc.step_emc_batch(prev, xa, m)
            assert nxt[0].tolist() == n[row].tolist(), t
            visited.add((tuple(prev[0].tolist()), tuple(xa.tolist())))
            prev = nxt
            t += 1
    assert t == epochs
    if epochs == 20_000:
        assert len(visited) == spec.num_states * 2**spec.h


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


# the same on lines that split into two blocks, recorded from the per-link scalar walk
PINNED_FEEDBACK_BLOCKS = {
    "eps": (0.3, 0.45, 0.5, 0.2, 0.35), "buffers": (7, 7, 7, 7),
    "packets_delivered": 8798,
    "throughput_se": 0.0035629657629646636,
    "occupancy_counts": [[2, 33, 87, 259, 637, 1700, 4491, 10791],
                         [508, 1288, 1509, 1963, 2327, 2906, 3313, 4186],
                         [7009, 8427, 1954, 500, 89, 20, 1, 0],
                         [4417, 6673, 3552, 1726, 850, 443, 216, 123]],
    # non-zero joint counts, state index: count
    "joint_counts": {31: 1, 63: 2, 79: 1, 102: 1, 119: 2, 125: 1, 127: 2, 158: 1, 183: 1, 191: 1,
                     527: 1, 550: 1, 565: 1, 574: 1, 575: 3, 606: 1, 607: 1, 622: 1, 623: 1,
                     629: 1, 631: 1, 639: 1, 652: 1, 735: 1, 1037: 1, 1063: 2, 1071: 1, 1079: 1,
                     1111: 1, 1142: 2, 1143: 1, 1551: 1, 1581: 1, 1582: 1, 1591: 1, 1599: 1,
                     1655: 1, 1695: 1},
}
PINNED_DELAY_BLOCKS = {
    "eps": EIGHT_HOP_M5[0], "buffers": EIGHT_HOP_M5[1],
    "packets_delivered": 12107,
    "occupancy_counts": [[454, 1929, 2500, 3390, 4162, 5565], [660, 2456, 2784, 3079, 4031, 4990],
                         [883, 3120, 3132, 3381, 3635, 3849], [1063, 3618, 3246, 3269, 3405, 3399],
                         [1232, 4007, 3478, 3266, 2904, 3113], [1437, 4534, 3504, 3159, 2830, 2536],
                         [1850, 5301, 3970, 2871, 2225, 1783]],
    "delay_counts": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 8, 17, 13, 26, 25, 68, 87, 179, 172, 272,
                     389, 510, 601, 687, 677, 764, 755, 839, 820, 822, 800, 796, 642, 510, 367, 306,
                     273, 165, 146, 107, 80, 55, 35, 31, 5, 3, 4, 7, 12, 5, 4],
    "delay_mean": 29.45107122177186,
    "delay_se": 0.39368870306985787,
    "delay_var": 31.872874638292362,
}


def test_simulators_match_pinned_values():
    p = PINNED_FEEDBACK
    spec = NetworkSpec(p["eps"], p["buffers"])
    st_ = sim.simulate_feedback(spec, 20_000, warmup=2_000, seed=4)
    assert st_.packets_delivered == p["packets_delivered"]
    assert st_.throughput_se == p["throughput_se"]
    assert st_.occupancy_counts.tolist() == p["occupancy_counts"]
    assert joint_counts(spec, 20_000, 2_000, seed=4, stride=7).tolist() == p["joint_counts"]

    p = PINNED_DELAY
    st_ = sim.simulate_delay_fcfs(NetworkSpec(p["eps"], p["buffers"]), 20_000, warmup=2_000, seed=11)
    assert st_.packets_delivered == p["packets_delivered"]
    assert st_.occupancy_counts.tolist() == p["occupancy_counts"]
    assert st_.delay_counts.tolist() == p["delay_counts"]
    assert (st_.delay_mean, st_.delay_se, st_.delay_var) == (
        p["delay_mean"], p["delay_se"], p["delay_var"]
    )

    p = PINNED_FEEDBACK_BLOCKS
    spec = NetworkSpec(p["eps"], p["buffers"])
    assert len(sim._runs(spec.buffers)) == 2
    st_ = sim.simulate_feedback(spec, 20_000, warmup=2_000, seed=4)
    assert st_.packets_delivered == p["packets_delivered"]
    assert st_.throughput_se == p["throughput_se"]
    assert st_.occupancy_counts.tolist() == p["occupancy_counts"]
    joint = joint_counts(spec, 20_000, 2_000, seed=4, stride=401)
    assert {int(k): int(joint[k]) for k in np.flatnonzero(joint)} == p["joint_counts"]

    p = PINNED_DELAY_BLOCKS
    spec = NetworkSpec(p["eps"], p["buffers"])
    assert len(sim._runs(spec.buffers)) == 2
    st_ = sim.simulate_delay_fcfs(spec, 20_000, warmup=2_000, seed=13)
    assert st_.packets_delivered == p["packets_delivered"]
    assert st_.occupancy_counts.tolist() == p["occupancy_counts"]
    assert st_.delay_counts.tolist() == p["delay_counts"]
    assert (st_.delay_mean, st_.delay_se, st_.delay_var) == (
        p["delay_mean"], p["delay_se"], p["delay_var"]
    )


@pytest.mark.parametrize(
    "eps, buffers, blocks",
    [((0.3, 0.5, 0.7), (2, 2), 1), ((0.3, 0.45, 0.5, 0.2, 0.35), (7, 7, 7, 7), 2), ((0.4, 0.6), (3,), 1)],
    ids=["one_block", "two_blocks", "two_hop"],
)
def test_fcfs_and_feedback_count_the_same_deliveries(eps, buffers, blocks):
    # both walk the same chunks; FCFS only adds the delay bookkeeping
    spec = NetworkSpec(eps, buffers)
    assert len(sim._runs(spec.buffers)) == blocks
    fb = sim.simulate_feedback(spec, 20_000, warmup=2_000, seed=5)
    fcfs = sim.simulate_delay_fcfs(spec, 20_000, warmup=2_000, seed=5)
    for key in ("packets_delivered", "throughput", "throughput_se"):
        assert getattr(fcfs, key) == getattr(fb, key), key
    assert fcfs.occupancy_counts.tolist() == fb.occupancy_counts.tolist()


@pytest.mark.parametrize("cap,blocks,epochs", [(sim._TABLE_CAP, 1, 10**5), (16, 2, 10**4)])
def test_feedback_memory_does_not_grow_with_epochs(cap, blocks, epochs, monkeypatch):
    # per-epoch records live for one chunk, so ten times the epochs cost no more
    # memory.  The line is small so that tracing stays cheap; a lowered cap
    # splits it to reach the walk across blocks, which runs fewer epochs
    # because tracing slows its inner loop about twentyfold.
    monkeypatch.setattr(sim, "_TABLE_CAP", cap)
    spec = NetworkSpec((0.3, 0.45, 0.5), (2, 2))
    assert len(sim._runs(spec.buffers)) == blocks
    peaks = []
    for run in (epochs, 10 * epochs):
        tracemalloc.start()
        try:
            sim.simulate_feedback(spec, run, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


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
    counts = joint_counts(spec, 400_000, 40_000, seed=2, stride=64)
    pi = emc.stationary(emc.build_emc(spec))
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
    net = sim.discretize(c)
    np.testing.assert_allclose(net.eps, (0.99, 0.997, 0.99701), atol=1e-12)
    assert net.buffers == (3, 3)


def test_discretize_rejects_coarse_step():
    with pytest.raises(SpecValidationError):
        sim.ContinuousSpec((10.0, 3.0), (3,), 0.2)


@pytest.mark.parametrize("bad", ["10", True, None, float("nan"), -1.0, 0.0])
def test_continuous_rates_must_be_positive_numbers(bad):
    # refused at construction, by the entry check NetworkSpec uses, not converted
    with pytest.raises(SpecValidationError, match=r"lambdas\[1\]"):
        sim.ContinuousSpec((10.0, bad, 3.0), (3, 3), 0.001)


def test_continuous_rates_of_numpy_numbers_accepted():
    c = sim.ContinuousSpec((np.float32(10.0), np.int64(3), 2.99), (3, 3), 0.001)
    assert c.lambdas == (10.0, 3.0, 2.99) and all(type(v) is float for v in c.lambdas)


@pytest.mark.parametrize("bad", ["0.001", True, None, float("nan"), float("inf"), 0.0, -0.001])
def test_continuous_tau_must_be_a_positive_finite_number(bad):
    with pytest.raises(SpecValidationError, match="tau"):
        sim.ContinuousSpec((10.0, 3.0), (3,), bad)


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
        net = sim.discretize(sim.ContinuousSpec((l1, l2, l3), (m1, m2), tau))
        vals.append(1 / tau * emc.capacity_exact(net))
    errs = [abs(v - ctmc_cap) for v in vals]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 6e-4
