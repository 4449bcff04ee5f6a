"""The references agree with each other, and every check rejects a perturbed value.

Run from the root of the repository:

    python3 -m pytest linebench/tests -q
"""

import pytest

import oracles
import workloads
from oracles import CheckFailed

FOUR = workloads.PAPER_FOUR_HOP


def test_two_hop_closed_form_matches_dense_chain():
    for e1, e2, m in ((0.3, 0.6, 1), (0.8, 0.15, 4), (0.5, 0.45, 9)):
        assert oracles.two_hop_capacity(e1, e2, m) == pytest.approx(
            oracles.dense_exact_capacity((e1, e2), (m,)), abs=1e-13)


def test_transfer_rule_blocks_on_full_receiver_unless_it_drains():
    # v_1 full, v_2 empty: both links succeed, so v_1 passes one on and takes one.
    assert oracles.transfer((2, 0), (1, 1, 1), (2, 2)) == (2, 1)
    # v_2 full and its link fails: v_1 cannot send.
    assert oracles.transfer((1, 2), (1, 1, 0), (2, 2)) == (2, 2)
    # v_2 full but it delivers: v_1's packet takes the freed slot.
    assert oracles.transfer((1, 2), (0, 1, 1), (2, 2)) == (0, 2)


def test_continuous_tandem_reference_figure():
    lambdas, buffers, _ = workloads.CONTINUOUS
    assert oracles.continuous_tandem_throughput(lambdas, buffers) == pytest.approx(2.24269, abs=5e-6)


def test_sparse_reference_matches_dense_reference():
    assert oracles.sparse_exact_capacity(*FOUR) == pytest.approx(oracles.dense_exact_capacity(*FOUR), abs=1e-13)


@pytest.mark.parametrize("spec", list(workloads.PINNED_CAPACITY))
def test_pinned_capacities_recompute(spec):
    assert oracles.sparse_exact_capacity(*spec) == pytest.approx(workloads.PINNED_CAPACITY[spec], abs=1e-12)


def test_two_hop_check_rejects_perturbed_capacity():
    ref = oracles.two_hop_capacity(0.3, 0.6, 5)
    oracles.check_close("c", ref + 5e-10, ref, 1e-9)
    with pytest.raises(CheckFailed):
        oracles.check_close("c", ref + 2e-9, ref, 1e-9)


def test_dense_check_rejects_perturbed_capacity():
    ref = oracles.dense_exact_capacity(*FOUR)
    tol = oracles.capacity_tolerance(216, 1e-10)
    oracles.check_close("c", 0.43512693734503805, ref, tol)
    with pytest.raises(CheckFailed):
        oracles.check_close("c", 0.43512693734503805 + 2 * tol, ref, tol)


def test_capacity_tolerance_follows_solver_tolerance():
    assert oracles.capacity_tolerance(216, 1e-12) == 1e-10
    assert oracles.capacity_tolerance(59049, 1e-12) == pytest.approx(1e-7)
    assert oracles.capacity_tolerance(59049, 1e-10) == pytest.approx(1e-5)
    with pytest.raises(CheckFailed):
        oracles.check_close("reversed", 0.4351269373 + 3e-10, 0.4351269373, oracles.capacity_tolerance(216, 1e-12))


@pytest.mark.parametrize("lower, exact, upper, cut", [
    (0.44, 0.435, 0.45, 0.5),   # lower above exact
    (0.43, 0.46, 0.45, 0.5),    # exact above upper
    (0.43, 0.435, 0.51, 0.5),   # upper above the min cut
])
def test_sandwich_rejects_each_disorder(lower, exact, upper, cut):
    oracles.check_sandwich(0.428, 0.435, 0.449, 0.5)
    with pytest.raises(CheckFailed):
        oracles.check_sandwich(lower, exact, upper, cut)


def test_flow_check_rejects_unequal_link_rates():
    oracles.check_flow(0.4666, [0.4666, 0.4666])
    with pytest.raises(CheckFailed):
        oracles.check_flow(0.46660106, [0.46660106, 0.46660084])


def test_allocation_checks_reject_perturbed_results():
    oracles.check_evaluated(4060, 30, 4)
    with pytest.raises(CheckFailed):
        oracles.check_evaluated(4059, 30, 4)
    oracles.check_max_throughput_winner((9, 12, 9), 0.4958, 30, 0.4950)
    with pytest.raises(CheckFailed):
        oracles.check_max_throughput_winner((9, 11, 9), 0.4958, 30, 0.4950)
    with pytest.raises(CheckFailed):
        oracles.check_max_throughput_winner((9, 12, 9), 0.4940, 30, 0.4950)
    oracles.check_floor(0.4851, 0.485)
    with pytest.raises(CheckFailed):
        oracles.check_floor(0.4849, 0.485)


def test_profile_little_check_rejects_three_percent():
    oracles.check_relative("m", 29.336, 29.336 * 1.019, 0.02)
    with pytest.raises(CheckFailed):
        oracles.check_relative("m", 29.336, 29.336 * 1.03, 0.02)


def test_continuous_check_rejects_perturbed_rate():
    ref = 2.2426908382258453
    oracles.check_relative("pps", 2.2444501568260073, ref, 0.005)
    with pytest.raises(CheckFailed):
        oracles.check_relative("pps", ref * 1.006, ref, 0.005)


def test_simulated_throughput_check_rejects_five_standard_errors():
    ref, se = 0.4351269373, 0.00036
    oracles.check_within_se("t", 0.43484, se, ref, 4.0)
    with pytest.raises(CheckFailed):
        oracles.check_within_se("t", ref + 5 * se, se, ref, 4.0)
    with pytest.raises(CheckFailed):
        oracles.check_within_se("t", ref, float("nan"), ref, 4.0)


def test_fcfs_checks_reject_perturbed_delay():
    occupancy = [[10, 30, 60], [40, 40, 20]]  # means 1.5 and 0.8 over 100 epochs
    oracles.check_sim_little(occupancy, 0.5, 4.6)
    with pytest.raises(CheckFailed):
        oracles.check_sim_little(occupancy, 0.5, 4.6 * 1.002)
    oracles.check_close("d", 29.56, 29.336, max(1.0, 4 * 0.07))
    with pytest.raises(CheckFailed):
        oracles.check_close("d", 30.5, 29.336, max(1.0, 4 * 0.07))


def test_netcod_checks_reject_perturbed_rates():
    exact = oracles.dense_exact_capacity(*workloads.CODED)
    oracles.check_close("q65536", 0.3600, exact, 1e-2)
    with pytest.raises(CheckFailed):
        oracles.check_close("q65536", exact - 0.011, exact, 1e-2)
    oracles.check_below_by_se("q2", 0.163, 0.0008, exact, 3.0)
    with pytest.raises(CheckFailed):
        oracles.check_below_by_se("q2", exact - 0.002, 0.0008, exact, 3.0)
