import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linenet import allocate, emc, rbie
from linenet.errors import SpecValidationError
from linenet.model import NetworkSpec


def test_compositions_enumeration():
    rows = allocate.compositions_at_most(5, 2)
    as_tuples = {tuple(r) for r in rows}
    assert (1, 1) in as_tuples and (4, 1) in as_tuples and (1, 4) in as_tuples
    assert all(sum(r) <= 5 and min(r) >= 1 for r in rows)
    assert len(as_tuples) == len(rows)
    # positive pairs with sum <= 5: sum_{s=2..5} (s-1) = 1+2+3+4
    assert len(rows) == 10


@pytest.fixture()
def no_dbie(monkeypatch):
    """No winner is rescored by dbie: these tests check the ranking alone."""
    monkeypatch.setattr(allocate, "_DBIE_RESCORED", 0)


@pytest.fixture()
def no_rescoring(no_dbie, monkeypatch):
    """Nor by the exact solve."""
    monkeypatch.setattr(emc, "OPTIONAL_STATE_CAP", 0)


def test_small_exhaustive_dominance(no_dbie):
    eps = (0.4, 0.5, 0.3)
    res = allocate.allocate(eps, 6, "max-throughput")
    # re-enumerate independently with the scalar solver
    best = None
    for rows in allocate.compositions_at_most(6, 2):
        spec = NetworkSpec(eps, tuple(int(v) for v in rows))
        cap = rbie.capacity(rbie.solve(spec))
        if best is None or cap > best[1]:
            best = (tuple(int(v) for v in rows), cap)
    assert res.best.buffers == best[0]
    assert res.best.capacity == pytest.approx(best[1], abs=1e-8)


def test_min_delay_requires_floor():
    with pytest.raises(SpecValidationError):
        allocate.allocate((0.5, 0.5, 0.5), 8, "min-delay")


def test_min_delay_floor_feasibility():
    with pytest.raises(SpecValidationError):
        allocate.allocate((0.5, 0.5, 0.5), 4, "min-delay", floor=0.9)


def test_budget_too_small():
    with pytest.raises(SpecValidationError):
        allocate.allocate((0.5, 0.5, 0.5), 1, "max-throughput")


def test_results_respect_budget_and_order(no_dbie):
    res = allocate.allocate((0.45, 0.5, 0.55), 9, "max-throughput")
    assert sum(res.best.buffers) <= 9
    caps = [res.best.capacity] + [r.capacity for r in res.runners_up]
    assert caps == sorted(caps, reverse=True)


def test_neighborhood_matches_exhaustive_small(no_dbie, monkeypatch):
    eps = (0.4, 0.5, 0.3)
    a = allocate.allocate(eps, 10, "max-throughput")
    # a limit below comb(10, 2) = 45 makes the same call search by descent
    monkeypatch.setattr(allocate, "EXHAUSTIVE_LIMIT", 0)
    b = allocate.allocate(eps, 10, "max-throughput")
    assert (a.method, b.method) == ("exhaustive", "neighborhood")
    assert a.best.buffers == b.best.buffers
    assert b.evaluated < a.evaluated


EPS_30 = (0.3, 0.5, 0.5, 0.2)
BUDGET_30_TOP = {
    "max-throughput": [(5, 21, 4), (6, 20, 4), (5, 20, 5), (6, 19, 5), (7, 19, 4),
                       (5, 22, 3), (6, 21, 3), (5, 20, 4), (6, 19, 4), (7, 20, 3)],
    "min-delay": [(4, 20, 6), (4, 20, 5), (4, 20, 4), (5, 18, 7), (5, 18, 6),
                  (5, 18, 5), (4, 21, 5), (5, 18, 4), (4, 21, 4), (5, 19, 6)],
}


@pytest.fixture(scope="module", params=sorted(BUDGET_30_TOP))
def budget_30(request):
    floor = 0.485 if request.param == "min-delay" else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocate, "_DBIE_RESCORED", 0)
        return allocate.allocate(EPS_30, 30, request.param, floor=floor)


def test_budget_30_winners_and_top_10_are_pinned(budget_30):
    ranked = [budget_30.best, *budget_30.runners_up]
    assert [c.buffers for c in ranked] == BUDGET_30_TOP[budget_30.objective]
    assert budget_30.evaluated == 4060


def test_reported_scores_are_the_single_line_solves_to_the_bit(budget_30):
    for cand in [budget_30.best, *budget_30.runners_up]:
        sol = rbie.solve(NetworkSpec(EPS_30, cand.buffers), tol=1e-12)
        cap = rbie.capacity(sol)
        assert cand.capacity == cap
        assert cand.mean_delay == sol.mean_delay
        assert sol.mean_delay == float(sol.occupancy_mean.sum()) / cap


def _winner(cands, caps, delays):
    return tuple(int(v) for v in cands[allocate._ranking("max-throughput", cands, caps, delays, None)[0]])


def test_saturated_winner_is_pinned_and_stable(no_rescoring):
    """Budget 447 on eps (0.3, 0.5, 0.2): some 72 000 rows reach capacity 0.5.

    Compared as raw floats, rounding in the last bits picks among those
    ties, so a 1e-13 change to the capacities moves the winner.  At the
    1e-10 resolution the ties rank by delay, and the winner (26, 18) is
    the same under +-1e-13 noise on every capacity and at sweep
    tolerances 1e-10, 1e-12 and 1e-13.
    """
    eps = (0.3, 0.5, 0.2)
    res = allocate.allocate(eps, 447)
    assert res.best.buffers == (26, 18)
    cands = allocate.compositions_at_most(447, 2)
    for tol in (1e-10, 1e-12, 1e-13):
        out = rbie.solve_batch(eps, cands, tol=tol)
        assert _winner(cands, out["capacity"], out["mean_delay"]) == (26, 18), tol
    assert int(np.sum(out["capacity"] == 0.5)) > 70_000
    for seed in range(6):
        noise = np.random.default_rng(seed).choice([-1e-13, 1e-13], size=cands.shape[0])
        assert _winner(cands, out["capacity"] + noise, out["mean_delay"]) == (26, 18), seed


@pytest.mark.parametrize(
    "eps, budget, objective, floor",
    [
        (EPS_30, 30, "max-throughput", None),
        (EPS_30, 30, "min-delay", 0.485),
        ((0.2, 0.4, 0.3, 0.5, 0.1), 200, "max-throughput", None),
    ],
)
def test_neighborhood_result_is_a_local_optimum(eps, budget, objective, floor, no_rescoring,
                                                monkeypatch):
    monkeypatch.setattr(allocate, "EXHAUSTIVE_LIMIT", 0)  # search by descent at every budget
    res = allocate.allocate(eps, budget, objective, floor=floor)
    assert res.method == "neighborhood"
    best = np.array(res.best.buffers)
    rows = [best]
    for i in range(best.size):
        for j in range(best.size):
            for step in (1, 2, 4, 8):
                move = best.copy()
                move[i] -= step
                move[j] += step
                if i != j and move[i] >= 1:
                    rows.append(move)
    cands = np.array(rows)
    out = rbie.solve_batch(eps, cands, tol=allocate._SWEEP_TOL)
    assert allocate._ranking(objective, cands, out["capacity"], out["mean_delay"], floor)[0] == 0


@st.composite
def ranking_inputs(draw):
    """Scored candidates of a small line, a floor among their capacities, and a row permutation."""
    h = draw(st.integers(2, 4))
    eps = draw(st.lists(st.floats(0.05, 0.95), min_size=h, max_size=h))
    cands = allocate.compositions_at_most(draw(st.integers(h - 1, h + 5)), h - 1)
    out = rbie.solve_batch(eps, cands, tol=1e-12)
    caps, delays = out["capacity"], out["mean_delay"]
    if draw(st.booleans()):
        # coarse ties, so the later keys and the buffer vectors decide
        caps, delays = np.round(caps, 2), np.round(delays, 0)
    floor = float(caps[draw(st.integers(0, caps.size - 1))])
    perm = np.array(draw(st.permutations(range(cands.shape[0]))))
    return cands, caps, delays, floor, perm


@given(ranking_inputs(), st.sampled_from(["max-throughput", "min-delay"]))
@settings(max_examples=60, deadline=None)
def test_ranking_does_not_depend_on_row_order(case, objective):
    cands, caps, delays, floor, perm = case
    ranked = cands[allocate._ranking(objective, cands, caps, delays, floor)]
    shuffled = cands[perm][allocate._ranking(objective, cands[perm], caps[perm], delays[perm], floor)]
    np.testing.assert_array_equal(ranked, shuffled)
