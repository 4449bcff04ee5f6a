"""Buffer-allocation search over a total-budget constraint.

Scores candidate buffer vectors with the fast rate-based estimate
(vectorized across candidates), either exhaustively over all
compositions of the budget or by a neighborhood descent seeded at the
balanced split when the composition count is too large.  Each
candidate is swept once, and all are ranked by one total order:
capacity to a resolution of 1e-10, then mean delay, then the buffer
vector (``min-delay`` puts reaching the floor first and capacity after
delay).  The winners are reported with those scores; the first few also
with the distribution-based estimate, and those with at most
``emc.OPTIONAL_STATE_CAP`` states with the exact solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import dbie, emc, rbie
from .errors import SpecValidationError
from .model import NetworkSpec

__all__ = ["allocate"]

EXHAUSTIVE_LIMIT = 10**5
# winners, best first, that are also scored by the distribution-based estimate
_DBIE_RESCORED = 3
# Every candidate is swept to this tolerance once; its capacity is the one reported.
_SWEEP_TOL = 1e-12
# Capacities that round to the same multiple of this rank as equal.  It
# is coarser than the error of a sweep at tol 1e-10, so neither solver
# error nor float rounding picks among saturated ties (notes/decisions.md).
_CAPACITY_RESOLUTION = 1e-10


@dataclass
class Candidate:
    buffers: tuple[int, ...]
    capacity: float
    mean_delay: float
    capacity_dbie: float | None = None
    capacity_exact: float | None = None


@dataclass
class AllocationResult:
    objective: str
    budget: int
    floor: float | None
    method: str
    best: Candidate
    runners_up: list[Candidate] = field(default_factory=list)
    evaluated: int = 0


def compositions_at_most(total: int, parts: int) -> np.ndarray:
    """All positive integer vectors of the given length summing to <= total,
    in lexicographic order.

    Their partial sums are the increasing ``parts``-subsets of 1..total,
    which ``itertools.combinations`` lists in the same order.
    """
    sums = np.array(list(combinations(range(1, total + 1), parts)), dtype=np.int64)
    return np.diff(sums.reshape(-1, parts), axis=1, prepend=0)


def _ranking(objective, cands, caps, delays, floor) -> np.ndarray:
    """Row indices of ``cands`` from best to worst, in one total order.

    Capacities are compared on a grid of ``_CAPACITY_RESOLUTION``: two
    rows whose capacities round to the same multiple count as equal.
    ``max-throughput`` ranks higher capacity first, then lower delay;
    ``min-delay`` ranks rows that reach ``floor`` first, then lower
    delay among those, then higher capacity.  Remaining ties go to the
    lexicographically smaller buffer vector, so the order depends only
    on the rows, not on where they stand.
    """
    grid = -np.round(caps / _CAPACITY_RESOLUTION)
    if objective == "max-throughput":
        keys = (delays, grid)
    elif objective == "min-delay":
        if floor is None:
            raise SpecValidationError("min-delay objective needs a throughput floor")
        feasible = caps >= floor
        keys = (grid, np.where(feasible, delays, np.inf), ~feasible)
    else:
        raise SpecValidationError(f"unknown objective {objective!r}")
    return np.lexsort((*cands.T[::-1], *keys))


def allocate(
    eps,
    budget: int,
    objective: str = "max-throughput",
    floor: float | None = None,
    top: int = 10,
) -> AllocationResult:
    """Pick the buffer vector optimizing the objective within the budget.

    ``max-throughput`` maximizes the rate-based capacity estimate;
    ``min-delay`` minimizes the estimated mean delay among vectors
    whose capacity estimate reaches ``floor``.  Candidates are ranked
    by :func:`_ranking` and the first ``top`` reported; the best
    ``_DBIE_RESCORED`` also get distribution-based estimates, and exact
    capacities are attached up to ``emc.OPTIONAL_STATE_CAP`` states.  The
    search is exhaustive when comb(budget, parts) <= ``EXHAUSTIVE_LIMIT``
    and a neighborhood descent otherwise.
    """
    # the one check of eps, made before any sweep
    eps = NetworkSpec(eps, (1,) * (len(eps) - 1)).eps
    parts = len(eps) - 1
    if budget < parts:
        raise SpecValidationError(
            f"budget {budget} cannot give every one of {parts} nodes a slot"
        )

    # comb(budget, parts) positive vectors have sum <= budget
    if comb(budget, parts) <= EXHAUSTIVE_LIMIT:
        method = "exhaustive"
        cands = compositions_at_most(budget, parts)
        scores = _scores(eps, cands)
    else:
        method = "neighborhood"
        cands, scores = _neighborhood_search(eps, budget, objective, floor)

    caps, delays = scores["capacity"], scores["mean_delay"]
    picked = _ranking(objective, cands, caps, delays, floor)[: max(top, 1)]
    if objective == "min-delay" and not caps[picked[0]] >= floor:
        raise SpecValidationError(
            f"no allocation within budget reaches the floor {floor}"
        )
    ranked = [
        Candidate(buffers=tuple(int(v) for v in cands[i]), capacity=float(caps[i]), mean_delay=float(delays[i]))
        for i in picked
    ]

    for i, cand in enumerate(ranked):
        spec = NetworkSpec(eps, cand.buffers)
        if i < _DBIE_RESCORED:
            cand.capacity_dbie = dbie.capacity(dbie.solve(spec))
        if spec.num_states <= emc.OPTIONAL_STATE_CAP:
            cand.capacity_exact = emc.capacity_exact(spec)

    return AllocationResult(
        objective=objective,
        budget=budget,
        floor=floor,
        method=method,
        best=ranked[0],
        runners_up=ranked[1:],
        evaluated=cands.shape[0],
    )


def _neighborhood_search(eps, budget, objective, floor):
    """Coordinate-transfer descent from the balanced split.

    Each step scores the unseen transfers of 1, 2, 4 or 8 slots from one
    node to another and moves to whichever of them and the current
    vector ranks first; it stops when the current vector stays first.
    Returns every scored row with its scores.
    """
    parts = len(eps) - 1
    current = np.full(parts, budget // parts, dtype=np.int64)
    current[: budget - int(current.sum())] += 1
    cands = current[None, :]
    scores = _scores(eps, cands)
    seen = {tuple(current)}
    at = 0  # row of the current vector
    while True:
        moves = []
        for i in range(parts):
            for j in range(parts):
                for step in (1, 2, 4, 8):
                    move = cands[at].copy()
                    move[i] -= step
                    move[j] += step
                    if i != j and move[i] >= 1 and tuple(move) not in seen:
                        seen.add(tuple(move))
                        moves.append(move)
        if not moves:
            return cands, scores
        n, new = cands.shape[0], _scores(eps, moves)
        cands = np.concatenate([cands, moves])
        scores = {k: np.concatenate([scores[k], new[k]]) for k in scores}
        rows = np.r_[at, n : n + len(moves)]
        first = rows[_ranking(objective, cands[rows], scores["capacity"][rows], scores["mean_delay"][rows], floor)[0]]
        if first == at:
            return cands, scores
        at = first


def _scores(eps, cands) -> dict:
    """Rate-based capacity and mean delay of each row."""
    out = rbie.solve_batch(eps, np.asarray(cands), tol=_SWEEP_TOL)
    return {k: out[k] for k in ("capacity", "mean_delay")}
