"""Buffer-allocation search over a total-budget constraint.

Scores candidate buffer vectors with the fast rate-based estimate
(vectorized across candidates), either exhaustively over all
compositions of the budget or by a neighborhood descent seeded at the
balanced split when the composition count is too large.  The winners
are re-scored with the scalar solver; optionally also with the
distribution-based estimate and, at feasible sizes, the exact solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import dbie, emc, rbie
from .errors import SpecValidationError
from .model import NetworkSpec

__all__ = ["AllocationResult", "Candidate", "allocate", "compositions_at_most"]

EXHAUSTIVE_LIMIT = 10**5


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
    """All positive integer vectors of the given length summing to <= total."""
    rows: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining_parts: int, budget: int) -> None:
        if remaining_parts == 1:
            for v in range(1, budget + 1):
                rows.append(prefix + (v,))
            return
        for v in range(1, budget - remaining_parts + 2):
            rec(prefix + (v,), remaining_parts - 1, budget - v)

    rec((), parts, total)
    return np.asarray(rows, dtype=np.int64)


def _count_compositions(total: int, parts: int) -> int:
    # positive vectors with sum <= total
    return comb(total, parts)


def _objective_order(objective, caps, delays, floor):
    if objective == "max-throughput":
        keys = np.lexsort((delays, -caps))
        feasible = np.ones(caps.shape, dtype=bool)
    elif objective == "min-delay":
        if floor is None:
            raise SpecValidationError("min-delay objective needs a throughput floor")
        feasible = caps >= floor
        big = np.where(feasible, delays, np.inf)
        keys = np.lexsort((-caps, big))
    else:
        raise SpecValidationError(f"unknown objective {objective!r}")
    return keys, feasible


def allocate(
    eps,
    budget: int,
    objective: str = "max-throughput",
    floor: float | None = None,
    tol: float = 1e-10,
    method: str = "auto",
    top: int = 10,
    rescore_dbie: int = 3,
    rescore_exact_cap: int = 200_000,
) -> AllocationResult:
    """Pick the buffer vector optimizing the objective within the budget.

    ``max-throughput`` maximizes the rate-based capacity estimate;
    ``min-delay`` minimizes the estimated mean delay among vectors
    whose capacity estimate reaches ``floor``.  The top vectors are
    re-scored with the scalar sweeps; the best ``rescore_dbie`` also
    get distribution-based estimates, and exact capacities are attached
    when the state space is small enough.
    """
    eps = tuple(float(e) for e in eps)
    parts = len(eps) - 1
    if parts < 1:
        raise SpecValidationError("need at least 2 hops to allocate buffers")
    if budget < parts:
        raise SpecValidationError(
            f"budget {budget} cannot give every one of {parts} nodes a slot"
        )

    if method == "auto":
        method = (
            "exhaustive" if _count_compositions(budget, parts) <= EXHAUSTIVE_LIMIT
            else "neighborhood"
        )

    if method == "exhaustive":
        cands = compositions_at_most(budget, parts)
        out = rbie.solve_batch(eps, cands, tol=tol)
        caps, delays = out["capacity"], out["mean_delay"]
        evaluated = cands.shape[0]
    elif method == "neighborhood":
        cands, caps, delays = _neighborhood_search(eps, budget, objective, floor, tol)
        evaluated = cands.shape[0]
    else:
        raise SpecValidationError(f"unknown method {method!r}")

    order, feasible = _objective_order(objective, caps, delays, floor)
    if objective == "min-delay" and not feasible.any():
        raise SpecValidationError(
            f"no allocation within budget reaches the floor {floor}"
        )
    picked = order[: max(top, 1)]
    ranked = []
    for idx in picked:
        buffers = tuple(int(v) for v in cands[idx])
        sol = rbie.solve(NetworkSpec(eps, buffers), tol=1e-12)
        cap = rbie.capacity(sol)
        mean = float(sol.occupancy_means().sum()) / cap
        ranked.append(Candidate(buffers=buffers, capacity=cap, mean_delay=mean))

    for i, cand in enumerate(ranked):
        spec = NetworkSpec(eps, cand.buffers)
        if i < rescore_dbie:
            cand.capacity_dbie = dbie.capacity(dbie.solve(spec))
        if spec.num_states <= rescore_exact_cap:
            cand.capacity_exact = emc.capacity_exact(spec)

    return AllocationResult(
        objective=objective,
        budget=budget,
        floor=floor,
        method=method,
        best=ranked[0],
        runners_up=ranked[1:],
        evaluated=evaluated,
    )


def _neighborhood_search(eps, budget, objective, floor, tol):
    """Coordinate-transfer descent from the balanced split."""
    parts = len(eps) - 1
    base = np.full(parts, budget // parts, dtype=np.int64)
    for i in range(budget - int(base.sum())):
        base[i % parts] += 1

    def better(c_new, d_new, c_old, d_old):
        if objective == "max-throughput":
            return c_new > c_old + 1e-15
        ok_new = c_new >= floor
        ok_old = c_old >= floor
        if ok_new != ok_old:
            return ok_new
        if ok_new:
            return d_new < d_old - 1e-12
        return c_new > c_old + 1e-15

    seen: dict[tuple, tuple[float, float]] = {}

    def eval_many(arr):
        out = rbie.solve_batch(eps, arr, tol=tol)
        for row, c, d in zip(arr, out["capacity"], out["mean_delay"]):
            seen[tuple(int(v) for v in row)] = (float(c), float(d))
        return out

    current = base.copy()
    eval_many(current[None, :])
    cur_cap, cur_delay = seen[tuple(current)]
    improved = True
    while improved:
        improved = False
        moves = []
        for i in range(parts):
            for j in range(parts):
                if i == j:
                    continue
                for step in (1, 2, 4, 8):
                    if current[i] - step >= 1:
                        cand = current.copy()
                        cand[i] -= step
                        cand[j] += step
                        moves.append(cand)
        moves = [m for m in moves if tuple(m) not in seen]
        if moves:
            eval_many(np.stack(moves))
        best_move = None
        for m in moves:
            c, d = seen[tuple(m)]
            if better(c, d, cur_cap, cur_delay):
                if best_move is None or better(c, d, *seen[tuple(best_move)]):
                    best_move = m
        if best_move is not None:
            current = best_move
            cur_cap, cur_delay = seen[tuple(current)]
            improved = True

    all_cands = np.asarray(sorted(seen.keys()), dtype=np.int64)
    caps = np.array([seen[tuple(r)][0] for r in all_cands])
    delays = np.array([seen[tuple(r)][1] for r in all_cands])
    return all_cands, caps, delays
