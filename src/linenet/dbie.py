"""Distribution-based iterative capacity estimate.

Tracks the full inter-arrival distribution at each node instead of just
its rate.  Each node is a finite discrete queue with geometric service
thinned by memoryless downstream blocking; given a phase-type arrival
gap, the queue seen just after arrivals is a small imbedded chain, from
which follow the blocking probability, the distribution of the
starvation gap that precedes some departures, and hence the
inter-arrival gap handed to the next node.  Forward sweeps repeat until
blocking probabilities settle; the capacity estimate is the reciprocal
mean inter-arrival time at the destination.

The imbedded chain moves up by at most one state per arrival, so its
stationary vector follows from the cut equations alone: a backward
recursion of O(m^2) sums and products of non-negative terms (the GTH
idea for a skip-free chain), with no matrix and no subtraction.  The
cut equations read D_0 and the tails T(x) = sum_{n>=x} D_n of the
departure count for x <= m only, and for a phase-type gap those have a
closed form, so no series is summed and nothing is truncated;
``DistSolution.truncated_mass`` keeps its name and reports the largest
mass defect |1 - D_0 - T(1)| over the nodes, which is rounding alone.

Gaps are phase-type (alpha, T) with T upper triangular (see
``mixtures``); every step below is a sum or product of non-negative
terms, so it runs in double precision, and equal erasure probabilities
need no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DegenerateDistributionError,
    SpecValidationError,
)
from .mixtures import GeometricMixture
from .model import NetworkSpec, effective_failure

__all__ = ["solve", "capacity"]

# a starvation fraction this far outside [0, 1] is rounding; beyond it, inconsistent
_ALPHA_SLACK = 1e-9
# decimal digits that float64 carries, reported as the working precision
_DPS = np.finfo(float).precision
# sweeps allowed before a line counts as not converging
_MAX_SWEEPS = 10**4


def _solve_upper(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for upper-triangular a, by LAPACK's back substitution."""
    x, info = dtrtrs(a, b)
    if info:
        raise ConsistencyError(f"triangular solve failed: LAPACK info {info}")
    return x


def _stationary_from_tails(d0: float, tails: np.ndarray) -> np.ndarray:
    """Stationary distribution of the post-arrival occupancy chain on
    1..m, from D_0 and the tails ``tails[x - 1]`` = T(x) = sum_{n>=x} D_n,
    x = 1..m.

    From occupancy i the next post-arrival occupancy is k or lower iff
    at least i + 1 - k potential departures occur.  Across the cut
    between k and k + 1 the upward flow pi_k D_0 therefore balances the
    downward flow sum_{i>k} pi_i T(i + 1 - k).  Setting pi_m = 1 and
    recursing down to pi_1 needs only sums and products of non-negative
    terms, one dot product per level.  When a level exceeds 1, the
    levels found so far are divided by a power of two, which rounds
    nothing, so that none of them overflows.
    """
    m = tails.size
    w = np.zeros(m + 1)
    w[m] = 1.0
    for k in range(m - 1, 0, -1):
        w[k] = w[k + 1 :] @ tails[1 : m + 1 - k] / d0
        if w[k] > 1.0:
            w[k:] = np.ldexp(w[k:], -math.frexp(w[k])[1])
    return w[1:] / w[1:].sum()


@dataclass(frozen=True)
class _NodeAnalysis:
    """Everything one node's post-arrival occupancy chain gives.

    ``d0`` is the probability D_0 that nothing departs during an
    inter-arrival gap and ``tails[x - 1]`` the probability T(x) that at
    least x potential departures occur, x = 1..m.  ``blocking`` is the
    probability that an arrival finds the node full: the queue was full
    at the previous arrival and nothing departed in between.  ``pi`` is
    the chain's stationary law over occupancies 1..m, ``starvation`` the
    idle gap before the next arrival (same phases as the input gap), and
    ``alpha`` the fraction of departures that wait for it.  The output
    gap ``g_out`` is 0 with probability 1 - alpha, otherwise the
    starvation gap, followed by the service geometric.
    """

    d0: float
    tails: np.ndarray
    blocking: float
    pi: np.ndarray
    alpha: float
    starvation: GeometricMixture
    g_out: GeometricMixture


def _analyze_node(g_in: GeometricMixture, m: int, theta_N, q) -> _NodeAnalysis:
    """One node behind the input gap PH(alpha, T), from one inverse.

    Each epoch of the gap brings a potential departure with probability
    1 - tt, tt the effective failure parameter.  With inv = (I - tt T)^-1,
    M = (1 - tt) T inv steps from one departure to the next, and the rows
    alpha M^v (v = 0..m) give both the tails T(x) = (1 - tt) alpha
    M^(x-1) inv 1 and the starvation weights beta, proportional to
    sum_v pi_v alpha M^v; D_0 = tt alpha inv t0.  I - tt T is upper
    triangular with a positive diagonal and non-positive entries above
    it, so inv is non-negative and every term is a sum or product of
    non-negative ones.  One more solve, (I - T)^-1 1, gives the means of
    the input and the starvation gap.
    """
    tt = float(effective_failure(theta_N, q))
    if not 0 < tt < 1:
        raise SpecValidationError(f"effective failure parameter {tt} outside (0, 1)")
    bad = [name for name in ("alpha", "T", "atom0") if not np.isfinite(getattr(g_in, name)).all()]
    if bad:
        raise ConsistencyError(f"inter-arrival gap has non-finite {' and '.join(bad)}")
    a, T = g_in.alpha, g_in.T
    eye = np.eye(a.size)
    inv = _solve_upper(eye - tt * T, eye)
    M = (1 - tt) * (T @ inv)
    rows = np.empty((m + 1, a.size))
    rows[0] = a
    for v in range(m):
        rows[v + 1] = rows[v] @ M
    d0 = tt * float(a @ inv @ g_in.exit)
    tails = (1 - tt) * (rows[:m] @ inv.sum(axis=1))
    pi = _stationary_from_tails(d0, tails)
    blocking = float(pi[-1] * d0)

    beta = pi @ rows[1:]
    norm = beta.sum()
    if norm == 0:
        raise DegenerateDistributionError("starvation gap has no probability mass")
    fx = GeometricMixture(beta / norm, T, 0.0)
    to_exit = _solve_upper(eye - T, np.ones(a.size))
    # flow balance pins the output mean: accepted inflow (1 - blocking)
    # per mean gap equals accepted outflow (1 - q) per output gap
    mean_out = float(a @ to_exit) * (1 - q) / (1 - blocking)
    alpha = (mean_out - 1 / (1 - theta_N)) / float(fx.alpha @ to_exit)
    # written so that a NaN fraction is rejected too
    if not -_ALPHA_SLACK <= alpha <= 1 + _ALPHA_SLACK:
        raise ConsistencyError(f"starvation fraction {alpha} outside [0, 1]")
    alpha = min(max(alpha, 0.0), 1.0)
    ups = GeometricMixture(alpha * fx.alpha, T, 1 - alpha)
    g_out = ups.convolve(GeometricMixture.geometric(theta_N))
    return _NodeAnalysis(
        d0=d0, tails=tails, blocking=blocking, pi=pi, alpha=alpha, starvation=fx, g_out=g_out
    )


@dataclass
class DistSolution:
    """Converged state of the distribution sweeps.

    ``f[i]`` is the inter-arrival gap at node v_{i+1} (f[h-1] at the
    destination), ``pb`` the blocking vector (pb[h-1] = 0),
    ``pi_embedded[j]`` the post-arrival occupancy distribution of
    intermediate node j over 1..m_j, and ``alpha[j]`` its starvation
    fraction.  ``truncated_mass`` is the largest mass defect
    |1 - D_0 - T(1)| of the departure count at any node in the final
    sweep, which is rounding alone, and ``dps`` the decimal digits of
    the float64 arithmetic.
    """

    f: list[GeometricMixture]
    pb: np.ndarray
    pi_embedded: list[np.ndarray]
    alpha: np.ndarray
    iterations: int
    residual: float
    dps: int
    truncated_mass: float
    capacity_value: float = field(repr=False, default=float("nan"))


def solve(spec: NetworkSpec, tol: float = 1e-10) -> DistSolution:
    """Run distribution sweeps to convergence of the blocking vector.

    A sweep whose blocking residual is not finite raises
    ``ConvergenceError`` at once.
    """
    h = spec.h
    pb_read = np.zeros(h)
    f: list[GeometricMixture] = [GeometricMixture.geometric(spec.eps[0])] * h
    pis: list[np.ndarray] = [np.ones(0)] * (h - 1)
    alphas = np.zeros(h - 1)
    for it in range(1, _MAX_SWEEPS + 1):
        pb_write = pb_read.copy()
        truncated = 0.0
        for j in range(h - 1):
            res = _analyze_node(f[j], spec.buffers[j], spec.eps[j + 1], pb_read[j + 1])
            f[j + 1] = res.g_out.compact()
            pb_write[j] = res.blocking
            pis[j] = res.pi
            alphas[j] = res.alpha
            truncated = max(truncated, abs(1 - res.d0 - res.tails[0]))
        residual = float(np.max(np.abs(pb_write - pb_read)))
        pb_read = pb_write
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"distribution sweep {it} gave blocking residual {residual}",
                residual=residual,
                iterations=it,
            )
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"distribution sweeps did not converge: residual {residual:.3e}",
            residual=residual,
            iterations=_MAX_SWEEPS,
        )
    return DistSolution(
        f=f,
        pb=pb_read,
        pi_embedded=pis,
        alpha=alphas,
        iterations=it,
        residual=residual,
        dps=_DPS,
        truncated_mass=truncated,
        capacity_value=1 / f[h - 1].mean(),
    )


def capacity(sol: DistSolution) -> float:
    """Reciprocal mean inter-arrival time at the destination."""
    cap = sol.capacity_value
    if not np.isfinite(cap) or cap <= 0:
        raise ConsistencyError(f"non-positive capacity estimate {cap}")
    return cap
