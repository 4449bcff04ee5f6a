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
idea for a skip-free chain), with no matrix and no subtraction.

Gaps are phase-type (alpha, T) with T upper triangular (see
``mixtures``); every step below is a sum or product of non-negative
terms, so it runs in double precision, and equal erasure probabilities
need no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DegenerateDistributionError,
    SpecValidationError,
    TruncationError,
)
from .mixtures import GeometricMixture
from .model import NetworkSpec, effective_failure

__all__ = ["dj_distribution", "solve", "capacity"]

_DJ_HARD_CAP = 100_000
# the D_j series stops once its mass is within _DJ_TAIL of 1
_DJ_TAIL = 1e-12
# a starvation fraction this far outside [0, 1] is rounding; beyond it, inconsistent
_ALPHA_SLACK = 1e-9
# decimal digits that float64 carries, reported as the working precision
_DPS = np.finfo(float).precision
# sweeps allowed before a line counts as not converging
_MAX_SWEEPS = 10**4


def _thinning(g: GeometricMixture, tt: float):
    """u, M, c and D_0 with D_j = u M^(j-1) c for j >= 1.

    Each epoch of the gap brings a potential departure with probability
    1 - tt.  Runs of epochs without one are summed by (I - tt T)^-1: u
    reaches the first departure, M = (1 - tt) T (I - tt T)^-1 steps from
    one departure to the next, and c = (1 - tt)(I - tt T)^-1 t0 ends the
    gap after the last.  I - tt T is upper triangular with a positive
    diagonal and non-positive entries above it, so its inverse is
    non-negative and back substitution adds only non-negative terms.
    """
    n = g.alpha.size
    inv = solve_triangular(np.eye(n) - tt * g.T, np.eye(n))
    t0 = g.exit
    u = g.alpha @ inv
    return u, (1 - tt) * (g.T @ inv), (1 - tt) * (inv @ t0), tt * float(u @ t0)


def dj_distribution(g_in: GeometricMixture, theta_tilde) -> np.ndarray:
    """Distribution of potential departures during one inter-arrival gap.

    With per-epoch departure probability 1 - theta_tilde and an
    inter-arrival gap PH(alpha, T), the departure count has
    D_0 = tt alpha (I - tt T)^-1 t0 and D_j = u M^(j-1) c (see
    ``_thinning``).  Truncated once the accumulated mass is within
    ``_DJ_TAIL`` of 1; a gap with a non-finite entry raises
    ConsistencyError before any term is summed.
    """
    tt = float(theta_tilde)
    if not 0 < tt < 1:
        raise SpecValidationError(f"effective failure parameter {tt} outside (0, 1)")
    bad = [name for name in ("alpha", "T", "atom0") if not np.isfinite(getattr(g_in, name)).all()]
    if bad:
        raise ConsistencyError(f"inter-arrival gap has non-finite {' and '.join(bad)}")
    u, M, c, d0 = _thinning(g_in, tt)
    out = [d0]
    cum = d0
    for _ in range(_DJ_HARD_CAP):
        if 1 - cum < _DJ_TAIL:
            return np.array(out)
        out.append(float(u @ c))
        cum += out[-1]
        u = u @ M
    if 1 - cum < _DJ_TAIL:
        return np.array(out)
    raise TruncationError(
        f"departure-count series did not reach tail {_DJ_TAIL} within {_DJ_HARD_CAP} terms"
    )


def _stationary_from_d(d: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """Stationary distribution of the post-arrival occupancy chain on
    1..m, and the mass sum(d) of the series it was built from.

    From occupancy i the next post-arrival occupancy is k or lower iff
    at least i + 1 - k potential departures occur.  Across the cut
    between k and k + 1 the upward flow pi_k d_0 therefore balances the
    downward flow sum_{i>k} pi_i T(i + 1 - k), where T(x) = sum_{n>=x}
    d_n.  Setting pi_m = 1 and recursing down to pi_1 needs only sums
    and products of non-negative terms, one dot product per level.  When
    a level exceeds 1, the levels found so far are divided by a power of
    two, which rounds nothing, so that none of them overflows.
    """
    suffix = np.cumsum(d[::-1])[::-1]
    tail = np.zeros(m + 1)
    tail[: min(m + 1, d.size)] = suffix[: m + 1]
    w = np.zeros(m + 1)
    w[m] = 1.0
    for k in range(m - 1, 0, -1):
        w[k] = w[k + 1 :] @ tail[2 : m + 2 - k] / d[0]
        if w[k] > 1.0:
            w[k:] = np.ldexp(w[k:], -math.frexp(w[k])[1])
    return w[1:] / w[1:].sum(), float(suffix[0])


def _starvation_from_pi(g_in: GeometricMixture, pi: np.ndarray, tt: float) -> GeometricMixture:
    """Idle gap between a queue-emptying departure and the next arrival,
    conditioned on the gap being positive: PH(beta, T) with
    beta proportional to sum_v pi_v alpha M^v."""
    _, M, _, _ = _thinning(g_in, tt)
    r = g_in.alpha
    beta = np.zeros(r.size)
    for v in pi:
        r = r @ M
        beta += v * r
    norm = beta.sum()
    if norm == 0:
        raise DegenerateDistributionError("starvation gap has no probability mass")
    return GeometricMixture(beta / norm, g_in.T, 0.0)


@dataclass(frozen=True)
class _NodeAnalysis:
    """Everything one node's post-arrival occupancy chain gives.

    ``blocking`` is the probability that an arrival finds the node full:
    the queue was full at the previous arrival and nothing departed in
    between.  ``pi`` is the chain's stationary law over occupancies
    1..m, ``truncated`` the departure-count mass cut off, ``starvation``
    the idle gap before the next arrival (same phases as the input gap),
    and ``alpha`` the fraction of departures that wait for it.  The
    output gap ``g_out`` is 0 with probability 1 - alpha, otherwise the
    starvation gap, followed by the service geometric.
    """

    blocking: float
    pi: np.ndarray
    truncated: float
    alpha: float
    starvation: GeometricMixture
    g_out: GeometricMixture


def _analyze_node(g_in: GeometricMixture, m: int, theta_N, q) -> _NodeAnalysis:
    tt = effective_failure(theta_N, q)
    d = dj_distribution(g_in, tt)
    pi, mass = _stationary_from_d(d, m)
    blocking = float(pi[m - 1] * d[0])

    # flow balance pins the output mean: accepted inflow (1 - blocking)
    # per mean gap equals accepted outflow (1 - q) per output gap
    mean_out = g_in.mean() * (1 - q) / (1 - blocking)
    fx = _starvation_from_pi(g_in, pi, tt)
    alpha = (mean_out - 1 / (1 - theta_N)) / fx.mean()
    # written so that a NaN fraction is rejected too
    if not -_ALPHA_SLACK <= alpha <= 1 + _ALPHA_SLACK:
        raise ConsistencyError(f"starvation fraction {alpha} outside [0, 1]")
    alpha = min(max(alpha, 0.0), 1.0)
    ups = GeometricMixture(alpha * fx.alpha, fx.T, 1 - alpha)
    g_out = ups.convolve(GeometricMixture.geometric(theta_N))
    return _NodeAnalysis(
        blocking=blocking, pi=pi, truncated=1 - mass, alpha=alpha, starvation=fx, g_out=g_out
    )


@dataclass
class DistSolution:
    """Converged state of the distribution sweeps.

    ``f[i]`` is the inter-arrival gap at node v_{i+1} (f[h-1] at the
    destination), ``pb`` the blocking vector (pb[h-1] = 0),
    ``pi_embedded[j]`` the post-arrival occupancy distribution of
    intermediate node j over 1..m_j, and ``alpha[j]`` its starvation
    fraction.  ``truncated_mass`` is the largest departure-count mass
    1 - sum_j D_j cut off at any node in the final sweep, and ``dps``
    the decimal digits of the float64 arithmetic.
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
            truncated = max(truncated, res.truncated)
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
