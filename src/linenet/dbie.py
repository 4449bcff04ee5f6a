"""Distribution-based iterative capacity estimate.

Tracks the full inter-arrival distribution at each node instead of just
its rate.  Each node is a finite discrete queue with geometric service
thinned by memoryless downstream blocking; given a geometric-mixture
arrival distribution, the queue seen just after arrivals is a small
imbedded chain, from which follow the blocking probability, the
distribution of the starvation gap that precedes some departures, and
hence the inter-arrival mixture handed to the next node.  Forward
sweeps repeat until blocking probabilities settle; the capacity
estimate is the reciprocal mean inter-arrival time at the destination.

The imbedded chain moves up by at most one state per arrival, so its
stationary vector follows from the cut equations alone: a backward
recursion of O(m^2) sums and products of non-negative terms (the GTH
idea for a skip-free chain), with no matrix and no subtraction.

All mixture arithmetic runs in extended precision: weights of opposite
sign and magnitude 1e5 or far beyond must cancel to unit mass.  The
working precision escalates automatically when weight sums drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from mpmath import matrix, mp, mpf

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DegenerateDistributionError,
    SpecValidationError,
    TruncationError,
)
from .mixtures import GeometricMixture
from .model import NetworkSpec

__all__ = [
    "DistSolution",
    "effective_failure",
    "dj_distribution",
    "embedded_chain",
    "blocking_prob",
    "starvation_distribution",
    "upsilon",
    "solve",
    "capacity",
    "perturb_equal_eps",
]

DEFAULT_DPS = 50
_DJ_HARD_CAP = 100_000
# the D_j series stops once its mass is within _DJ_TAIL of 1
_DJ_TAIL = 1e-12
# tied erasure probabilities are separated by multiples of _PERTURB_DELTA
_PERTURB_DELTA = 1e-6
# a starvation fraction this far outside [0, 1] is rounding; beyond it, inconsistent
_ALPHA_SLACK = 1e-9


def effective_failure(theta, q):
    """Per-epoch probability that the head packet fails to depart.

    Departure needs a channel success and no downstream blocking, so
    the failure parameter is theta + (1 - theta) q.
    """
    theta = mpf(theta)
    q = mpf(q)
    return theta + (1 - theta) * q


def dj_distribution(g_in: GeometricMixture, theta_tilde) -> list[mpf]:
    """Distribution of potential departures during one inter-arrival gap.

    With per-epoch departure probability 1 - theta_tilde and an
    inter-arrival gap drawn from ``g_in``, the departure count is a
    mixture-weighted binomial thinning with the closed form

        D_j = ((1-tt)/tt)^j * sum_l p_l (1-t_l)/t_l *
              ((t_l tt)^j / (1 - t_l tt)^(j+1) - [j == 0])

    Truncated once the accumulated mass is within ``_DJ_TAIL`` of 1.
    """
    tt = mpf(theta_tilde)
    if not 0 < tt < 1:
        raise SpecValidationError(f"effective failure parameter {tt} outside (0, 1)")
    ratio = (1 - tt) / tt
    # per mixture term: its weight p_l (1-t_l)/t_l, the running product
    # ratio^j x_l^j / (1-x_l)^(j+1) (at j = 0 here), and the factor that
    # steps it from j to j + 1
    coef, power, step = [], [], []
    for p, t in g_in.terms:
        x = t * tt
        coef.append(p * (1 - t) / t)
        power.append(1 / (1 - x))
        step.append(ratio * x / (1 - x))
    out = [sum((c * (r - 1) for c, r in zip(coef, power)), mpf(0))]
    cum = out[0]
    for _ in range(_DJ_HARD_CAP):
        if 1 - cum < _DJ_TAIL:
            return out
        acc = mpf(0)
        for k, c in enumerate(coef):
            power[k] *= step[k]
            acc += c * power[k]
        out.append(acc)
        cum += acc
    if 1 - cum < _DJ_TAIL:
        return out
    raise TruncationError(
        f"departure-count series did not reach tail {_DJ_TAIL} within {_DJ_HARD_CAP} terms"
    )


def _stationary_from_d(d: list[mpf], m: int) -> tuple[list[mpf], mpf]:
    """Stationary distribution of the post-arrival occupancy chain on
    1..m, and the mass sum(d) of the series it was built from.

    From occupancy i the next post-arrival occupancy is k or lower iff
    at least i + 1 - k potential departures occur.  Across the cut
    between k and k + 1 the upward flow pi_k d_0 therefore balances the
    downward flow sum_{i>k} pi_i T(i + 1 - k), where T(x) = sum_{n>=x}
    d_n.  Setting pi_m = 1 and recursing down to pi_1 needs only sums
    and products of non-negative terms.
    """
    # suffix sums T(0..m), each a single addition from the tail up
    T = [mpf(0)] * (m + 1)
    acc = sum(d[m + 1:], mpf(0))
    for x in range(min(m, len(d) - 1), -1, -1):
        acc += d[x]
        T[x] = acc
    w = [mpf(0)] * (m + 1)
    w[m] = mpf(1)
    for k in range(m - 1, 0, -1):
        down = sum((w[i] * T[i + 1 - k] for i in range(k + 1, m + 1)), mpf(0))
        w[k] = down / d[0]
    total = sum(w, mpf(0))
    return [v / total for v in w[1:]], T[0]


def embedded_chain(g_in: GeometricMixture, m: int, theta_N, q):
    """Post-arrival occupancy chain of one node.

    Returns (P, pi) where P is the m-by-m transition matrix over
    occupancies 1..m sampled just after arrivals and pi its stationary
    distribution.
    """
    tt = effective_failure(theta_N, q)
    d = dj_distribution(g_in, tt)

    def dval(k: int) -> mpf:
        return d[k] if 0 <= k < len(d) else mpf(0)

    P = matrix(m, m)
    for i in range(1, m + 1):
        # all i packets drained before the next arrival
        P[i - 1, 0] += sum(d[i:], mpf(0))
        for j in range(2, m + 1):
            P[i - 1, j - 1] += dval(i + 1 - j)
        # a blocked arrival leaves a full queue full
        P[i - 1, m - 1] += dval(i - m)
    pi, _ = _stationary_from_d(d, m)
    return P, pi


def blocking_prob(g_in: GeometricMixture, m: int, theta_N, q) -> mpf:
    """Probability an arriving packet finds the node full.

    The arrival is blocked iff the queue was full at the previous
    arrival and nothing departed in between.
    """
    tt = effective_failure(theta_N, q)
    d = dj_distribution(g_in, tt)
    pi, _ = _stationary_from_d(d, m)
    return pi[m - 1] * d[0]


def _starvation_from_pi(g_in: GeometricMixture, pi: list[mpf], tt: mpf) -> GeometricMixture:
    """Mixture of the idle gap between a queue-emptying departure and the
    next arrival, conditioned on the gap being positive."""
    weights = []
    norm = mpf(0)
    for p, t in g_in.terms:
        ratio = t * (1 - tt) / (1 - t * tt)
        s, power = mpf(0), mpf(1)
        for v in pi:
            power *= ratio
            s += v * power
        w = p * s
        weights.append((w, t))
        norm += w
    if norm == 0:
        raise DegenerateDistributionError("starvation gap has no probability mass")
    return GeometricMixture(terms=tuple((w / norm, t) for w, t in weights))


def starvation_distribution(g_in: GeometricMixture, pi, theta_N, q) -> GeometricMixture:
    """Public wrapper on the residual-gap mixture (same parameters as g_in)."""
    tt = effective_failure(theta_N, q)
    return _starvation_from_pi(g_in, list(pi), tt)


@dataclass(frozen=True)
class _NodeAnalysis:
    blocking: mpf
    pi: list[mpf]
    truncated: mpf
    alpha: mpf
    ups: GeometricMixture
    g_out: GeometricMixture


def _analyze_node(g_in: GeometricMixture, m: int, theta_N, q) -> _NodeAnalysis:
    theta_N = mpf(theta_N)
    q = mpf(q)
    tt = effective_failure(theta_N, q)
    d = dj_distribution(g_in, tt)
    pi, mass = _stationary_from_d(d, m)
    blocking = pi[m - 1] * d[0]

    # flow balance pins the output mean: accepted inflow (1 - blocking)
    # per mean gap equals accepted outflow (1 - q) per output gap
    mean_out = g_in.mean() * (1 - q) / (1 - blocking)
    fx = _starvation_from_pi(g_in, pi, tt)
    alpha = (mean_out - 1 / (1 - theta_N)) / fx.mean()
    if alpha < -_ALPHA_SLACK or alpha > 1 + _ALPHA_SLACK:
        raise ConsistencyError(
            f"starvation fraction {float(alpha)} outside [0, 1]"
        )
    alpha = min(max(alpha, mpf(0)), mpf(1))
    ups = fx.scaled(alpha).plus(GeometricMixture.identity().scaled(1 - alpha))
    g_out = ups.convolve(GeometricMixture.geometric(theta_N))
    return _NodeAnalysis(
        blocking=blocking, pi=pi, truncated=1 - mass, alpha=alpha, ups=ups, g_out=g_out
    )


def upsilon(g_in: GeometricMixture, m: int, theta_N, q) -> tuple[GeometricMixture, mpf]:
    """Starvation component of the inter-departure transform.

    Returns the mixture (1 - alpha) at zero plus alpha times the
    starvation gap, together with alpha itself; convolving it with the
    service geometric gives the next node's inter-arrival mixture.
    """
    res = _analyze_node(g_in, m, theta_N, q)
    return res.ups, res.alpha


@dataclass
class DistSolution:
    """Converged state of the distribution sweeps.

    ``f[i]`` is the inter-arrival mixture at node v_{i+1} (f[h-1] at
    the destination), ``pb`` the blocking vector (pb[h-1] = 0),
    ``pi_embedded[j]`` the post-arrival occupancy distribution of
    intermediate node j over 1..m_j, and ``alpha[j]`` its starvation
    fraction.  ``truncated_mass`` is the largest departure-count mass
    1 - sum_j D_j cut off at any node in the final sweep.
    """

    f: list[GeometricMixture]
    pb: np.ndarray
    pi_embedded: list[np.ndarray]
    alpha: np.ndarray
    iterations: int
    residual: float
    dps: int
    eps_used: tuple[float, ...]
    perturbed: bool
    truncated_mass: float
    capacity_value: float = field(repr=False, default=float("nan"))


def perturb_equal_eps(eps) -> tuple[tuple[float, ...], bool]:
    """Separate coincident erasure probabilities by rank-ordered offsets.

    Capacity is continuous in the erasure vector, so a network with
    ties is approximated by one with each tied entry shifted by its
    occurrence rank times ``_PERTURB_DELTA`` (downward when near 1).
    """
    eps = list(float(e) for e in eps)
    seen: dict[float, int] = {}
    out = list(eps)
    perturbed = False
    for i, e in enumerate(eps):
        k = seen.get(e, 0)
        seen[e] = k + 1
        if k > 0:
            perturbed = True
            shifted = e + k * _PERTURB_DELTA
            if shifted >= 1.0:
                shifted = e - k * _PERTURB_DELTA
            out[i] = shifted
    if len(set(out)) != len(out):
        raise SpecValidationError("could not separate equal erasure probabilities")
    return tuple(out), perturbed


def _sweep_solve(
    eps: tuple[float, ...],
    buffers: tuple[int, ...],
    max_iter: int,
    tol: float,
    dps: int,
):
    h = len(eps)
    with mp.workdps(dps):
        th = [mpf(repr(e)) for e in eps]
        pb_read = [mpf(0)] * h
        f: list[GeometricMixture] = [None] * h  # type: ignore[list-item]
        pis: list = [None] * (h - 1)
        alphas: list = [mpf(0)] * (h - 1)
        residual = mpf("inf")
        for it in range(1, max_iter + 1):
            pb_write = list(pb_read)
            truncated = mpf(0)
            f[0] = GeometricMixture.geometric(th[0])
            for j in range(h - 1):
                res = _analyze_node(f[j], buffers[j], th[j + 1], pb_read[j + 1])
                f[j + 1] = res.g_out.compact()
                drift = abs(f[j + 1].weight_sum() - 1)
                if drift > mpf("1e-6"):
                    raise _PrecisionDrift(float(drift))
                pb_write[j] = res.blocking
                pis[j] = res.pi
                alphas[j] = res.alpha
                truncated = max(truncated, res.truncated)
            residual = max(abs(a - b) for a, b in zip(pb_write, pb_read))
            pb_read = pb_write
            if residual <= tol:
                break
        else:
            raise ConvergenceError(
                f"distribution sweeps did not converge: residual {float(residual):.3e}",
                residual=float(residual),
                iterations=max_iter,
            )
        cap = float(1 / f[h - 1].mean())
        pb = np.array([float(v) for v in pb_read])
        pi_arrays = [np.array([float(v) for v in p]) for p in pis]
        alpha = np.array([float(a) for a in alphas])
        return f, pb, pi_arrays, alpha, it, float(residual), float(truncated), cap


class _PrecisionDrift(Exception):
    def __init__(self, drift: float):
        super().__init__(f"mixture weight drift {drift:.3e}")
        self.drift = drift


def solve(
    spec: NetworkSpec,
    max_iter: int = 10**4,
    tol: float = 1e-10,
) -> DistSolution:
    """Run distribution sweeps to convergence of the blocking vector.

    Equal erasure probabilities are auto-perturbed (the mixture family
    needs distinct parameters).  The working precision is
    ``DEFAULT_DPS`` digits, deepened for long chains of near-equal
    parameters, and escalates automatically if weight sums drift.
    """
    eps_used, perturbed = perturb_equal_eps(spec.eps)
    gaps = np.diff(np.sort(np.asarray(eps_used)))
    # each hop can amplify weights by roughly the reciprocal parameter gap
    needed = 25 + int((spec.h - 1) * max(0.0, -np.log10(max(gaps.min(), 1e-300))))
    work_dps = max(DEFAULT_DPS, needed)
    attempts = 0
    while True:
        attempts += 1
        try:
            f, pb, pis, alpha, it, residual, truncated, cap = _sweep_solve(
                eps_used, spec.buffers, max_iter, tol, work_dps
            )
            break
        except _PrecisionDrift:
            if attempts >= 3 or work_dps >= 800:
                raise ConvergenceError(
                    "mixture weights lost unit mass even at extended precision"
                )
            work_dps *= 2
    return DistSolution(
        f=f,
        pb=pb,
        pi_embedded=pis,
        alpha=alpha,
        iterations=it,
        residual=residual,
        dps=work_dps,
        eps_used=eps_used,
        perturbed=perturbed,
        truncated_mass=truncated,
        capacity_value=cap,
    )


def capacity(sol: DistSolution) -> float:
    """Reciprocal mean inter-arrival time at the destination."""
    cap = sol.capacity_value
    if not np.isfinite(cap) or cap <= 0:
        raise ConsistencyError(f"non-positive capacity estimate {cap}")
    return cap
