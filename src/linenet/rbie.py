"""Rate-based iterative capacity estimate.

Each intermediate node is modeled as a birth-death queue fed at a
memoryless rate and blocked memorylessly by its downstream neighbour.
Forward sweeps propagate arrival rates downstream and blocking
probabilities upstream until the unique fixed point is reached; the
fixed point satisfies flow conservation, so the capacity estimate is
the conserved per-node storage rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ConvergenceError
from .model import NetworkSpec

__all__ = [
    "RateSolution",
    "local_params",
    "occupancy_phi",
    "solve",
    "capacity",
    "solve_batch",
]


def local_params(r: float, eps_next: float, pb_next: float) -> tuple[float, float, float]:
    """Birth-death parameters of one node's occupancy walk.

    ``alpha`` is the up-rate from a non-empty state (arrival while the
    head packet fails to leave, where leaving needs both a channel
    success and no downstream blocking), ``beta`` the down-rate (no
    arrival, head packet leaves), and ``alpha0`` the up-rate from the
    empty state.
    """
    fail = eps_next + (1.0 - eps_next) * pb_next
    alpha = r * fail
    beta = (1.0 - r) * (1.0 - pb_next) * (1.0 - eps_next)
    return alpha, beta, r


def occupancy_phi(r: float, eps_next: float, pb_next: float, m: int) -> np.ndarray:
    """Steady-state occupancy distribution of the local birth-death walk.

    Computed by explicit partial sums so the alpha == beta case needs
    no special handling.  Degenerate limits: a node that can never
    drain (pb_next = 1) sits at full occupancy, a node that never
    receives (r = 0) stays empty.
    """
    alpha, beta, alpha0 = local_params(r, eps_next, pb_next)
    out = np.zeros(m + 1)
    if alpha0 == 0.0:
        out[0] = 1.0
        return out
    if beta == 0.0:
        out[m] = 1.0
        return out
    # unnormalized weights: w_0 = 1, w_k = alpha0 * alpha^(k-1) / beta^k
    w = np.empty(m + 1)
    w[0] = 1.0
    w[1] = alpha0 / beta
    for k in range(2, m + 1):
        w[k] = w[k - 1] * (alpha / beta)
        if w[k] > 1e280:
            w /= w[k]
    return w / w.sum()


@dataclass
class RateSolution:
    """Converged fixed point of the rate/blocking sweeps.

    ``r[i]`` is the arrival rate seen by node v_{i+1} (r[0] is the
    source output rate), ``pb[i]`` the blocking probability node
    v_{i+1} presents upstream (pb[h-1] = 0 for the destination), and
    ``phi[j]`` the occupancy distribution of intermediate node j.
    """

    r: np.ndarray
    pb: np.ndarray
    phi: list[np.ndarray]
    iterations: int
    residual: float
    history: list[tuple[np.ndarray, np.ndarray]] | None = field(default=None, repr=False)

    def occupancy_means(self) -> np.ndarray:
        return np.array([float(np.arange(len(p)) @ p) for p in self.phi])


def solve(
    spec: NetworkSpec,
    max_iter: int = 10**5,
    tol: float = 1e-12,
    pb_init: float | np.ndarray = 0.0,
    keep_history: bool = False,
) -> RateSolution:
    """Run forward sweeps to the unique rate/blocking fixed point.

    One sweep walks nodes source-to-destination: it first emits the new
    downstream rate, then refreshes the node's blocking probability for
    the next sweep.  Sweeps stop when the joint max-norm change of
    (r, pb) is at most ``tol``.
    """
    h = spec.h
    m = spec.buffers
    r = np.zeros(h)
    pb_read = np.zeros(h) + pb_init
    pb_read[h - 1] = 0.0
    r[0] = 1.0 - spec.eps[0]
    history: list | None = [] if keep_history else None
    residual = np.inf
    for it in range(1, max_iter + 1):
        r_old = r.copy()
        pb_old = pb_read.copy()
        pb_write = pb_read.copy()
        for j in range(h - 1):
            e = spec.eps[j + 1]
            q = pb_read[j + 1]
            phi = occupancy_phi(r[j], e, q, m[j])
            r[j + 1] = (1.0 - e) * (1.0 - float(phi[0]))
            pb_write[j] = (e + (1.0 - e) * q) * float(phi[m[j]])
        pb_read = pb_write
        if history is not None:
            history.append((r.copy(), pb_read.copy()))
        residual = max(
            float(np.max(np.abs(r - r_old))), float(np.max(np.abs(pb_read - pb_old)))
        )
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"rate sweeps did not converge: residual {residual:.3e}",
            residual=residual,
            iterations=max_iter,
        )
    phi = [occupancy_phi(r[j], spec.eps[j + 1], pb_read[j + 1], m[j]) for j in range(h - 1)]
    return RateSolution(
        r=r, pb=pb_read, phi=phi, iterations=it, residual=residual, history=history
    )


def capacity(sol: RateSolution) -> float:
    """Conserved storage rate r_i (1 - pb_i); any node gives the same value."""
    flows = sol.r * (1.0 - sol.pb)
    if float(flows.max() - flows.min()) > 1e-6:
        raise ConsistencyError(
            f"flow conservation violated in rate solution: spread {flows.max() - flows.min():.3e}"
        )
    return float(flows[-1])


# ---------------------------------------------------------------------------
# vectorized evaluation over many buffer allocations
# ---------------------------------------------------------------------------

def _geom_sum(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_{l=0}^{m-1} x^l, stable near x = 1 (series in x - 1 there)."""
    d = x - 1.0
    near = np.abs(d) < 1e-6
    xs = np.where(near, 2.0, x)
    closed = (np.power(xs, m) - 1.0) / (xs - 1.0)
    series = m * (
        1.0 + d * (m - 1) / 2.0 + d * d * (m - 1) * (m - 2) / 6.0
    )
    return np.where(near, series, closed)


def _weighted_geom_sum(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_{k=1}^{m} k x^k, stable near x = 1 (series in x - 1 there)."""
    d = x - 1.0
    near = np.abs(d) < 1e-4
    xs = np.where(near, 2.0, x)
    closed = xs * (1.0 - (m + 1) * np.power(xs, m) + m * np.power(xs, m + 1)) / (xs - 1.0) ** 2
    sum_k2 = m * (m + 1) * (2 * m + 1) / 6.0
    sum_k3 = (m * (m + 1) / 2.0) ** 2
    series = m * (m + 1) / 2.0 + d * sum_k2 + d * d * (sum_k3 - sum_k2) / 2.0
    return np.where(near, series, closed)


def solve_batch(
    eps,
    buffers: np.ndarray,
    max_iter: int = 10**5,
    tol: float = 1e-10,
) -> dict:
    """Fixed point for many buffer allocations of one erasure profile.

    ``buffers`` is (K, h-1).  Returns capacity, rates, blocking
    probabilities and per-node occupancy means as arrays.  Geometric
    sums use closed forms with series guards near ratio 1; exact
    partial-sum arithmetic is available through :func:`solve` for
    final re-scoring.
    """
    eps = np.asarray(eps, dtype=float)
    buffers = np.asarray(buffers, dtype=float)
    K, n = buffers.shape
    h = n + 1
    r = np.zeros((K, h))
    pb = np.zeros((K, h))
    r[:, 0] = 1.0 - eps[0]
    for it in range(1, max_iter + 1):
        r_old = r.copy()
        pb_old = pb.copy()
        pb_new = pb.copy()
        for j in range(h - 1):
            e = eps[j + 1]
            q = pb[:, j + 1]
            m = buffers[:, j]
            fail = e + (1.0 - e) * q
            alpha = r[:, j] * fail
            beta = (1.0 - r[:, j]) * (1.0 - q) * (1.0 - e)
            x = alpha / beta
            s = _geom_sum(x, m)
            phi0 = 1.0 / (1.0 + (r[:, j] / beta) * s)
            phim = phi0 * (r[:, j] / beta) * np.power(x, m - 1)
            r[:, j + 1] = (1.0 - e) * (1.0 - phi0)
            pb_new[:, j] = fail * phim
        pb = pb_new
        residual = max(
            float(np.max(np.abs(r - r_old))), float(np.max(np.abs(pb - pb_old)))
        )
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"batch rate sweeps did not converge: residual {residual:.3e}",
            residual=residual,
            iterations=max_iter,
        )

    occupancy_mean = np.empty((K, n))
    for j in range(h - 1):
        e = eps[j + 1]
        q = pb[:, j + 1]
        m = buffers[:, j]
        fail = e + (1.0 - e) * q
        alpha = r[:, j] * fail
        beta = (1.0 - r[:, j]) * (1.0 - q) * (1.0 - e)
        x = alpha / beta
        s = _geom_sum(x, m)
        phi0 = 1.0 / (1.0 + (r[:, j] / beta) * s)
        occupancy_mean[:, j] = phi0 * (r[:, j] / alpha) * _weighted_geom_sum(x, m)

    cap = r[:, -1] * (1.0 - pb[:, -1])
    return {
        "capacity": cap,
        "r": r,
        "pb": pb,
        "occupancy_mean": occupancy_mean,
        "mean_delay": occupancy_mean.sum(axis=1) / cap,
        "iterations": it,
    }
