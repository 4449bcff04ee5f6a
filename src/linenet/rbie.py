"""Rate-based iterative capacity estimate.

Each intermediate node is modeled as a birth-death queue fed at a
memoryless rate and blocked memorylessly by its downstream neighbour.
Forward sweeps propagate arrival rates downstream and blocking
probabilities upstream until the unique fixed point is reached; the
fixed point satisfies flow conservation, so the capacity estimate is
the conserved per-node storage rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ConvergenceError
from .model import NetworkSpec, effective_failure

__all__ = ["solve", "capacity", "solve_batch"]

# sweeps allowed before a line counts as not converging
_MAX_SWEEPS = 10**5


def local_params(r: float, eps_next: float, pb_next: float) -> tuple[float, float, float]:
    """Birth-death parameters of one node's occupancy walk.

    ``alpha`` is the up-rate from a non-empty state (arrival while the
    head packet fails to leave, where leaving needs both a channel
    success and no downstream blocking), ``beta`` the down-rate (no
    arrival, head packet leaves), and ``alpha0`` the up-rate from the
    empty state.
    """
    alpha = r * effective_failure(eps_next, pb_next)
    beta = (1.0 - r) * (1.0 - pb_next) * (1.0 - eps_next)
    return alpha, beta, r


def occupancy_phi(r: float, eps_next: float, pb_next: float, m: int) -> np.ndarray:
    """Steady-state occupancy distribution of the local birth-death walk.

    States 1..m carry a geometric block with ratio alpha/beta, written
    with its largest weight 1: powers of y = min(alpha/beta, beta/alpha)
    counted up from state 1 when the walk falls and down from state m
    when it rises.  The empty state weighs beta/alpha0 times state 1.
    No term is a difference, so the alpha == beta case needs no special
    handling.  Degenerate limits: a node that can never drain
    (pb_next = 1) sits at full occupancy, a node that never receives
    (r = 0) stays empty.
    """
    alpha, beta, alpha0 = local_params(r, eps_next, pb_next)
    out = np.zeros(m + 1)
    if alpha0 == 0.0:
        out[0] = 1.0
        return out
    if beta == 0.0:
        out[m] = 1.0
        return out
    rising = alpha > beta
    block = (beta / alpha if rising else alpha / beta) ** np.arange(m)
    out[1:] = block[::-1] if rising else block
    out[0] = out[1] * beta / alpha0
    return out / out.sum()


def _geom_sums(y: np.ndarray, m: np.ndarray):
    """sum_{i<m} y^i, sum_{i<m} i y^i and y^(m-1) per row, for 0 <= y <= 1.

    The partial sums are built by doubling along the binary digits of
    m - 1, high digit first: the k terms summed so far are doubled to
    2k by appending a copy scaled by y^k, then term 2k is appended when
    the digit is set.  K rows cost O(K log max m) time and O(K) memory,
    and every step adds or multiplies nonnegative numbers, so nothing
    cancels near y = 1.
    """
    n = m - 1
    g, h, top = np.zeros_like(y), np.zeros_like(y), np.ones_like(y)  # over i < k; y^k
    for shift in range(int(n.max()).bit_length() - 1, -1, -1):
        k = n >> (shift + 1)
        h += top * (h + k * g)
        g += top * g
        top *= top
        bit = (n >> shift) & 1
        add = bit * top
        g += add
        h += 2 * k * add
        top = np.where(bit, top * y, top)
    return g + top, h + n * top, top


def _node_moments(r: np.ndarray, eps_next: float, pb_next: np.ndarray, m: np.ndarray):
    """(phi_0, phi_m, mean occupancy) of one node's walk on K lines at once.

    Row i is the walk of :func:`occupancy_phi` for rate ``r[i]``,
    downstream blocking ``pb_next[i]`` and buffer ``m[i]``, in the same
    normalization; the block's sums come from :func:`_geom_sums`, so no
    pmf is stored.
    """
    alpha, beta, alpha0 = local_params(r, eps_next, pb_next)
    rising = alpha > beta
    with np.errstate(divide="ignore", invalid="ignore"):
        g, h, top = _geom_sums(np.where(rising, beta / alpha, alpha / beta), m)
        empty = np.where(rising, top, 1.0) * beta / alpha0
        total = empty + g
        phi0 = empty / total
        phim = np.where(rising, 1.0, top) / total
        # state k holds y^(k-1) when falling, y^(m-k) when rising
        mean = np.where(rising, m * g - h, g + h) / total
    stuck = beta == 0.0
    if stuck.any():
        phi0[stuck], phim[stuck], mean[stuck] = 0.0, 1.0, m[stuck]
    idle = alpha0 == 0.0
    if idle.any():
        phi0[idle], phim[idle], mean[idle] = 1.0, 0.0, 0.0
    return phi0, phim, mean


def _sweep(eps, buffers: np.ndarray, r: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """One forward sweep over K lines: rates downstream, blocking upstream.

    ``r`` and ``pb`` are (K, h).  Walking source-to-destination, node j
    reads the rate its upstream neighbour emitted earlier in this sweep
    and the blocking its downstream neighbour presented in the previous
    sweep; it writes its emitted rate into ``r`` in place.  Returns the
    refreshed blocking probabilities (the destination's column is kept).
    """
    pb_new = pb.copy()
    for j in range(buffers.shape[1]):
        e, q = eps[j + 1], pb[:, j + 1]
        phi0, phim, _ = _node_moments(r[:, j], e, q, buffers[:, j])
        r[:, j + 1] = (1.0 - e) * (1.0 - phi0)
        pb_new[:, j] = effective_failure(e, q) * phim
    return pb_new


def _fixed_point(eps, buffers: np.ndarray, tol: float):
    """Sweep K lines from r = 0, pb = 0 to their rate/blocking fixed points.

    A line stops sweeping once one sweep changes its (r, pb) by at most
    ``tol`` in max-norm, so every row ends exactly where a solve of that
    line alone would.  Returns (r, pb, sweeps, residual), the last two
    the largest over the lines.
    """
    K, n = buffers.shape
    r = np.zeros((K, n + 1))
    pb = np.zeros((K, n + 1))
    r[:, 0] = 1.0 - eps[0]
    active = np.arange(K)
    residual = np.full(K, np.inf)
    for it in range(1, _MAX_SWEEPS + 1):
        r_act, pb_act = r[active], pb[active]
        pb_new = _sweep(eps, buffers[active], r_act, pb_act)
        residual[active] = np.maximum(
            np.max(np.abs(r_act - r[active]), axis=1), np.max(np.abs(pb_new - pb_act), axis=1)
        )
        r[active], pb[active] = r_act, pb_new
        active = active[residual[active] > tol]
        if active.size == 0:
            break
    else:
        worst = float(residual.max())
        raise ConvergenceError(
            f"rate sweeps did not converge: residual {worst:.3e}",
            residual=worst,
            iterations=_MAX_SWEEPS,
        )
    return r, pb, it, float(residual.max())


@dataclass
class RateSolution:
    """Converged fixed point of the rate/blocking sweeps.

    ``r[i]`` is the arrival rate seen by node v_{i+1} (r[0] is the
    source output rate), ``pb[i]`` the blocking probability node
    v_{i+1} presents upstream (pb[h-1] = 0 for the destination),
    ``phi[j]`` the occupancy distribution of intermediate node j,
    ``occupancy_mean[j]`` its mean, and ``mean_delay`` the total mean
    occupancy over the capacity (Little's law).
    """

    r: np.ndarray
    pb: np.ndarray
    phi: list[np.ndarray]
    occupancy_mean: np.ndarray
    mean_delay: float
    iterations: int
    residual: float


def _conserved_flow(r: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Storage rate r (1 - pb) at the destination of each line, along the last axis.

    The fixed point conserves flow, so every node stores at the same rate;
    a spread above 1e-6 along any line raises :class:`ConsistencyError`.
    """
    flows = r * (1.0 - pb)
    spread = float(np.max(flows.max(axis=-1) - flows.min(axis=-1)))
    if spread > 1e-6:
        raise ConsistencyError(f"flow conservation violated in rate solution: spread {spread:.3e}")
    return flows[..., -1]


def _derive(eps, buffers: np.ndarray, r: np.ndarray, pb: np.ndarray):
    """Capacity (the conserved flow), per-node mean occupancy and mean delay
    (total mean occupancy over capacity, Little's law) of K fixed points."""
    cap = _conserved_flow(r, pb)
    occupancy_mean = np.stack(
        [_node_moments(r[:, j], eps[j + 1], pb[:, j + 1], buffers[:, j])[2] for j in range(buffers.shape[1])],
        axis=1,
    )
    return cap, occupancy_mean, occupancy_mean.sum(axis=1) / cap


def solve(spec: NetworkSpec, tol: float = 1e-12) -> RateSolution:
    """Run forward sweeps to the unique rate/blocking fixed point of one line."""
    buffers = np.array([spec.buffers])
    r, pb, it, residual = _fixed_point(spec.eps, buffers, tol)
    _, occupancy_mean, mean_delay = _derive(spec.eps, buffers, r, pb)
    phi = [occupancy_phi(r[0, j], spec.eps[j + 1], pb[0, j + 1], m) for j, m in enumerate(spec.buffers)]
    return RateSolution(r=r[0], pb=pb[0], phi=phi, occupancy_mean=occupancy_mean[0],
                        mean_delay=float(mean_delay[0]), iterations=it, residual=residual)


def capacity(sol: RateSolution) -> float:
    """Conserved storage rate r_i (1 - pb_i); any node gives the same value."""
    return float(_conserved_flow(sol.r, sol.pb))


def solve_batch(eps, buffers: np.ndarray, tol: float = 1e-10) -> dict:
    """Fixed point for many buffer allocations of one erasure profile.

    ``buffers`` is (K, h-1).  The K lines are swept together, each row
    exactly as :func:`solve` sweeps and derives it, so a row reports what
    :func:`solve` of that line does, to the bit.  Returns capacity, rates,
    blocking probabilities, per-node occupancy means and mean delay as
    arrays, the number of sweeps and the largest final residual.
    """
    eps = tuple(float(e) for e in eps)
    buffers = np.asarray(buffers, dtype=np.int64)
    r, pb, it, residual = _fixed_point(eps, buffers, tol)
    cap, occupancy_mean, mean_delay = _derive(eps, buffers, r, pb)
    return {
        "capacity": cap,
        "r": r,
        "pb": pb,
        "occupancy_mean": occupancy_mean,
        "mean_delay": mean_delay,
        "iterations": it,
        "residual": residual,
    }
