"""Drop-on-full approximate chain and the capacity sandwich bounds.

In the approximate chain a node acknowledges receipt rather than
storage, so a packet arriving at a full buffer is lost instead of
re-serviced.  Coupled to the exact chain on one channel stream, the
approximate occupancies never exceed the exact ones, which yields a
capacity lower bound.  Re-running the same drop-on-full chain with
prefix-summed buffer sizes dominates the exact chain in suffix-sum
order and yields the matching upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emc import (
    SparseStochasticMatrix,
    _build_chain,
    capacity_exact,
    stationary,
    step_emc_batch,
    transfer_indicators_batch,
)
from .model import NetworkSpec, make_rng

__all__ = [
    "BoundsResult",
    "step_amc_batch",
    "build_amc",
    "capacity_lower",
    "capacity_upper",
    "bounds",
    "prefix_sum_buffers",
    "coupled_boundedness_batch",
    "coupled_upper_batch",
]


def _drop(states: np.ndarray, x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop-on-full transfers for a batch of trajectories: ``(sent, stored)``.

    ``sent`` (K, h) marks a transmission on each link: it needs only the
    sender non-empty (the source always is) and a channel success.
    ``stored`` (K, h-1) marks the arrivals that found room at their
    receiver after its own departure; the others are dropped.
    """
    K, n = states.shape
    sent = np.empty((K, n + 1), dtype=states.dtype)
    sent[:, 0] = x[..., 0]
    sent[:, 1:] = x[..., 1:] * (states > 0)
    stored = sent[:, :-1] * ((m - states + sent[:, 1:]) > 0)
    return sent, stored


def step_amc_batch(states: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Vectorized drop-on-full step for a batch of trajectories (see _drop)."""
    sent, stored = _drop(states, x, m)
    return states + stored - sent[:, 1:]


def build_amc(spec: NetworkSpec) -> SparseStochasticMatrix:
    """Transition matrix of the drop-on-full chain (same state ordering)."""
    return _build_chain(spec, step_amc_batch)


def capacity_lower(spec: NetworkSpec, tol: float = 1e-12) -> float:
    """Capacity lower bound: delivery rate of the drop-on-full chain."""
    pi = stationary(build_amc(spec), tol=tol)
    return capacity_exact(spec, pi=pi)


def prefix_sum_buffers(buffers) -> tuple[int, ...]:
    """Buffer expansion used by the upper bound: running prefix sums."""
    out = []
    total = 0
    for m in buffers:
        total += m
        out.append(total)
    return tuple(out)


def capacity_upper(spec: NetworkSpec, tol: float = 1e-12) -> float:
    """Capacity upper bound: drop-on-full chain with prefix-summed buffers."""
    return capacity_lower(spec.with_buffers(prefix_sum_buffers(spec.buffers)), tol=tol)


# the three capacities come from separate stationary solves; this absorbs their error
_SANDWICH_SLACK = 1e-9


@dataclass(frozen=True)
class BoundsResult:
    """Lower/upper capacity bounds, optionally with the exact value.

    ``distinct_eps`` flags whether all erasure probabilities differ;
    the upper-bound construction is stated for distinct values, so
    non-distinct inputs are reported rather than refused.
    """

    lower: float
    upper: float
    exact: float | None = None
    distinct_eps: bool = True

    def sandwich_ok(self) -> bool:
        """lower <= exact <= upper, each up to ``_SANDWICH_SLACK``."""
        slack = _SANDWICH_SLACK
        if self.lower > self.upper + slack:
            return False
        if self.exact is None:
            return True
        return self.lower - slack <= self.exact <= self.upper + slack


def bounds(
    spec: NetworkSpec,
    tol: float = 1e-12,
    with_exact: bool = False,
) -> BoundsResult:
    """Compute both bounds, and the exact capacity when requested."""
    lo = capacity_lower(spec, tol=tol)
    hi = capacity_upper(spec, tol=tol)
    exact = capacity_exact(spec, tol=tol) if with_exact else None
    return BoundsResult(
        lower=lo,
        upper=hi,
        exact=exact,
        distinct_eps=len(set(spec.eps)) == len(spec.eps),
    )


# ---------------------------------------------------------------------------
# coupled-trajectory checks
# ---------------------------------------------------------------------------

def _sample_x(rng, eps: np.ndarray, K: int) -> np.ndarray:
    return (rng.random((K, eps.shape[-1])) >= eps).astype(np.int64)


def coupled_boundedness_batch(
    eps: np.ndarray,
    buffers: np.ndarray,
    epochs: int,
    seed: int,
    swap_roles: bool = False,
) -> np.ndarray:
    """Drive exact and drop-on-full chains on shared channel streams.

    ``eps`` is (K, h) and ``buffers`` (K, h-1); each of the K trials
    uses its own independent stream drawn from one counter-based
    generator keyed by ``seed``.  Returns a boolean vector: True iff
    the exact occupancies dominated the approximate ones at every node
    and epoch.  ``swap_roles`` inverts the comparison (a mutation that
    must fail quickly).
    """
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    buffers = np.atleast_2d(np.asarray(buffers, dtype=np.int64))
    K = eps.shape[0]
    rng = make_rng(seed)
    n_exact = np.zeros_like(buffers)
    n_approx = np.zeros_like(buffers)
    ok = np.ones(K, dtype=bool)
    for _ in range(epochs):
        x = _sample_x(rng, eps, K)
        n_exact = step_emc_batch(n_exact, x, buffers)
        n_approx = step_amc_batch(n_approx, x, buffers)
        if swap_roles:
            ok &= np.all(n_approx >= n_exact, axis=1)
        else:
            ok &= np.all(n_exact >= n_approx, axis=1)
        if not ok.any():
            break
    return ok


def coupled_upper_batch(
    eps: np.ndarray,
    buffers: np.ndarray,
    epochs: int,
    seed: int,
    expand_buffers: bool = True,
) -> np.ndarray:
    """Suffix-sum dominance of the expanded drop-on-full chain.

    Extends both chains with the destination's cumulative receipt
    count; the drop-on-full chain runs with prefix-summed buffers
    (unless ``expand_buffers`` is False, the mutation expected to
    fail).  True iff for every suffix the expanded chain holds at
    least as many packets at every epoch.
    """
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    buffers = np.atleast_2d(np.asarray(buffers, dtype=np.int64))
    K, n = buffers.shape
    exp = np.cumsum(buffers, axis=1) if expand_buffers else buffers.copy()
    rng = make_rng(seed)
    n_exact = np.zeros((K, n), dtype=np.int64)
    n_approx = np.zeros((K, n), dtype=np.int64)
    dest_exact = np.zeros(K, dtype=np.int64)
    dest_approx = np.zeros(K, dtype=np.int64)
    ok = np.ones(K, dtype=bool)
    for _ in range(epochs):
        x = _sample_x(rng, eps, K)
        y = transfer_indicators_batch(n_exact, x, buffers)
        n_exact = n_exact + y[:, :-1] - y[:, 1:]
        dest_exact += y[:, -1]

        sent, stored = _drop(n_approx, x, exp)
        dest_approx += sent[:, -1]
        n_approx = n_approx + stored - sent[:, 1:]

        ext_exact = np.concatenate([n_exact, dest_exact[:, None]], axis=1)
        ext_approx = np.concatenate([n_approx, dest_approx[:, None]], axis=1)
        suffix_exact = np.cumsum(ext_exact[:, ::-1], axis=1)
        suffix_approx = np.cumsum(ext_approx[:, ::-1], axis=1)
        ok &= np.all(suffix_approx >= suffix_exact, axis=1)
        if not ok.any():
            break
    return ok
