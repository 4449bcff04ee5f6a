"""Drop-on-full approximate chain and the capacity sandwich bounds.

In the approximate chain a node acknowledges receipt rather than
storage, so a packet arriving at a full buffer is lost instead of
re-serviced.  Coupled to the exact chain on one channel stream, the
approximate occupancies never exceed the exact ones, which yields a
capacity lower bound.  Re-running the same drop-on-full chain with
prefix-summed buffer sizes dominates the exact chain in suffix-sum
order and yields the matching upper bound.  ``coupled_bounds_batch``
checks both couplings by simulation, stepping all three chains on one
channel stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emc import (
    SparseStochasticMatrix,
    _build_chain,
    capacity_exact,
    stationary,
    transfer_indicators_batch,
)
from .model import NetworkSpec, make_rng

__all__ = [
    "build_amc",
    "capacity_lower",
    "capacity_upper",
    "bounds",
    "prefix_sum_buffers",
    "coupled_bounds_batch",
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


def prefix_sum_buffers(buffers):
    """Buffer expansion used by the upper bound: running sums along the last axis.

    One network's buffers give a tuple of ints, a (K, h-1) batch an array.
    """
    sums = np.cumsum(buffers, axis=-1)
    return tuple(sums.tolist()) if sums.ndim == 1 else sums


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
# coupled-trajectory check
# ---------------------------------------------------------------------------

# occupancies recorded per chunk of epochs, over all three chains
_CHUNK_ELEMENTS = 1 << 16


def coupled_bounds_batch(
    eps: np.ndarray,
    buffers: np.ndarray,
    epochs: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Drive the exact and both drop-on-full chains on shared channel streams.

    ``eps`` is (K, h) and ``buffers`` (K, h-1); each of the K networks
    sees its own rows of one counter-based stream keyed by ``seed``.
    Returns ``(lower_ok, upper_ok)``, boolean vectors of length K.
    ``lower_ok`` is True iff the exact occupancies dominated those of
    the drop-on-full chain at every node and epoch.  ``upper_ok`` is
    True iff the drop-on-full chain with prefix-summed buffers held at
    least as many packets as the exact chain in every suffix of nodes,
    the destination's receipts included, at every epoch.

    Channel rows are drawn a chunk of epochs at a time and dominance is
    checked once per chunk; the walk stops once both vectors are all
    False.  Both relations only ever turn False, so this gives the same
    vectors as checking every epoch.
    """
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    buffers = np.atleast_2d(np.asarray(buffers, dtype=np.int64))
    K, n = buffers.shape
    m_drop = np.concatenate([buffers, prefix_sum_buffers(buffers)])
    chunk = max(1, _CHUNK_ELEMENTS // (3 * K * (n + 1)))
    # row 0 carries the last epoch of the previous chunk; each chain's
    # last column counts the destination's receipts
    exact = np.zeros((chunk + 1, K, n + 1), dtype=np.int64)
    drop = np.zeros((chunk + 1, 2 * K, n + 1), dtype=np.int64)
    lower_ok = np.ones(K, dtype=bool)
    upper_ok = np.ones(K, dtype=bool)
    rng = make_rng(seed)
    done = 0
    while done < epochs and (lower_ok.any() or upper_ok.any()):
        todo = min(chunk, epochs - done)
        xs = rng.random((todo, K, n + 1)) >= eps
        for t, x in enumerate(xs, 1):
            y = transfer_indicators_batch(exact[t - 1, :, :n], x, buffers)
            np.add(exact[t - 1], y, out=exact[t])
            exact[t, :, :n] -= y[:, 1:]
            prev = drop[t - 1]
            sent, stored = _drop(prev[:, :n], np.concatenate([x, x]), m_drop)
            drop[t, :, :n] = prev[:, :n] + stored - sent[:, 1:]
            drop[t, :, n] = prev[:, n] + sent[:, n]
        ex, low, up = exact[1:todo + 1], drop[1:todo + 1, :K], drop[1:todo + 1, K:]
        lower_ok &= np.all(ex[..., :n] >= low[..., :n], axis=(0, 2))
        suffix_up, suffix_ex = (np.cumsum(a[..., ::-1], axis=-1) for a in (up, ex))
        upper_ok &= np.all(suffix_up >= suffix_ex, axis=(0, 2))
        exact[0], drop[0] = exact[todo], drop[todo]
        done += todo
    return lower_ok, upper_ok
