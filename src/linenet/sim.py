"""Monte-Carlo simulator of the exact feedback scheme.

Drives the per-epoch update rules directly: transfers are resolved
from the last intermediate node backwards, a packet leaves its sender
only on acknowledged storage, and queues are first-come first-serve.
Throughput and delay statistics come with batch-means standard errors;
runs are reproducible bit-for-bit from a counter-based seed.  A
continuous-time network with exponential service rates is analyzed by
discretizing time into epochs of length tau.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecValidationError
from .model import NetworkSpec, make_rng

__all__ = [
    "SimStats",
    "ContinuousSpec",
    "DiscretizedSpec",
    "simulate_feedback",
    "simulate_delay_fcfs",
    "discretize",
    "default_warmup",
]

_BLOCK = 1 << 10  # channel rows drawn at a time; any size gives the same draws


@dataclass
class SimStats:
    """Outcome of one simulation run."""

    spec: NetworkSpec
    epochs: int
    warmup: int
    seed: int
    packets_delivered: int
    throughput: float
    throughput_se: float
    occupancy_counts: np.ndarray = field(repr=False)
    joint_counts: np.ndarray | None = field(repr=False, default=None)
    joint_stride: int = 1
    delay_mean: float | None = None
    delay_se: float | None = None
    delay_var: float | None = None
    delay_counts: np.ndarray | None = field(repr=False, default=None)
    delay_samples: int = 0

    def occupancy_frequencies(self) -> np.ndarray:
        return self.occupancy_counts / self.occupancy_counts.sum(axis=1, keepdims=True)

    def to_obj(self) -> dict:
        out = {
            "spec": self.spec.to_dict(),
            "epochs": self.epochs,
            "warmup": self.warmup,
            "seed": self.seed,
            "packets_delivered": self.packets_delivered,
            "throughput": self.throughput,
            "throughput_se": self.throughput_se,
            "occupancy_counts": self.occupancy_counts.tolist(),
        }
        if self.delay_mean is not None:
            out.update(
                delay_mean=self.delay_mean,
                delay_se=self.delay_se,
                delay_var=self.delay_var,
                delay_samples=self.delay_samples,
            )
        return out


def default_warmup(epochs: int) -> int:
    """One tenth of the run or 10^4 epochs, whichever is larger (but
    never half the run or more; buffers start empty and need to fill)."""
    return min(max(epochs // 10, 10_000), epochs // 2)


def _batch_se(values: np.ndarray) -> float:
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / np.sqrt(values.size))


def _walk(spec: NetworkSpec, epochs: int, seed: int):
    """Yield ``(t, x, y, n)`` for each epoch of the exact feedback scheme.

    ``x`` is the epoch's channel row (True on success), ``y`` the
    per-link transfer indicators and ``n`` the occupancies after the
    epoch.  A transfer needs the sender non-empty (the source always
    is), a channel success, and room at the receiver after its own
    departure this epoch, so ``y`` is resolved from the last link
    backwards.  ``y`` and ``n`` are updated in place; copy them to keep
    them past the next epoch.  This is the scalar twin of
    ``emc.transfer_indicators_batch``, kept in pure Python because one
    trajectory pays a NumPy call's overhead every epoch.
    """
    h = spec.h
    m = spec.buffers
    eps = np.asarray(spec.eps)
    rng = make_rng(seed)
    n = [0] * (h - 1)
    y = [0] * h
    done = 0
    while done < epochs:
        todo = min(_BLOCK, epochs - done)
        xs = (rng.random((todo, h)) >= eps).tolist()
        for row, x in enumerate(xs):
            y_next = y[h - 1] = 1 if (x[h - 1] and n[h - 2] > 0) else 0
            for a in range(h - 2, 0, -1):
                ya = y[a] = 1 if (x[a] and n[a - 1] > 0 and m[a] - n[a] + y_next > 0) else 0
                n[a] += ya - y_next
                y_next = ya
            y0 = y[0] = 1 if (x[0] and m[0] - n[0] + y_next > 0) else 0
            n[0] += y0 - y_next
            yield done + row, x, y, n
        done += todo


def _check_warmup(epochs: int, warmup: int | None) -> int:
    if warmup is None:
        warmup = default_warmup(epochs)
    if not 0 <= warmup < epochs:
        raise SpecValidationError(f"need 0 <= warmup < epochs, got {warmup}, {epochs}")
    return warmup


def simulate_feedback(
    spec: NetworkSpec,
    epochs: int,
    warmup: int | None = None,
    seed: int = 0,
    batches: int = 100,
    joint_stride: int = 0,
) -> SimStats:
    """Occupancy-level simulation; counts destination receipts.

    ``joint_stride`` > 0 additionally samples the joint occupancy state
    every that many epochs (thinned, so the samples decorrelate enough
    for goodness-of-fit testing).
    """
    warmup = _check_warmup(epochs, warmup)
    h = spec.h
    m = spec.buffers
    occupancy = [[0] * (max(m) + 1) for _ in range(h - 1)]
    weights = np.concatenate(([1], np.cumprod(np.asarray(m) + 1)[:-1])).tolist()
    joint = [0] * spec.num_states if joint_stride > 0 else None

    measured = epochs - warmup
    batch_len = max(measured // batches, 1)
    # deliveries per batch of measured epochs; a partial last batch is dropped
    per_batch = [0] * (measured // batch_len + 1)
    for t, _, y, n in _walk(spec, epochs, seed):
        if t < warmup:
            continue
        if y[h - 1]:
            per_batch[(t - warmup) // batch_len] += 1
        for j in range(h - 1):
            occupancy[j][n[j]] += 1
        if joint is not None and (t - warmup) % joint_stride == 0:
            joint[sum(nj * wj for nj, wj in zip(n, weights))] += 1

    full = min(batches, measured // batch_len)
    batch_tputs = np.asarray(per_batch[:full], dtype=float) / batch_len
    return SimStats(
        spec=spec,
        epochs=epochs,
        warmup=warmup,
        seed=seed,
        packets_delivered=sum(per_batch),
        throughput=sum(per_batch) / measured,
        throughput_se=_batch_se(batch_tputs),
        occupancy_counts=np.asarray(occupancy, dtype=np.int64),
        joint_counts=None if joint is None else np.asarray(joint, dtype=np.int64),
        joint_stride=joint_stride,
    )


def simulate_delay_fcfs(
    spec: NetworkSpec,
    epochs: int,
    warmup: int | None = None,
    seed: int = 0,
    batches: int = 100,
) -> SimStats:
    """First-come first-serve delay from an end-to-end FIFO of admissions.

    Under feedback every node is FIFO and drops nothing, so the k-th
    packet delivered is the k-th one admitted; delay is the delivery
    epoch minus the admission epoch.  Packets admitted during warm-up
    are kept in the FIFO as -1 and excluded.
    """
    warmup = _check_warmup(epochs, warmup)
    h = spec.h
    m = spec.buffers
    admitted: deque = deque()
    occupancy = [[0] * (max(m) + 1) for _ in range(h - 1)]
    delays: list[int] = []
    delivered = 0
    for t, _, y, n in _walk(spec, epochs, seed):
        if y[h - 1]:
            tag = admitted.popleft()
            if tag >= 0:
                delays.append(t - tag)
        if y[0]:
            admitted.append(t if t >= warmup else -1)
        if t >= warmup:
            delivered += y[h - 1]
            for j in range(h - 1):
                occupancy[j][n[j]] += 1

    measured = epochs - warmup
    darr = np.asarray(delays, dtype=np.int64)
    if darr.size:
        counts = np.bincount(darr)
        nb = min(batches, max(darr.size // 50, 1))
        batch_means = np.array([b.mean() for b in np.array_split(darr, nb)])
        delay_mean = float(darr.mean())
        delay_se = _batch_se(batch_means)
        delay_var = float(darr.var(ddof=1))
    else:
        counts = np.zeros(1, dtype=np.int64)
        delay_mean = delay_se = delay_var = float("nan")
    return SimStats(
        spec=spec,
        epochs=epochs,
        warmup=warmup,
        seed=seed,
        packets_delivered=delivered,
        throughput=delivered / measured,
        throughput_se=float("nan"),
        occupancy_counts=np.asarray(occupancy, dtype=np.int64),
        delay_mean=delay_mean,
        delay_se=delay_se,
        delay_var=delay_var,
        delay_counts=counts,
        delay_samples=int(darr.size),
    )


# ---------------------------------------------------------------------------
# continuous-time bridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousSpec:
    """Tandem of exponential servers: rates per second and buffer sizes."""

    lambdas: tuple[float, ...]
    buffers: tuple[int, ...]
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "buffers", tuple(int(v) for v in self.buffers))
        if self.tau <= 0:
            raise SpecValidationError("discretization step tau must be positive")
        if len(self.lambdas) != len(self.buffers) + 1:
            raise SpecValidationError(
                f"expected {len(self.buffers) + 1} service rates, got {len(self.lambdas)}"
            )
        for i, lam in enumerate(self.lambdas):
            if lam <= 0:
                raise SpecValidationError(f"service rate lambdas[{i}]={lam} must be positive")
            if lam * self.tau >= 1.0:
                raise SpecValidationError(
                    f"step too coarse: lambdas[{i}]*tau = {lam * self.tau} >= 1"
                )


@dataclass(frozen=True)
class DiscretizedSpec:
    """Epoch model of a continuous tandem plus the rate back-conversion."""

    network: NetworkSpec
    tau: float

    @property
    def rate_scale(self) -> float:
        """Multiply packets/epoch by this to obtain packets/second."""
        return 1.0 / self.tau


def discretize(c: ContinuousSpec) -> DiscretizedSpec:
    """Epoch model: a rate-lambda server succeeds a slot with prob lambda*tau."""
    eps = tuple(1.0 - lam * c.tau for lam in c.lambdas)
    return DiscretizedSpec(network=NetworkSpec(eps, c.buffers), tau=c.tau)
