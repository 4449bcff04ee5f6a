"""Monte-Carlo simulator of the exact feedback scheme.

Transfers are resolved from the last intermediate node backwards, a
packet leaves its sender only on acknowledged storage, and queues are
first-come first-serve.  The epoch rule itself is the batch kernel
``emc.transfer_indicators_batch``: each run tabulates it once over the
states and link bits of a few blocks of consecutive nodes, then walks
those tables one epoch at a time, a chunk of epochs per channel draw.
Throughput and delay statistics come with batch-means standard errors;
runs are reproducible bit-for-bit from a counter-based seed.  A
continuous-time network with exponential service rates is analyzed by
discretizing time into epochs of length tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import emc
from .errors import SpecValidationError
from .model import (
    _NUMBERS, NetworkSpec, _buffer_sizes, _entries, _radix_weights, enumerate_states, make_rng,
)

__all__ = ["ContinuousSpec", "simulate_feedback", "simulate_delay_fcfs", "discretize"]

_BLOCK = 1 << 10  # channel rows drawn at a time; any size gives the same draws
_TABLE_CAP = 1 << 16  # entries of one block table (see _runs)
BATCHES = 100  # batch means behind each standard error


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
    delay_mean: float | None = None
    delay_se: float | None = None
    delay_var: float | None = None
    delay_counts: np.ndarray | None = field(repr=False, default=None)
    delay_samples: int = 0

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


class _BatchMeans:
    """Events per measured epoch, with a batch-means standard error.

    The epochs after warm-up split into ``BATCHES`` batches of
    ``measured // BATCHES`` epochs (at least one); a partial last batch
    counts toward the total but not toward the standard error.
    """

    def __init__(self, epochs: int, warmup: int):
        self.warmup = warmup
        self.measured = epochs - warmup
        self.batch_len = max(self.measured // BATCHES, 1)
        self.counts = np.zeros(self.measured // self.batch_len + 1, dtype=np.int64)

    def add(self, t0: int, events: np.ndarray) -> None:
        """Count the non-zero ``events`` of the epochs from ``t0`` on that follow warm-up."""
        lo = max(self.warmup - t0, 0)
        t = np.arange(t0 + lo - self.warmup, t0 + len(events) - self.warmup)
        self.counts += np.bincount(t[events[lo:] > 0] // self.batch_len, minlength=self.counts.size)

    def result(self) -> tuple[int, float, float]:
        """Total events, events per measured epoch, and that rate's standard error."""
        full = min(BATCHES, self.measured // self.batch_len)
        total = int(self.counts.sum())
        return total, total / self.measured, _batch_se(self.counts[:full] / self.batch_len)


class _Block:
    """One run of consecutive nodes, its epoch tabulated by the batch kernel.

    Entry ``s * 2^(g+1) + c`` of the tables is the block of g nodes in
    state ``s`` (mixed radix, first node fastest, as in
    ``model.state_index``) under link bits ``c``: bit k is the channel bit
    of the block's k-th link, counted from the link into its first node.
    The first bit must already say whether the upstream node holds a
    packet, and the last bit must be the transfer its downstream block
    resolved; then ``emc.transfer_indicators_batch`` needs nothing
    outside the block.  ``after`` gives the block state after the epoch,
    ``y_first`` and ``y_last`` the transfers on its first and last link.
    """

    def __init__(self, spec: NetworkSpec, nodes: slice):
        sub = NetworkSpec(spec.eps[nodes.start : nodes.stop + 1], spec.buffers[nodes])
        g = sub.h - 1
        m = np.asarray(sub.buffers, dtype=np.int64)
        weights = _radix_weights(m)
        self.nodes = nodes
        self.g = g
        self.width = 1 << (g + 1)
        self.states = enumerate_states(sub)
        after, y_first, y_last = (
            np.empty((sub.num_states, self.width), dtype=np.int64) for _ in range(3)
        )
        # one link setting at a time, so the build needs little more memory than the tables
        for c in range(self.width):
            x = (c >> np.arange(g + 1)) & 1
            y = emc.transfer_indicators_batch(self.states, x, m)
            after[:, c] = (self.states + y[:, :-1] - y[:, 1:]) @ weights
            y_first[:, c] = y[:, 0]
            y_last[:, c] = y[:, g]
        self.after = after.ravel()
        self.y_first = y_first.ravel()
        self.y_last = y_last.ravel()
        # a state at or above this premultiplied index has a packet at its last node
        self.last_full = int(weights[-1]) * self.width


def _runs(buffers: tuple[int, ...]) -> list[slice]:
    """Split the nodes into runs whose table fits under ``_TABLE_CAP``.

    A run of nodes with buffers m_j has prod(m_j + 1) * 2^(g+1) entries;
    a node whose own table is larger still forms a run by itself.
    """
    runs, start, size = [], 0, 2
    for j, mj in enumerate(buffers):
        size *= 2 * (mj + 1)
        if j > start and size > _TABLE_CAP:
            runs.append(slice(start, j))
            start, size = j, 4 * (mj + 1)
    runs.append(slice(start, len(buffers)))
    return runs


def _chunks(spec: NetworkSpec, epochs: int, seed: int):
    """Yield ``(t0, x, n, admitted, delivered)`` for each chunk of the exact feedback scheme.

    A chunk holds up to ``_BLOCK`` epochs from epoch ``t0`` on: ``x`` the
    channel rows (True on success), ``n`` the occupancies after each
    epoch, and ``admitted`` and ``delivered`` the transfers on the first
    and the last link.  A transfer needs the sender non-empty (the source
    always is), a channel success, and room at the receiver after its
    own departure this epoch, so transfers resolve from the last link
    backwards.  Each epoch walks the block tables (see ``_Block``) from
    the last block to the first: a block's first link bit is its channel
    bit and the upstream node non-empty, its last link bit is the
    transfer its downstream block just resolved.
    """
    h = spec.h
    eps = np.asarray(spec.eps)
    blocks = [_Block(spec, nodes) for nodes in _runs(spec.buffers)][::-1]
    # per block, last first: the step table, the first-link transfers as the upstream
    # block's last link bit, and the upstream state from which the first link bit
    # may stand (the source, upstream of the first block, always holds a packet)
    ups = [b.y_first << up.g for b, up in zip(blocks, blocks[1:])] + [blocks[-1].y_first]
    fulls = [up.last_full for up in blocks[1:]] + [0]
    lanes = []
    for b, up, full in zip(blocks, ups, fulls):
        # entries share one int object per state, to keep the list small
        premultiplied = (np.arange(len(b.states)) * b.width).tolist()
        lanes.append(([premultiplied[a] for a in b.after], up.tolist(), full))
    masks = []
    for b in blocks:
        bits = 1 << np.arange(b.g + 1)
        if b.nodes.stop < h - 1:
            bits[-1] = 0  # the downstream block supplies this bit
        masks.append((slice(b.nodes.start, b.nodes.stop + 1), bits))
    rng = make_rng(seed)
    order = range(len(blocks))
    s = [0] * (len(blocks) + 1)  # premultiplied block states; s[-1] is the source's
    done = 0
    while done < epochs:
        todo = min(_BLOCK, epochs - done)
        x = rng.random((todo, h)) >= eps
        codes = [x[:, links] @ bits for links, bits in masks]
        rec: list[int] = []
        app = rec.append
        if len(blocks) == 1:
            # nothing crosses a block boundary: one lookup per epoch, and the
            # table entries follow from the states visited
            step = lanes[0][0]
            i = s[0]
            for c in codes[0].tolist():
                i = step[i + c]
                app(i)
            idx = (np.asarray([s[0]] + rec[:-1]) + codes[0])[:, None]
            s[0] = i
        else:
            for cs in zip(*(c.tolist() for c in codes)):
                y = 0
                for k in order:
                    step, up, full = lanes[k]
                    c = cs[k]
                    if s[k + 1] < full:
                        c &= -2
                    i = s[k] + (c | y)
                    s[k] = step[i]
                    y = up[i]
                    app(i)
            idx = np.asarray(rec).reshape(todo, len(blocks))
        n = np.empty((todo, h - 1), dtype=np.int64)
        for k, b in enumerate(blocks):
            n[:, b.nodes] = b.states[b.after[idx[:, k]]]
        yield done, x, n, blocks[-1].y_first[idx[:, -1]], blocks[0].y_last[idx[:, 0]]
        done += todo


def _check_warmup(epochs: int, warmup: int | None) -> int:
    if warmup is None:
        warmup = default_warmup(epochs)
    if not 0 <= warmup < epochs:
        raise SpecValidationError(f"need 0 <= warmup < epochs, got {warmup}, {epochs}")
    return warmup


def _histogram(n: np.ndarray, width: int) -> np.ndarray:
    """Occupancy counts of the rows of ``n``: one row per node, ``width`` levels."""
    nodes = n.shape[1]
    flat = (n + np.arange(nodes) * width).ravel()
    return np.bincount(flat, minlength=nodes * width).reshape(nodes, width)


def simulate_feedback(
    spec: NetworkSpec,
    epochs: int,
    warmup: int | None = None,
    seed: int = 0,
) -> SimStats:
    """Occupancy-level simulation; counts destination receipts."""
    warmup = _check_warmup(epochs, warmup)
    occupancy = np.zeros((spec.h - 1, max(spec.buffers) + 1), dtype=np.int64)
    deliveries = _BatchMeans(epochs, warmup)
    for t0, _, n, _, delivered in _chunks(spec, epochs, seed):
        deliveries.add(t0, delivered)
        occupancy += _histogram(n[max(warmup - t0, 0) :], occupancy.shape[1])

    total, throughput, throughput_se = deliveries.result()
    return SimStats(
        spec=spec,
        epochs=epochs,
        warmup=warmup,
        seed=seed,
        packets_delivered=total,
        throughput=throughput,
        throughput_se=throughput_se,
        occupancy_counts=occupancy,
    )


def simulate_delay_fcfs(
    spec: NetworkSpec,
    epochs: int,
    warmup: int | None = None,
    seed: int = 0,
) -> SimStats:
    """First-come first-serve delay from an end-to-end FIFO of admissions.

    Under feedback every node is FIFO and drops nothing, so the k-th
    packet delivered is the k-th one admitted; delay is the delivery
    epoch minus the admission epoch.  Admissions not yet delivered carry
    over from one chunk to the next; those made during warm-up are kept
    as -1 and excluded.
    """
    warmup = _check_warmup(epochs, warmup)
    occupancy = np.zeros((spec.h - 1, max(spec.buffers) + 1), dtype=np.int64)
    waiting = np.empty(0, dtype=np.int64)
    delays = []
    deliveries = _BatchMeans(epochs, warmup)
    for t0, _, n, y_in, y_out in _chunks(spec, epochs, seed):
        t = np.arange(t0, t0 + len(n))
        tin = t[y_in > 0]
        tout = t[y_out > 0]
        waiting = np.concatenate((waiting, np.where(tin >= warmup, tin, -1)))
        tags, waiting = waiting[: tout.size], waiting[tout.size :]
        delays.append(tout[tags >= 0] - tags[tags >= 0])
        deliveries.add(t0, y_out)
        occupancy += _histogram(n[max(warmup - t0, 0) :], occupancy.shape[1])

    total, throughput, throughput_se = deliveries.result()
    darr = np.concatenate(delays)
    if darr.size:
        counts = np.bincount(darr)
        nb = min(BATCHES, max(darr.size // 50, 1))
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
        packets_delivered=total,
        throughput=throughput,
        throughput_se=throughput_se,
        occupancy_counts=occupancy,
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
        lambdas = _entries(self.lambdas, "service rate lambdas", _NUMBERS, "a number")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "buffers", _buffer_sizes(self.buffers))
        if isinstance(self.tau, bool) or not isinstance(self.tau, _NUMBERS) or not 0 < self.tau < np.inf:
            raise SpecValidationError(f"discretization step tau={self.tau!r} must be positive and finite")
        if len(self.lambdas) != len(self.buffers) + 1:
            raise SpecValidationError(
                f"expected {len(self.buffers) + 1} service rates, got {len(self.lambdas)}"
            )
        for i, lam in enumerate(self.lambdas):
            if not lam > 0:
                raise SpecValidationError(f"service rate lambdas[{i}]={lam} must be positive")
            if lam * self.tau >= 1.0:
                raise SpecValidationError(
                    f"step too coarse: lambdas[{i}]*tau = {lam * self.tau} >= 1"
                )


def discretize(c: ContinuousSpec) -> NetworkSpec:
    """Epoch model: a rate-lambda server succeeds a slot with prob lambda*tau.

    Multiply its packets/epoch by 1/tau to obtain packets/second.
    """
    eps = tuple(1.0 - lam * c.tau for lam in c.lambdas)
    return NetworkSpec(eps, c.buffers)
