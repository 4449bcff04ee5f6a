"""Feedback-free operation under random linear coding over GF(q).

Without acknowledgments a node cannot know what downstream holds, so
every node transmits a uniformly random linear combination of its
buffer slots each epoch and folds every received packet into all of
its slots with fresh random coefficients.  Only coefficient vectors
relative to the injected source packets matter: the information the
destination accumulates is the rank of its received span, and a node's
useful occupancy is the rank of everything from it downstream minus
the rank of everything strictly downstream.

The simulator keeps all buffer rows reduced modulo the destination's
span (rank is absorbed into a counter the moment it arrives), which
keeps coefficient widths bounded by the total buffer budget plus the
injections since the last compaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF2m, rank
from .model import NetworkSpec, make_rng
from .sim import _BatchMeans, _check_warmup

__all__ = ["simulate_no_feedback"]


@dataclass
class NoFeedbackStats:
    spec: NetworkSpec
    q: int
    epochs: int
    warmup: int
    seed: int
    destination_rank: int
    innovative_rate: float
    innovative_rate_se: float


# drawn weights whose logs are taken at once
_LOG_PIECE = 1 << 13


class _Workspace:
    """Shared coordinate frame for all coefficient rows.

    The S buffer slots, in node order, are the rows of one ``(S, width)``
    array, ``slots``; only its first ``active`` columns can be nonzero.
    The destination's span is the zero subspace by construction: every
    slot is reduced against each innovative arrival the moment the
    destination stores it, so innovation testing is a nonzero check and
    coefficient width stays near the total buffer budget: ``max(96, 4 S)``
    columns, or ``capacity_hint``, which lets a test compact often.
    """

    def __init__(self, gf: GF2m, buffers, capacity_hint: int | None = None):
        self.gf = gf
        self.buffers = tuple(buffers)
        n = len(self.buffers)
        self.total_slots = S = sum(self.buffers)
        self.width_cap = max(96, 4 * S) if capacity_hint is None else capacity_hint
        self.slots = np.zeros((S, self.width_cap), dtype=np.uint32)
        self.active = 0
        self._node = node = np.repeat(np.arange(n), self.buffers)
        self._offsets = np.concatenate(([0], np.cumsum(self.buffers)[:-1]))
        # node a >= 1 hears node a - 1's packet
        self._upstream = node[self.buffers[0] :] - 1
        within = np.arange(S) - self._offsets[node]
        width = max(self.buffers)
        # flat positions of the transmit, then the fold, weights of every
        # slot in a (2n, max m) weight draw
        self._weight_at = np.concatenate((node, n + node)) * width + np.tile(within, 2)

    def weight_logs(self, xs, drawn) -> np.ndarray:
        """Per-epoch ``(2, S, 1)`` log blocks from ``(epochs, 2n, max m)`` weights.

        Each epoch's transmit and fold weights are gathered into slot
        order, the folds of links that ``xs`` erases get weight zero (the
        zero sentinel), and their logs overwrite ``drawn`` a piece at a
        time, so a chunk holds no more than its drawn block.
        """
        S = self.total_slots
        xs = np.asarray(xs, dtype=bool)
        flat = drawn.reshape(len(drawn), -1)
        logs = flat.view(np.int32)[:, : 2 * S]
        step = max(1, _LOG_PIECE // flat.shape[1])
        for lo in range(0, len(flat), step):
            piece = slice(lo, lo + step)
            w = flat[piece].take(self._weight_at, axis=1)
            w[:, S:] *= xs[piece][:, self._node]
            logs[piece] = self.gf.logs(w)
        return logs.reshape(len(flat), 2, S, 1)

    def epoch(self, x, logs) -> bool:
        """One feedback-free epoch; True iff the destination's rank grew.

        Every node transmits a combination of its start-of-epoch slots,
        then every node whose link delivers folds what it hears into its
        slots, and the destination absorbs.  ``x[k]`` tells whether link
        k delivers.  ``logs`` is a ``(2, S, 1)`` block of weight logs:
        slot j transmits with ``logs[0, j]`` and folds with ``logs[1, j]``,
        the zero sentinel on an erased link.  Node 0's fold of the fresh
        source packet writes its weights into column ``active``; the
        destination's reduction, one linear map on every row, runs after
        the folds, on the columns below it (``notes/decisions.md``).
        """
        if self.active >= self.width_cap:
            self._compact()
        gf, m0, a = self.gf, self.buffers[0], self.active
        if x[0]:
            self.slots[:m0, a] = gf.exps(logs[1, :m0, 0])
            self.active += 1
        if not any(x[1:]):
            return False
        live = self.slots[:, :a]
        sent = np.bitwise_xor.reduceat(gf.mul_logs(logs[0], live), self._offsets, axis=0)
        live[m0:] ^= gf.mul_logs(logs[1, m0:], sent.take(self._upstream, axis=0))
        pkt = sent[-1]
        nz = pkt.nonzero()[0] if x[-1] else ()
        if len(nz):
            live ^= gf.mul_logs(gf.quotient_logs(live[:, nz[0]], pkt[nz[0]])[:, None], pkt)
        return len(nz) > 0

    def _compact(self) -> None:
        """Keep only each slot's entries on the pivot columns of its span.

        The span's echelon basis, restricted to its pivot columns, is
        triangular with a nonzero diagonal, so the restriction is
        injective on the span and every later rank stays as it was.
        """
        pivots: dict[int, np.ndarray] = {}
        self.active = rank(self.gf, self.slots, pivots)
        kept = self.slots[:, sorted(pivots)]
        self.slots[:] = 0
        self.slots[:, : self.active] = kept

    def eta_vector(self) -> tuple[int, ...]:
        """Useful occupancy per node: suffix-span rank differences.

        One echelon basis grows from the last node backwards, and each
        suffix's rank is read as that node's slots join it.
        """
        pivots: dict[int, np.ndarray] = {}
        out = []
        prev_rank = 0
        for i in range(len(self.buffers) - 1, -1, -1):
            lo = self._offsets[i]
            r = rank(self.gf, self.slots[lo : lo + self.buffers[i]], pivots)
            out.append(r - prev_rank)
            prev_rank = r
        return tuple(reversed(out))


def simulate_no_feedback(
    spec: NetworkSpec,
    q: int,
    epochs: int,
    warmup: int | None = None,
    seed: int = 0,
) -> NoFeedbackStats:
    """Run the coding scheme; measure the destination's innovative rate.

    Each epoch is one :meth:`_Workspace.epoch`, with erasures applied
    independently per link.  The innovative rate is the destination's
    rank growth per epoch after warm-up.
    """
    if warmup is None:
        warmup = min(max(epochs // 10, 1000), epochs // 2)
    warmup = _check_warmup(epochs, warmup)
    h = spec.h
    eps = np.asarray(spec.eps)
    gf = GF2m(q)
    rng = make_rng(seed)
    ws = _Workspace(gf, spec.buffers)

    growth = _BatchMeans(epochs, warmup)
    rank_dest = 0

    block = 1 << 12
    for done in range(0, epochs, block):
        todo = min(block, epochs - done)
        xs = rng.random((todo, h)) >= eps
        # one draw per epoch: transmit weights for every node, then fold weights
        logs = ws.weight_logs(xs, gf.random_elements(rng, (todo, 2 * (h - 1), max(spec.buffers))))
        grew = np.array([ws.epoch(x, lg) for x, lg in zip(xs, logs)])
        rank_dest += int(np.count_nonzero(grew))
        growth.add(done, grew)

    _, rate, se = growth.result()
    return NoFeedbackStats(
        spec=spec,
        q=q,
        epochs=epochs,
        warmup=warmup,
        seed=seed,
        destination_rank=rank_dest,
        innovative_rate=rate,
        innovative_rate_se=se,
    )
