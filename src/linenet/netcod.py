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

from .emc import build_emc
from .errors import SpecValidationError
from .gf import GF2m, SUPPORTED_FIELD_SIZES, rank as _span_rank
from .model import NetworkSpec, make_rng, state_index

__all__ = [
    "FieldSpec",
    "CodedBuffer",
    "simulate_no_feedback",
    "eta_transition_comparison",
    "NoFeedbackStats",
    "EtaComparisonReport",
]


@dataclass(frozen=True)
class FieldSpec:
    """Field size for the coding scheme; characteristic-2 sizes only."""

    q: int

    def __post_init__(self):
        if self.q not in SUPPORTED_FIELD_SIZES:
            raise SpecValidationError(
                f"field size {self.q} not in supported set {SUPPORTED_FIELD_SIZES}"
            )

    def make(self) -> GF2m:
        return GF2m(self.q)


class CodedBuffer:
    """Fixed number of coded slots, each a coefficient row."""

    def __init__(self, gf: GF2m, m: int, width: int = 16):
        self.gf = gf
        self.m = m
        self.rows = np.zeros((m, width), dtype=np.uint32)

    @property
    def width(self) -> int:
        return self.rows.shape[1]


def _transmit(buf: CodedBuffer, w: np.ndarray) -> np.ndarray:
    """The combination sum_i w[i] * slot i (zero slots allowed)."""
    return np.bitwise_xor.reduce(buf.gf.mul(w[:, None], buf.rows), axis=0)


def _fold(buf: CodedBuffer, pkt: np.ndarray, w: np.ndarray) -> None:
    """Fold a received packet into every slot: slot i gains w[i] * pkt."""
    if pkt.shape[0] != buf.width:
        raise ValueError(f"packet width {pkt.shape[0]} != buffer width {buf.width}")
    buf.rows ^= buf.gf.mul(w[:, None], pkt[None, :])


class _DrawnWeights:
    """Weight rows drawn from ``rng`` at the moment an epoch reads them.

    Stands in for a pre-drawn weight block: ``cf[row, :m]`` returns m
    fresh field elements whatever the row, so the draws follow the order
    in which the epoch transmits and folds, and a fold that an erasure
    skips draws nothing.
    """

    def __init__(self, gf: GF2m, rng: np.random.Generator):
        self.gf = gf
        self.rng = rng

    def __getitem__(self, key) -> np.ndarray:
        return self.gf.random_elements(self.rng, key[1].stop)


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


class _Workspace:
    """Shared coordinate frame for all coefficient rows.

    The destination's span is the zero subspace by construction: every
    row is reduced against each innovative arrival the moment the
    destination stores it, so innovation testing is a nonzero check and
    coefficient width stays near the total buffer budget.
    """

    def __init__(self, gf: GF2m, buffers, capacity_hint: int = 96):
        self.gf = gf
        self.bufs = [CodedBuffer(gf, m, capacity_hint) for m in buffers]
        self.width_cap = capacity_hint
        self.active = 0
        self.total_slots = sum(buffers)

    def inject_column(self) -> np.ndarray:
        """Fresh source packet: a brand-new unit coordinate."""
        if self.active >= self.width_cap:
            self._compact()
        col = self.active
        self.active += 1
        pkt = np.zeros(self.width_cap, dtype=np.uint32)
        pkt[col] = 1
        return pkt

    def absorb_at_destination(self, pkt: np.ndarray, in_flight: list[np.ndarray]) -> bool:
        """Reduce buffers and in-flight packets by an innovative arrival.

        Keeps every coefficient row reduced modulo the destination span,
        so innovation testing stays a nonzero check.  Packets already
        generated this epoch but not yet stored are reduced as well.
        Returns True iff the arrival raised the destination's rank.
        """
        nz = np.nonzero(pkt)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        piv = self.gf.mul(self.gf.inv(pkt[c]), pkt)
        for buf in self.bufs:
            col = buf.rows[:, c]
            mask = col != 0
            if mask.any():
                buf.rows[mask] ^= self.gf.mul(col[mask, None], piv[None, :])
        for row in in_flight:
            if row[c]:
                row ^= self.gf.mul(np.uint32(row[c]), piv)
        return True

    def epoch(self, x, cf) -> bool:
        """One feedback-free epoch; True iff the destination's rank grew.

        Every node transmits a combination of its start-of-epoch slots,
        then arrivals land in reverse-hop order: the destination absorbs,
        interior nodes fold, and the source injects a fresh packet.
        ``x[k]`` tells whether link k delivers.  With n nodes, node i
        transmits with weights ``cf[i, :m_i]`` and folds with
        ``cf[n + i, :m_i]``.
        """
        bufs = self.bufs
        n = len(bufs)
        outs = [_transmit(b, cf[i, : b.m]) for i, b in enumerate(bufs)]
        grew = bool(x[n]) and self.absorb_at_destination(outs[n - 1], outs[: n - 1])
        for a in range(n - 1, 0, -1):
            if x[a]:
                _fold(bufs[a], outs[a - 1], cf[n + a, : bufs[a].m])
        if x[0]:
            _fold(bufs[0], self.inject_column(), cf[n, : bufs[0].m])
        return grew

    def _compact(self) -> None:
        """Re-express every slot over a basis of the current buffer span."""
        gf = self.gf
        stacked = np.concatenate([b.rows for b in self.bufs], axis=0)
        pivots: dict[int, tuple[int, np.ndarray]] = {}
        coords = np.zeros((stacked.shape[0], self.total_slots), dtype=np.uint32)
        nbasis = 0
        for i, row in enumerate(stacked):
            v = row.copy()
            expr = np.zeros(self.total_slots, dtype=np.uint32)
            while True:
                nz = np.nonzero(v)[0]
                if nz.size == 0:
                    break
                c = int(nz[0])
                hit = pivots.get(c)
                if hit is None:
                    idx = nbasis
                    scale = v[c]
                    pivots[c] = (idx, gf.mul(gf.inv(scale), v))
                    expr[idx] = scale
                    nbasis += 1
                    break
                idx, piv = hit
                coeff = v[c]
                v = gf.axpy(coeff, piv, v)
                expr[idx] ^= coeff
            coords[i] = expr
        if nbasis > self.total_slots:
            raise AssertionError("buffer span exceeded total slot count")
        offset = 0
        for buf in self.bufs:
            fresh = np.zeros((buf.m, self.width_cap), dtype=np.uint32)
            fresh[:, : self.total_slots] = coords[offset : offset + buf.m]
            buf.rows = fresh
            offset += buf.m
        self.active = nbasis

    def eta_vector(self) -> tuple[int, ...]:
        """Useful occupancy per node: suffix-span rank differences."""
        n = len(self.bufs)
        out = []
        prev_rank = 0
        for i in range(n - 1, -1, -1):
            stacked = np.concatenate([b.rows for b in self.bufs[i:]], axis=0)
            r = _span_rank(self.gf, stacked)
            out.append(r - prev_rank)
            prev_rank = r
        return tuple(reversed(out))


def simulate_no_feedback(
    spec: NetworkSpec,
    field: FieldSpec,
    epochs: int,
    warmup: int | None = None,
    seed: int = 0,
    batches: int = 100,
) -> NoFeedbackStats:
    """Run the coding scheme; measure the destination's innovative rate.

    Each epoch is one :meth:`_Workspace.epoch`, with erasures applied
    independently per link.  The innovative rate is the destination's
    rank growth per epoch after warm-up.
    """
    if warmup is None:
        warmup = min(max(epochs // 10, 1000), epochs // 2)
    if not 0 <= warmup < epochs:
        raise SpecValidationError(f"need 0 <= warmup < epochs, got {warmup}, {epochs}")
    h = spec.h
    eps = np.asarray(spec.eps)
    gf = field.make()
    rng = make_rng(seed)
    ws = _Workspace(gf, spec.buffers, capacity_hint=max(96, 4 * sum(spec.buffers)))

    measured = epochs - warmup
    batch_len = max(measured // batches, 1)
    batch_counts: list[int] = []
    in_batch = 0
    rank_dest = 0
    rank_at_warmup = 0

    block = 1 << 12
    done = 0
    while done < epochs:
        todo = min(block, epochs - done)
        xs = rng.random((todo, h)) >= eps
        # one draw per epoch: transmit weights for every node, then fold weights
        coeff_block = ws.gf.random_elements(rng, (todo, 2 * (h - 1), max(spec.buffers)))
        for row in range(todo):
            t = done + row
            if ws.epoch(xs[row], coeff_block[row]):
                rank_dest += 1
                if t >= warmup:
                    in_batch += 1
            if t == warmup - 1:
                rank_at_warmup = rank_dest
            if t >= warmup:
                if (t - warmup + 1) % batch_len == 0 and len(batch_counts) < batches:
                    batch_counts.append(in_batch)
                    in_batch = 0
        done += todo

    rate = (rank_dest - rank_at_warmup) / measured
    bt = np.asarray(batch_counts, dtype=float) / batch_len
    se = float(bt.std(ddof=1) / np.sqrt(bt.size)) if bt.size > 1 else float("nan")
    return NoFeedbackStats(
        spec=spec,
        q=field.q,
        epochs=epochs,
        warmup=warmup,
        seed=seed,
        destination_rank=rank_dest,
        innovative_rate=rate,
        innovative_rate_se=se,
    )


@dataclass
class EtaComparisonReport:
    q: int
    epochs: int
    max_distance: float
    rows_compared: int
    min_row_visits: int


def eta_transition_comparison(
    spec: NetworkSpec,
    field: FieldSpec,
    epochs: int,
    seed: int = 0,
    min_visits: int = 200,
) -> EtaComparisonReport:
    """Empirical useful-occupancy transitions versus the exact feedback chain.

    Estimates the transition matrix of the useful-occupancy process
    from one long run and reports the max-norm distance to the exact
    chain's matrix over rows visited at least ``min_visits`` times.
    """
    h = spec.h
    eps = np.asarray(spec.eps)
    gf = field.make()
    rng = make_rng(seed)
    ws = _Workspace(gf, spec.buffers, capacity_hint=max(96, 4 * sum(spec.buffers)))
    n = spec.num_states
    counts = np.zeros((n, n), dtype=np.int64)
    weights = _DrawnWeights(gf, rng)
    prev = state_index(ws.eta_vector(), spec) - 1
    for _ in range(epochs):
        ws.epoch(rng.random(h) >= eps, weights)
        cur = state_index(ws.eta_vector(), spec) - 1
        counts[prev, cur] += 1
        prev = cur

    exact = build_emc(spec).dense()
    visits = counts.sum(axis=1)
    dist = 0.0
    rows = 0
    for i in range(n):
        if visits[i] >= min_visits:
            rows += 1
            emp = counts[i] / visits[i]
            dist = max(dist, float(np.max(np.abs(emp - exact[i]))))
    return EtaComparisonReport(
        q=field.q,
        epochs=epochs,
        max_distance=dist,
        rows_compared=rows,
        min_row_visits=int(visits[visits > 0].min()) if (visits > 0).any() else 0,
    )
