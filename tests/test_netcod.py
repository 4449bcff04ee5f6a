import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import sparse

from linenet import emc, netcod
from linenet.errors import SpecValidationError
from linenet.gf import SUPPORTED_FIELD_SIZES, GF2m, rank
from linenet.model import NetworkSpec, make_rng, state_index


@dataclass
class EtaComparisonReport:
    q: int
    epochs: int
    max_distance: float
    rows_compared: int
    min_row_visits: int


def epoch_logs(gf: GF2m, rng: np.random.Generator, x, buffers) -> np.ndarray:
    """One epoch's ``(2, S, 1)`` weight logs, drawn as the epoch reads them.

    The transmit weights of every slot are drawn first, in node order,
    then the fold weights of nodes n-1..0.  A fold that an erasure skips
    draws nothing, and its weights stay zero.
    """
    ends = np.cumsum(buffers)
    w = np.zeros((2, ends[-1]), dtype=np.uint32)
    w[0] = gf.random_elements(rng, ends[-1])
    for a in range(len(buffers) - 1, -1, -1):
        if x[a]:
            w[1, ends[a] - buffers[a] : ends[a]] = gf.random_elements(rng, buffers[a])
    return gf.logs(w).reshape(2, -1, 1)


def eta_transition_comparison(
    spec: NetworkSpec,
    q: int,
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
    gf = GF2m(q)
    rng = make_rng(seed)
    ws = netcod._Workspace(gf, spec.buffers)
    path = np.empty(epochs + 1, dtype=np.int64)
    path[0] = state_index(ws.eta_vector(), spec) - 1
    for t in range(epochs):
        x = rng.random(h) >= eps
        ws.epoch(x, epoch_logs(gf, rng, x, spec.buffers))
        path[t + 1] = state_index(ws.eta_vector(), spec) - 1

    # empirical transition frequencies, one entry per visited (from, to) pair
    n = spec.num_states
    visits = np.bincount(path[:-1], minlength=n)
    pairs, counts = np.unique(path[:-1] * n + path[1:], return_counts=True)
    frm, to = np.divmod(pairs, n)
    freq = sparse.csr_matrix((counts / visits[frm], (frm, to)), shape=(n, n))
    rows = np.flatnonzero(visits >= min_visits)
    gap = (emc.build_emc(spec).probs - freq)[rows]
    return EtaComparisonReport(
        q=q,
        epochs=epochs,
        max_distance=float(np.abs(gap.data).max(initial=0.0)),
        rows_compared=rows.size,
        min_row_visits=int(visits[visits > 0].min()) if (visits > 0).any() else 0,
    )


def test_field_spec_validation():
    GF2m(16)
    with pytest.raises(SpecValidationError):
        GF2m(8)


def workspace(gf, buffers, slots):
    """A workspace on ``buffers`` whose slots hold ``slots``, every given column active.

    One spare column keeps the next epoch from compacting, and the
    columns at or past ``active`` stay zero, as every epoch expects.
    """
    slots = np.asarray(slots, dtype=np.uint32)
    ws = netcod._Workspace(gf, buffers, capacity_hint=slots.shape[1] + 1)
    ws.slots[:, : slots.shape[1]] = slots
    ws.active = slots.shape[1]
    return ws


def sender(gf, slots):
    """A two-node workspace: node 0 holds ``slots``, node 1 one empty slot."""
    slots = np.asarray(slots, dtype=np.uint32)
    return workspace(gf, (slots.shape[0], 1), np.vstack([slots, np.zeros_like(slots[:1])]))


def run_epoch(ws, x, weights):
    """One epoch on explicit ``(2n, M)`` weights, masked as a simulation's chunk is."""
    x = np.asarray(x, dtype=bool)
    drawn = np.array(weights, dtype=np.uint32)[None]
    return ws.epoch(x, ws.weight_logs(x[None], drawn)[0])


def transmit(ws, w):
    """Node 0's packet in one epoch of a :func:`sender` workspace.

    Only the link from node 0 to node 1 delivers, and node 1 folds the
    packet with weight 1 into its emptied slot, where it is read.
    """
    m = ws.buffers[0]
    ws.slots[m] = 0
    cf = np.zeros((4, m), dtype=np.uint32)
    cf[0] = w
    cf[3, 0] = 1
    run_epoch(ws, [False, True, False], cf)
    return ws.slots[m, : ws.active].copy()


def fold(gf, slots, pkt, w):
    """Node 1's slots after it folds ``pkt`` with weights ``w``.

    Node 0 holds ``pkt`` in its one slot and sends it with weight 1;
    only the link from node 0 to node 1 delivers.
    """
    m, width = slots.shape
    ws = workspace(gf, (1, m), np.vstack([pkt, slots]))
    cf = np.zeros((4, m), dtype=np.uint32)
    cf[0, 0] = 1
    cf[3] = w
    run_epoch(ws, [False, True, False], cf)
    return ws.slots[1:, :width].copy()


def test_transmit_zero_buffer_emits_zero():
    gf = GF2m(16)
    ws = sender(gf, np.zeros((2, 8)))
    rng = make_rng(0)
    for _ in range(10):
        assert not nc_any(transmit(ws, gf.random_elements(rng, 2)))


def nc_any(row):
    return bool(np.any(row != 0))


def test_transmit_uniform_over_span():
    # rank-2 buffer: the output lies in a fixed 1-dim subspace with prob 1/q
    gf = GF2m(16)
    ws = sender(gf, np.eye(2, 4))
    rng = make_rng(3)
    n = 40_000
    hits = 0
    for _ in range(n):
        out = transmit(ws, gf.random_elements(rng, 2))
        if out[1] == 0:  # inside span(e0)
            hits += 1
    p = hits / n
    sigma = np.sqrt((1 / 16) * (15 / 16) / n)
    assert abs(p - 1 / 16) < 3.5 * sigma


def test_transmit_single_slot_scalar_multiple():
    gf = GF2m(256)
    slot = np.array([3, 7, 0, 1], dtype=np.uint32)
    ws = sender(gf, slot[None, :])
    rng = make_rng(5)
    for _ in range(50):
        out = transmit(ws, gf.random_elements(rng, 1))
        stacked = np.vstack([slot, out])
        assert rank(gf, stacked) == 1


def test_receive_zero_packet_noop():
    gf = GF2m(16)
    slots = np.zeros((2, 4), dtype=np.uint32)
    slots[0, 0] = 5
    after = fold(gf, slots, np.zeros(4, dtype=np.uint32), gf.random_elements(make_rng(1), 2))
    np.testing.assert_array_equal(after, slots)


def test_receive_innovative_raises_rank():
    # one occupied slot out of two: rank grows unless the fresh weight
    # hitting the free direction is zero, so with prob 1 - 1/q
    gf = GF2m(256)
    rng = make_rng(7)
    n = 20_000
    grew = 0
    slots = np.zeros((2, 4), dtype=np.uint32)
    slots[0, 0] = 1
    pkt = np.zeros(4, dtype=np.uint32)
    pkt[1] = 1
    for _ in range(n):
        if rank(gf, fold(gf, slots, pkt, gf.random_elements(rng, 2))) == 2:
            grew += 1
    p = grew / n
    expect = 1 - 1 / 256
    sigma = np.sqrt(expect * (1 - expect) / n)
    assert abs(p - expect) < 3.5 * sigma


def test_receive_dependent_keeps_rank_whp():
    gf = GF2m(256)
    rng = make_rng(11)
    n = 5_000
    kept = 0
    slots = np.eye(2, 4, dtype=np.uint32)
    pkt = np.zeros(4, dtype=np.uint32)
    pkt[0] = 2
    pkt[1] = 9
    for _ in range(n):
        if rank(gf, fold(gf, slots, pkt, gf.random_elements(rng, 2))) == 2:
            kept += 1
    assert kept / n > 1 - 10 / 256


class BruteForceCoded:
    """Reference implementation keeping the full coefficient history.

    Stores every row in source-packet coordinates without any
    quotienting; ranks come from scratch echelon reduction.  Only
    usable for a few thousand epochs, which is exactly what makes it a
    trustworthy oracle for the production implementation.
    """

    def __init__(self, spec, q, seed, epochs_cap):
        self.spec = spec
        self.gf = GF2m(q)
        self.rng = make_rng(seed)
        self.width = epochs_cap + 1
        self.bufs = [np.zeros((m, self.width), dtype=np.uint32) for m in spec.buffers]
        self.dest: list[np.ndarray] = []
        self.injected = 0

    def step(self, x):
        gf = self.gf
        outs = []
        for buf in self.bufs:
            coeffs = gf.random_elements(self.rng, buf.shape[0])
            outs.append(np.bitwise_xor.reduce(gf.mul(coeffs[:, None], buf), axis=0))
        if x[-1]:
            self.dest.append(outs[-1].copy())
        for a in range(len(self.bufs) - 1, 0, -1):
            if x[a]:
                coeffs = gf.random_elements(self.rng, self.bufs[a].shape[0])
                self.bufs[a] ^= gf.mul(coeffs[:, None], outs[a - 1][None, :])
        if x[0]:
            pkt = np.zeros(self.width, dtype=np.uint32)
            pkt[self.injected] = 1
            self.injected += 1
            coeffs = gf.random_elements(self.rng, self.bufs[0].shape[0])
            self.bufs[0] ^= gf.mul(coeffs[:, None], pkt[None, :])

    def dest_rank(self):
        if not self.dest:
            return 0
        return rank(self.gf, np.vstack(self.dest))

    def eta(self):
        out = []
        prev = self.dest_rank()
        stack = [np.vstack(self.dest)] if self.dest else []
        for buf in reversed(self.bufs):
            stack.append(buf)
            r = rank(self.gf, np.vstack(stack))
            out.append(r - prev)
            prev = r
        return tuple(reversed(out))


def check_against_brute_force(spec, capacity_hint):
    """The quotient-frame simulator must track ranks exactly.

    Runs the production path and the full-history oracle on the same
    channel stream (identical RNG consumption order) and compares the
    destination rank and occupancy vector epoch by epoch.  Returns the
    destination rank and the number of compactions.
    """
    q = 16
    epochs = 320
    chan_rng = make_rng(42)
    xs = (chan_rng.random((epochs, spec.h)) >= np.asarray(spec.eps)).astype(int)

    gf = GF2m(q)
    ws = netcod._Workspace(gf, spec.buffers, capacity_hint=capacity_hint)
    rng = make_rng(9)
    brute = BruteForceCoded(spec, q, seed=9, epochs_cap=epochs)

    rank_dest = 0
    checked = 0
    compactions = 0
    for t in range(epochs):
        x = xs[t]
        active = ws.active
        if ws.epoch(x, epoch_logs(gf, rng, x, spec.buffers)):
            rank_dest += 1
        compactions += ws.active < active
        brute.step(x)
        if t % 16 == 15:
            checked += 1
            assert brute.dest_rank() == rank_dest
            assert brute.eta() == ws.eta_vector()
    assert checked == 20
    # information cannot exceed what the source actually delivered
    assert rank_dest <= brute.injected
    return rank_dest, compactions


def test_workspace_matches_brute_force_history():
    rank_dest, _ = check_against_brute_force(NetworkSpec((0.4, 0.55, 0.5), (2, 2)), 24)
    assert rank_dest > 50


def test_workspace_matches_brute_force_history_on_unequal_buffers():
    # a width of 10 compacts every few epochs, so compaction re-expresses
    # nodes of one, three and two slots many times
    spec = NetworkSpec((0.3, 0.5, 0.45, 0.35), (1, 3, 2))
    rank_dest, compactions = check_against_brute_force(spec, 10)
    assert rank_dest > 50
    assert compactions > 20


def test_compaction_keeps_ranks_and_clears_the_columns_past_active():
    gf = GF2m(16)
    buffers = (1, 3, 2)
    ws = netcod._Workspace(gf, buffers, capacity_hint=12)
    rng = make_rng(4)
    # nothing in the first columns, so keeping them would lose the span
    slots = np.zeros((6, 12), dtype=np.uint32)
    slots[:, 5:] = gf.random_elements(rng, (6, 7))
    # a zero row, a multiple of a row and a combination across nodes
    slots[2] = 0
    slots[5] = gf.mul(9, slots[3])
    slots[4] = gf.mul(3, slots[0]) ^ gf.mul(7, slots[5])
    ws.slots[:] = slots
    ws.active = 12
    eta = ws.eta_vector()
    span = rank(gf, ws.slots)
    assert span == 3
    ws._compact()
    assert ws.eta_vector() == eta
    assert rank(gf, ws.slots) == span
    assert ws.active == span
    assert not ws.slots[:, ws.active :].any()


def random_coded_lines(seed, count=12):
    """Workspaces on seeded random lines: h 2-6, buffers 1-5, every field
    size, and a width of S + 4 that compacts every few epochs."""
    rng = make_rng(seed)
    for _ in range(count):
        h = int(rng.integers(2, 7))
        buffers = tuple(int(m) for m in rng.integers(1, 6, h - 1))
        gf = GF2m(int(rng.choice(SUPPORTED_FIELD_SIZES)))
        yield netcod._Workspace(gf, buffers, capacity_hint=sum(buffers) + 4), rng.uniform(0.1, 0.6, h), rng


def random_epochs(ws, eps, rng, count=150):
    """``x`` and weight logs of ``count`` epochs, drawn as the η comparison draws them."""
    for _ in range(count):
        x = rng.random(len(eps)) >= eps
        yield x, epoch_logs(ws.gf, rng, x, ws.buffers)


def test_epochs_touch_only_the_active_columns():
    # a twin with garbage past the columns an epoch may touch must end
    # the epoch with the same active columns and the garbage intact
    for ws, eps, rng in random_coded_lines(31):
        twin = netcod._Workspace(ws.gf, ws.buffers, capacity_hint=ws.width_cap)
        for x, logs in random_epochs(ws, eps, rng):
            a = ws.active
            compacts = a >= ws.width_cap
            if not compacts:
                twin.slots[:] = ws.slots
                twin.active = a
                garbage = ws.gf.random_elements(rng, twin.slots[:, a + 1 :].shape)
                twin.slots[:, a + 1 :] = garbage
            grew = ws.epoch(x, logs)
            assert not ws.slots[:, ws.active :].any()
            if not compacts:
                assert twin.epoch(x, logs) == grew
                np.testing.assert_array_equal(twin.slots[:, : a + 1], ws.slots[:, : a + 1])
                np.testing.assert_array_equal(twin.slots[:, a + 1 :], garbage)


def test_idle_epoch_only_writes_node_0s_new_column():
    def no_products(*args):
        raise AssertionError("an epoch where no link past the source delivers multiplies")

    checked = 0
    for ws, eps, rng in random_coded_lines(32):
        gf, m0 = ws.gf, ws.buffers[0]
        for x, logs in random_epochs(ws, eps, rng):
            if ws.active >= ws.width_cap or any(x[1:]):
                ws.epoch(x, logs)
                continue
            before, a = ws.slots.copy(), ws.active
            gf.mul = gf.mul_logs = gf.quotient_logs = no_products
            try:
                assert not ws.epoch(x, logs)
            finally:
                del gf.mul, gf.mul_logs, gf.quotient_logs
            assert ws.active == a + x[0]
            before[:m0, a] = ws.slots[:m0, a]
            np.testing.assert_array_equal(ws.slots, before)
            checked += 1
    assert checked > 50


def test_weight_logs_overwrite_the_drawn_block():
    # 5 000 epochs of 18 weights span several pieces of logs
    gf = GF2m(256)
    buffers = (1, 3, 2)
    ws = netcod._Workspace(gf, buffers)
    drawn = gf.random_elements(make_rng(0), (5000, 6, 3))
    xs = make_rng(1).random((5000, 4)) >= 0.3
    expect = []
    for i, m in enumerate(buffers):
        expect.append((drawn[:, i, :m], drawn[:, 3 + i, :m] * xs[:, i, None]))
    transmit = np.concatenate([t for t, _ in expect], axis=1)
    folds = np.concatenate([f for _, f in expect], axis=1)
    logs = ws.weight_logs(xs, drawn)
    assert np.shares_memory(logs, drawn)
    assert logs.dtype == np.int32 and logs.shape == (5000, 2, 6, 1)
    np.testing.assert_array_equal(logs[:, 0, :, 0], gf.logs(transmit))
    np.testing.assert_array_equal(logs[:, 1, :, 0], gf.logs(folds))


def test_reproducible_bit_identical():
    spec = NetworkSpec((0.4, 0.5, 0.45), (2, 3))
    a = netcod.simulate_no_feedback(spec, 16, 6_000, seed=9)
    b = netcod.simulate_no_feedback(spec, 16, 6_000, seed=9)
    assert a.destination_rank == b.destination_rank
    assert a.innovative_rate == b.innovative_rate
    assert a.innovative_rate_se == b.innovative_rate_se
    c = netcod.simulate_no_feedback(spec, 16, 6_000, seed=10)
    assert c.destination_rank != a.destination_rank


def test_innovative_rate_close_to_exact_small_run():
    spec = NetworkSpec((0.5, 0.5, 0.5), (2, 2))
    st = netcod.simulate_no_feedback(spec, 65536, 60_000, seed=4)
    exact = emc.capacity_exact(spec)
    assert abs(st.innovative_rate - exact) < max(0.01, 4 * st.innovative_rate_se)


def test_rate_increases_with_field_size():
    spec = NetworkSpec((0.5, 0.5, 0.5), (2, 2))
    rates = {}
    for q in (2, 16, 256):
        st = netcod.simulate_no_feedback(spec, q, 40_000, seed=6)
        rates[q] = st.innovative_rate
    assert rates[2] < rates[16] < rates[256] + 0.01


def test_starved_source_rate_zero():
    spec = NetworkSpec((0.995, 0.5, 0.5), (2, 2))
    st = netcod.simulate_no_feedback(spec, 16, 20_000, seed=2)
    assert st.innovative_rate < 0.02


def test_eta_transition_distance_small():
    spec = NetworkSpec((0.5, 0.5, 0.5), (2, 2))
    rep = eta_transition_comparison(spec, 65536, 120_000, seed=9)
    assert rep.max_distance < 0.015
    rep2 = eta_transition_comparison(spec, 2, 120_000, seed=9)
    assert rep2.max_distance > rep.max_distance


@pytest.mark.parametrize(
    "eps, buffers, q, rank_dest, rate, se",
    [
        ((0.5, 0.5, 0.5), (2, 2), 2, 3278, 0.16411111111111112, 0.001762879493256447),
        ((0.5, 0.5, 0.5), (2, 2), 65536, 7263, 0.3637222222222222, 0.002575042813616233),
        ((0.3, 0.45, 0.5, 0.2), (2, 3, 1), 16, 7698, 0.3852777777777778, 0.0025444973749512026),
        ((0.3, 0.45, 0.5, 0.2), (2, 3, 1), 256, 8341, 0.4175, 0.002962305272123811),
        ((0.2, 0.3, 0.4, 0.3, 0.1), (1, 4, 2, 3), 65536, 10374, 0.5177222222222222, 0.0029584298235424715),
        ((0.2, 0.3, 0.4, 0.3, 0.1), (1, 4, 2, 3), 2, 3707, 0.18638888888888888, 0.0017803975506425402),
        ((0.3,) * 8, (1, 1, 1, 1, 1, 1, 40), 256, 7036, 0.35244444444444445, 0.0020776784458031833),
    ],
)
def test_simulate_no_feedback_matches_pinned_values(eps, buffers, q, rank_dest, rate, se):
    """Exact GF(q) arithmetic and a fixed draw order pin every output bit."""
    st = netcod.simulate_no_feedback(NetworkSpec(eps, buffers), q, 20_000, seed=1)
    assert (st.destination_rank, st.innovative_rate, st.innovative_rate_se) == (rank_dest, rate, se)


def test_eta_transition_comparison_matches_pinned_values():
    spec = NetworkSpec((0.5, 0.5, 0.5), (2, 2))
    rep = eta_transition_comparison(spec, 65536, 5_000, seed=9)
    assert rep.max_distance == 0.04326923076923078
    assert rep.min_row_visits == 184


def test_eta_transition_comparison_matches_pinned_values_on_unequal_buffers():
    spec = NetworkSpec((0.3, 0.4, 0.5, 0.35), (1, 3, 2))
    rep = eta_transition_comparison(spec, 256, 3000, seed=5, min_visits=20)
    assert (rep.max_distance, rep.rows_compared, rep.min_row_visits) == (0.14893939393939393, 22, 6)


def test_eta_transition_comparison_memory_stays_below_dense_chain():
    # a dense 9 261 x 9 261 count matrix alone would take 686 MB
    spec = NetworkSpec((0.5, 0.5, 0.5, 0.5), (20, 20, 20))
    assert spec.num_states == 9261
    tracemalloc.start()
    try:
        rep = eta_transition_comparison(spec, 256, 300, seed=3, min_visits=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.rows_compared > 0
    assert peak < 100 * 2**20
