import os

# One BLAS/OpenMP thread: the level elimination's many small solves slow
# down several-fold when BLAS threads compete for the cores with another
# process (notes/decisions.md).  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st
from mpmath import matrix, mp, mpf

from linenet import emc, sim
from linenet.errors import LineNetError
from linenet.gf import rank
from linenet.mixtures import GeometricMixture
from linenet.model import NetworkSpec, _radix_weights, effective_failure


def random_spec(rng: np.random.Generator, h_choices=(2, 3, 4), m_max=4) -> NetworkSpec:
    h = int(rng.choice(h_choices))
    eps = tuple(float(e) for e in rng.uniform(0.05, 0.95, size=h))
    buffers = tuple(int(m) for m in rng.integers(1, m_max + 1, size=h - 1))
    return NetworkSpec(eps, buffers)


@st.composite
def line_specs(draw, h_values=(2, 3, 4), m_max=3) -> NetworkSpec:
    """Small specs for cross-layer properties; about half have all-equal eps."""
    h = draw(st.sampled_from(h_values))
    e = st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)
    eps = [draw(e)] * h if draw(st.booleans()) else draw(st.lists(e, min_size=h, max_size=h))
    buffers = draw(st.lists(st.integers(1, m_max), min_size=h - 1, max_size=h - 1))
    return NetworkSpec(tuple(eps), tuple(buffers))


def joint_counts(spec: NetworkSpec, epochs: int, warmup: int, seed: int, stride: int) -> np.ndarray:
    """Visits of each joint occupancy state in the feedback simulator's walk.

    Samples every ``stride``-th epoch after ``warmup`` (thinned, so the
    samples decorrelate enough for goodness-of-fit testing), from the
    occupancy rows of ``sim._chunks`` that ``simulate_feedback`` reads at
    the same seed.  Indexed as ``model.state_index`` minus one.
    """
    weights = _radix_weights(spec.buffers)
    joint = np.zeros(spec.num_states, dtype=np.int64)
    for t0, _, n, _, _ in sim._chunks(spec, epochs, seed):
        t = np.arange(t0, t0 + len(n)) - warmup
        np.add.at(joint, n[(t >= 0) & (t % stride == 0)] @ weights, 1)
    return joint


def step1(kernel, s, x, spec: NetworkSpec) -> tuple[int, ...]:
    """Apply a batch kernel (transfer indicators or a chain step) to one state."""
    out = kernel(
        np.asarray([s], dtype=np.int64),
        np.asarray(x, dtype=np.int64),
        np.asarray(spec.buffers, dtype=np.int64),
    )
    return tuple(int(v) for v in out[0])


class StructureViolationError(LineNetError):
    """A structural property of the transition matrix failed to hold."""


@dataclass(frozen=True)
class BlockStructureReport:
    """Sizes and down-block diagonal margin of a chain that passed the checks.

    ``verify_block_structure`` raises on any violated property, so a
    report exists only for a chain that has them all.
    """

    h: int
    last_buffer: int
    block_size: int
    down_block_min_diagonal: float
    down_block_diagonal_bound: float


def verify_block_structure(spec: NetworkSpec) -> BlockStructureReport:
    """Check the algebraic structure of the level blocks.

    Verifies that (a) all interior levels share the same three blocks,
    (b) every down-block is upper triangular and each of its diagonal
    entries is at least (1-eps_h) * prod_{k<h} eps_k > 0, the probability
    of the one realization where only the last link delivers, (c) for
    h > 2 the up-blocks are lower triangular with the all-empty diagonal
    entry exactly zero, hence singular, and (d) I minus each stay-block
    is invertible.  Raises at the first level with a violated property.
    Each level is checked on its dense row band (``emc._level_band``), one
    level at a time.
    """
    P = emc.build_emc(spec).probs
    top = spec.buffers[-1]
    block = emc._tail_block_size(spec)
    diag_bound = (1.0 - spec.eps[-1]) * float(np.prod(spec.eps[:-1]))
    min_diag = np.inf
    eye = np.eye(block)
    first = None
    for i in range(top + 1):
        band = emc._level_band(P, i, block)
        down, stay, up = np.hsplit(band, 3)
        if i == 1:
            first = (down, stay, up)
        elif 1 < i < top:
            for name, mine, ref in zip(("down", "stay", "up"), (down, stay, up), first):
                if not np.array_equal(mine, ref):
                    raise StructureViolationError(
                        f"interior {name}-block {i} differs from block 1"
                    )

        if i > 0:
            if np.tril(down, -1).any():
                raise StructureViolationError(f"down-block {i} is not upper triangular")
            diag = float(np.diag(down).min())
            min_diag = min(min_diag, diag)
            if diag < diag_bound * (1 - 1e-9):
                raise StructureViolationError(
                    f"down-block {i} diagonal entry {diag:.3e} below bound {diag_bound:.3e}"
                )

        if spec.h > 2 and i < top:
            if np.triu(up, 1).any():
                raise StructureViolationError(f"up-block {i} is not lower triangular")
            if up[0, 0] != 0.0:
                raise StructureViolationError(
                    f"up-block {i} has a feasible all-empty diagonal transition"
                )

        if abs(float(np.linalg.det(eye - stay))) < 1e-300:
            raise StructureViolationError(f"I - stay-block {i} is singular")

    return BlockStructureReport(
        h=spec.h,
        last_buffer=top,
        block_size=block,
        down_block_min_diagonal=min_diag,
        down_block_diagonal_bound=diag_bound,
    )


@pytest.fixture(scope="session")
def paper_four_hop() -> NetworkSpec:
    return NetworkSpec((0.5, 0.4999, 0.4998, 0.4), (5, 5, 5))


def diagonal_mixture(pairs) -> GeometricMixture:
    """The mixture sum_l p_l geometric(theta_l) as a diagonal phase-type gap."""
    ps, thetas = zip(*pairs)
    return GeometricMixture(np.array(ps, dtype=float), np.diag(np.array(thetas, dtype=float)), 0.0)


def gap_pmf(g: GeometricMixture, k: int) -> float:
    """f(k) of a gap from a matrix power: atom0 at 0, alpha T^(k-1) t0 after."""
    if k == 0:
        return g.atom0
    if k < 0:
        return 0.0
    return float(g.alpha @ np.linalg.matrix_power(g.T, k - 1) @ g.exit)


def node_gap(psi_j, eps_eff_j) -> GeometricMixture:
    """One node's FCFS wait as a dense gap: a psi-mixture of negative binomials.

    Phase l of the k = len(psi_j) phases has k - l services left and is
    entered with weight psi_j[k - 1 - l]; each epoch a service completes
    with probability 1 - eps_eff_j, and completing the last one ends the
    wait.
    """
    e = float(eps_eff_j)
    k = len(psi_j)
    T = np.diag(np.full(k, e)) + np.diag(np.full(k - 1, 1.0 - e), 1)
    return GeometricMixture(np.array(psi_j[::-1], dtype=float), T, 0.0)


def path_gap(spec: NetworkSpec, inputs, include_source: bool = False) -> GeometricMixture:
    """The delay profile's reference: the nodes' dense gaps chained by ``convolve``."""
    gaps = [node_gap(inputs.psi[j], inputs.eps_eff[j]) for j in range(spec.h - 1)]
    if include_source:
        gaps.insert(0, node_gap(np.ones(1), effective_failure(spec.eps[0], inputs.rho[0])))
    return functools.reduce(GeometricMixture.convolve, gaps)


def dj_series(g: GeometricMixture, tt, m: int = 0) -> list:
    """D_0, D_1, ... at 50 digits: the potential departures during one gap
    PH(alpha, T) when each epoch brings one with probability 1 - tt.

    Summed term by term: with inv = (I - tt T)^-1, M = (1 - tt) T inv and
    c = (1 - tt) inv t0, D_0 = tt alpha inv t0 and D_j = alpha inv
    M^(j-1) c for j >= 1.  Every term is a product of non-negative
    factors, so a tiny one keeps its digits.  The series runs past D_m
    until a term is below 1e-30 of the tail T(m) = sum_{n>=m} D_n summed
    so far, so each tail T(x), x <= m, is the sum of its terms to 30
    digits.  Returns mpf values.
    """
    with mp.workdps(50):
        tt = mpf(tt)
        n = g.alpha.size
        T = matrix(g.T.tolist())
        t0 = matrix([max(mpf(0), 1 - mp.fsum(T[i, j] for j in range(n))) for i in range(n)])
        inv = mp.inverse(mp.eye(n) - tt * T)
        u = matrix([g.alpha.tolist()]) * inv
        M = (1 - tt) * T * inv
        c = (1 - tt) * inv * t0
        d = [tt * (u * t0)[0]]
        tail = d[0] if m == 0 else mpf(0)
        while True:
            d.append((u * c)[0])
            if len(d) > m:
                tail += d[-1]
                if d[-1] < mpf("1e-30") * tail:
                    return d
            u = u * M


def eta_vector(ws) -> tuple[int, ...]:
    """Useful occupancy per node of a coded workspace: suffix-span rank differences.

    One echelon basis grows from the last node backwards, and each
    suffix's rank is read as that node's slots join it.
    """
    pivots: dict[int, np.ndarray] = {}
    out = []
    prev_rank = 0
    for i in range(len(ws.buffers) - 1, -1, -1):
        lo = ws._offsets[i]
        r = rank(ws.gf, ws.slots[lo : lo + ws.buffers[i]], pivots)
        out.append(r - prev_rank)
        prev_rank = r
    return tuple(reversed(out))


def sample_mixture(mix, rng, n):
    """Draw gaps from a phase-type law (alpha, T) with no mass at zero.

    A gap starts in a phase drawn from alpha, stays there a geometric
    number of epochs, then moves to a later phase or ends.  With diagonal
    T every gap ends after its first phase, so the draws are those of
    choosing a mixture component and one geometric.
    """
    stay = np.diag(mix.T)
    k = stay.size
    moves = np.cumsum(np.column_stack([np.triu(mix.T, 1), mix.exit]), axis=1) / (1 - stay)[:, None]
    phase = rng.choice(k, size=n, p=mix.alpha)
    gaps = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    while live.size:
        gaps[live] += rng.geometric(1 - stay[phase[live]])
        if not np.triu(mix.T, 1).any():
            break
        u = rng.random(live.size)
        phase[live] = (moves[phase[live]] < u[:, None]).sum(axis=1)
        live = live[phase[live] < k]
    return gaps


class QueueOracle:
    """Epoch-accurate single-queue simulation used as the reference.

    Arrivals follow a renewal mixture; each epoch a non-empty queue
    departs with the effective probability (channel success and no
    downstream blocking).  Records post-arrival occupancy, blocked
    arrivals, per-gap potential departures with an unbounded queue, and
    starvation gaps between an emptying departure and the next arrival.
    """

    def __init__(self, g_in, m, theta, q, n_arrivals, seed):
        rng = np.random.default_rng(seed)
        p_dep = (1 - theta) * (1 - q)
        gaps = sample_mixture(g_in, rng, n_arrivals)
        self.potential = rng.binomial(gaps, p_dep)
        occ = 0
        post = np.zeros(n_arrivals, dtype=np.int64)
        blocked = np.zeros(n_arrivals, dtype=bool)
        starve: list[int] = []
        for i, gap in enumerate(gaps):
            # epoch-level walk across this inter-arrival window
            left = occ
            drains = rng.random(gap) < p_dep
            t_empty = None
            for t_off in range(gap):
                if left > 0 and drains[t_off]:
                    left -= 1
                    if left == 0:
                        t_empty = t_off + 1
            if t_empty is not None and t_empty < gap and occ > 0:
                starve.append(gap - t_empty)
            blocked[i] = left == m
            if left < m:
                left += 1
            occ = left
            post[i] = occ
        self.post = post
        self.blocked = blocked
        self.starve = np.asarray(starve)
