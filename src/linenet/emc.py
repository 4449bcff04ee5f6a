"""Exact occupancy chain of the feedback scheme and its steady-state analysis.

Under hop-by-hop feedback the rate-optimal schedule is: every non-empty
node transmits each epoch, a packet is deleted only when the next hop
acknowledges storage, and buffers are updated from the last intermediate
node backwards.  The joint occupancy vector then evolves as a Markov
chain; throughput capacity is the delivery rate of the last link under
its stationary distribution.

Stationary distributions come from one GMRES solve of the normalized
balance equations; the ``tol`` callers pass bounds max |pi P - pi| of
the result and is not a solver setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import (
    ConsistencyError,
    ConvergenceError,
    StateSpaceCapError,
    StructureViolationError,
)
from .model import NetworkSpec, enumerate_states

__all__ = [
    "SparseStochasticMatrix",
    "step_emc_batch",
    "build_emc",
    "stationary",
    "capacity_exact",
    "capacity_flow_crosscheck",
    "verify_block_structure",
    "h_matrix_bound",
    "DEFAULT_STATE_CAP",
]

DEFAULT_STATE_CAP = 10**7


# ---------------------------------------------------------------------------
# single-step dynamics
# ---------------------------------------------------------------------------

def transfer_indicators_batch(states: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Vectorized per-link transfer indicators for a batch of trajectories.

    Parameters
    ----------
    states : (K, h-1) int array of occupancies.
    x : (h,) or (K, h) 0/1 array of channel outcomes.
    m : (h-1,) or (K, h-1) buffer sizes.
    """
    K, n = states.shape
    h = n + 1
    y = np.zeros((K, h), dtype=states.dtype)
    y[:, h - 1] = x[..., h - 1] * (states[:, h - 2] > 0)
    for a in range(h - 2, 0, -1):
        room = (m[..., a] - states[:, a] + y[:, a + 1]) > 0
        y[:, a] = x[..., a] * (states[:, a - 1] > 0) * room
    y[:, 0] = x[..., 0] * ((m[..., 0] - states[:, 0] + y[:, 1]) > 0)
    return y


def step_emc_batch(states: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Vectorized exact step for a batch of trajectories (see transfer_indicators_batch)."""
    y = transfer_indicators_batch(states, x, m)
    return states + y[:, :-1] - y[:, 1:]


# ---------------------------------------------------------------------------
# transition matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseStochasticMatrix:
    """Row-stochastic transition matrix in CSR form.

    Row ``i`` holds the one-step distribution out of the state with
    0-based index ``i`` under the canonical state ordering.
    """

    n: int
    probs: sparse.csr_matrix = field(repr=False)


def _channel_outcomes(eps) -> tuple[np.ndarray, np.ndarray]:
    """The 2^h channel realizations and their probabilities.

    Row ``bits`` of the (2^h, h) 0/1 array has link a's outcome in bit
    a of ``bits``.
    """
    eps = np.asarray(eps)
    h = eps.size
    x = (np.arange(2**h)[:, None] >> np.arange(h)) & 1
    probs = np.array([float(np.prod(np.where(row == 1, 1.0 - eps, eps))) for row in x])
    return x, probs


# array elements handled per chunk: kernel rows times h, or CSR entries
_CHUNK = 1 << 16


def _build_chain(
    spec: NetworkSpec,
    step_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    cap: int,
) -> SparseStochasticMatrix:
    """Assemble the chain from one transition pattern per occupancy class.

    Both step kernels read a state only through which nodes are empty
    and which are full, so all states with the same {empty, middle,
    full} pattern over the nodes move by the same index offsets with the
    same probabilities.  The kernel runs on one representative state per
    class and every channel realization.  Per class, the probabilities
    are summed per distinct offset in realization order (bits 0 to
    2^h - 1), which is the order in which adding one matrix per
    realization would sum them, so the arrays are the same to the bit.
    The CSR arrays are then filled row chunk by row chunk; their size
    follows from the class counts before anything is allocated.
    """
    n = spec.num_states
    if n > cap:
        raise StateSpaceCapError(
            f"state space has {n} states, above the cap of {cap}; "
            "use bounds or the iterative estimates instead"
        )
    m = np.asarray(spec.buffers, dtype=np.int64)
    weights = np.concatenate(([1], np.cumprod(m + 1)[:-1]))
    states = enumerate_states(spec)
    # node pattern 0 empty, 1 middle, 2 full (buffers are at least 1)
    code = ((states > 0).astype(np.int64) + (states == m)) @ (3 ** np.arange(m.size))
    _, first, cls = np.unique(code, return_index=True, return_inverse=True)
    reps = states[first]
    del states, code

    x, probs = _channel_outcomes(spec.eps)
    k = len(probs)
    step = max(1, _CHUNK // (k * spec.h))
    chunks = []
    for a in range(0, len(reps), step):
        start = np.repeat(reps[a : a + step], k, axis=0)
        c = len(start) // k
        moved = (step_batch(start, np.tile(x, (c, 1)), m) - start) @ weights
        # one key per (class, offset): unique sorts by class, then offset
        key, slot = np.unique(np.repeat(np.arange(c) * (2 * n), k) + (moved + n), return_inverse=True)
        chunks.append((
            np.bincount(key // (2 * n), minlength=c),
            (key % (2 * n) - n).astype(np.min_scalar_type(-n)),
            np.bincount(slot, weights=np.tile(probs, c)),
        ))
    class_nnz, pat_off, pat_prob = (np.concatenate(part) for part in zip(*chunks))
    del chunks
    pat_start = np.cumsum(class_nnz) - class_nnz

    row_nnz = class_nnz[cls]
    nnz = int(row_nnz.sum())
    idx = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(row_nnz, out=indptr[1:])
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz)
    step = max(1, _CHUNK // int(class_nnz.max()))
    for a in range(0, n, step):
        b = min(a + step, n)
        lo, hi = int(indptr[a]), int(indptr[b])
        cnt = row_nnz[a:b]
        src = np.repeat(pat_start[cls[a:b]] - indptr[a:b], cnt) + np.arange(lo, hi)
        indices[lo:hi] = np.repeat(np.arange(a, b), cnt) + pat_off[src]
        data[lo:hi] = pat_prob[src]
    return SparseStochasticMatrix(
        n=n, probs=sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    )


def build_emc(spec: NetworkSpec, cap: int = DEFAULT_STATE_CAP) -> SparseStochasticMatrix:
    """Transition matrix of the exact chain.

    Entry (s, s') sums the probabilities of the channel realizations
    that move s to s'.  Each row has at most min(3^(h-1), num_states)
    non-zeros because every component moves by at most one per epoch.
    """
    mat = _build_chain(spec, step_emc_batch, cap)
    sums = np.asarray(mat.probs.sum(axis=1)).ravel()
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        raise ConsistencyError("transition rows do not sum to 1")
    bound = min(3 ** (spec.h - 1), spec.num_states)
    if np.diff(mat.probs.indptr).max() > bound:
        raise ConsistencyError("row support exceeds the single-step movement bound")
    return mat


# ---------------------------------------------------------------------------
# stationary distribution and capacity
# ---------------------------------------------------------------------------

# The GMRES tolerance sits near double precision: stopping at the accepted
# residual leaves pi's error far above it on slowly mixing chains.
_GMRES_RTOL = 1e-14
_GMRES_RESTART = 50
_GMRES_MAX_CYCLES = 100  # at most 5 000 operator applications


def stationary(P: SparseStochasticMatrix | sparse.csr_matrix, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix.

    One restarted GMRES run from the uniform vector solves pi (P - I) = 0,
    the last equation replaced by sum(pi) = 1, applying P^T without forming
    the system matrix.  It stops at a fixed relative residual near double
    precision or after a fixed number of restart cycles.  ``tol`` bounds
    max |pi P - pi| of the clipped, normalized result; ConvergenceError is
    raised above it, or when the chain is not irreducible.
    """
    mat = P.probs if isinstance(P, SparseStochasticMatrix) else sparse.csr_matrix(P)
    n = mat.shape[0]
    ncomp, _ = connected_components(mat, directed=True, connection="strong")
    if ncomp != 1:
        raise ConvergenceError(
            f"chain is not irreducible ({ncomp} strongly connected components)"
        )
    mat_t = mat.T

    def balance(v: np.ndarray) -> np.ndarray:
        out = mat_t @ v - v
        out[-1] = v.sum()
        return out

    b = np.zeros(n)
    b[-1] = 1.0
    pi, _ = gmres(
        LinearOperator((n, n), matvec=balance, dtype=float), b, x0=np.full(n, 1.0 / n),
        rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART, maxiter=_GMRES_MAX_CYCLES,
    )
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    residual = float(np.max(np.abs(mat_t @ pi - pi)))
    # written so that a NaN residual is rejected too
    if not residual <= tol:
        raise ConvergenceError(
            f"stationary solve stalled at residual {residual:.3e}",
            residual=residual,
        )
    return pi


def _tail_block_size(spec: NetworkSpec) -> int:
    """Number of states sharing each value of the last component."""
    return spec.num_states // (spec.buffers[-1] + 1)


def capacity_exact(
    spec: NetworkSpec,
    tol: float = 1e-12,
    cap: int = DEFAULT_STATE_CAP,
    chain: SparseStochasticMatrix | None = None,
    pi: np.ndarray | None = None,
) -> float:
    """Exact throughput capacity in packets/epoch.

    Equals (1 - eps[h-1]) times the stationary probability that the
    last intermediate node is non-empty.
    """
    if pi is None:
        chain = chain if chain is not None else build_emc(spec, cap=cap)
        pi = stationary(chain, tol=tol)
    block = _tail_block_size(spec)
    p_empty_last = float(pi[:block].sum())
    return (1.0 - spec.eps[-1]) * (1.0 - p_empty_last)


def capacity_flow_crosscheck(
    spec: NetworkSpec,
    tol: float = 1e-12,
    cap: int = DEFAULT_STATE_CAP,
    pi: np.ndarray | None = None,
) -> np.ndarray:
    """Capacity recomputed at every interior link; conservation check.

    Because packets are deleted only on acknowledged storage, the
    stationary storage rate is the same on every link.  The rate on an
    interior link is the expectation of its transfer indicator: the
    receiver must either have spare room or free a slot by its own
    departure in the same epoch, so the event cannot be reduced to the
    occupancy pair alone.  Returns the h-2 interior-link rates (empty
    for h = 2); disagreement with the exact capacity raises.
    """
    if spec.h == 2:
        return np.empty(0)
    if pi is None:
        chain = build_emc(spec, cap=cap)
        pi = stationary(chain, tol=tol)
    states = enumerate_states(spec)
    ref = capacity_exact(spec, tol=tol, cap=cap, pi=pi)
    m = np.asarray(spec.buffers, dtype=np.int64)
    rates = np.zeros(spec.h)
    for x, p in zip(*_channel_outcomes(spec.eps)):
        rates += p * (pi @ transfer_indicators_batch(states, x, m))
    out = rates[1 : spec.h - 1]
    # slack floor absorbs accumulation error in the stationary solve
    if np.max(np.abs(out - ref)) > max(10 * tol, 1e-9):
        raise ConsistencyError(
            f"flow conservation violated: link rates {out} vs capacity {ref}"
        )
    return out


# ---------------------------------------------------------------------------
# level blocks of the transition matrix
# ---------------------------------------------------------------------------

def _levels(spec: NetworkSpec, chain: SparseStochasticMatrix):
    """Level blocks (down, stay, up) of the chain, sliced from its CSR matrix.

    A level is the set of states sharing one occupancy of the last
    intermediate node; each is contiguous in the canonical ordering.
    Every component moves by at most one per epoch, so the matrix is
    block-tridiagonal over levels.  Returns ``(down, stay, up)`` where
    ``down[i]`` maps level i to level i-1 (None for i = 0), ``stay[i]``
    level i to itself, and ``up[i]`` level i to level i+1 (None for the
    top level).
    """
    top = spec.buffers[-1]
    b = _tail_block_size(spec)
    down: list[sparse.csr_matrix | None] = []
    stay: list[sparse.csr_matrix] = []
    up: list[sparse.csr_matrix | None] = []
    for i in range(top + 1):
        band = chain.probs[i * b : (i + 1) * b]
        down.append(band[:, (i - 1) * b : i * b] if i > 0 else None)
        stay.append(band[:, i * b : (i + 1) * b])
        up.append(band[:, (i + 1) * b : (i + 2) * b] if i < top else None)
    return down, stay, up


@dataclass(frozen=True)
class BlockStructureReport:
    """Outcome of the structural checks on the level blocks."""

    h: int
    last_buffer: int
    block_size: int
    interior_blocks_equal: bool
    down_blocks_upper_triangular: bool
    down_block_min_diagonal: float
    down_block_diagonal_bound: float
    up_blocks_lower_triangular: bool
    up_block_singular: bool | None
    stay_blocks_invertible: bool


def verify_block_structure(spec: NetworkSpec, cap: int = DEFAULT_STATE_CAP) -> BlockStructureReport:
    """Check the algebraic structure of the level blocks.

    Verifies that (a) all interior levels share the same three blocks,
    (b) every down-block is upper triangular and each of its diagonal
    entries is at least (1-eps_h) * prod_{k<h} eps_k > 0, the probability
    of the one realization where only the last link delivers, (c) for
    h > 2 the up-blocks are lower triangular with the all-empty diagonal
    entry exactly zero, hence singular, and (d) I minus each stay-block
    is invertible.  Raises at the first level with a violated property.
    Each level is checked in one pass over its row band of the CSR
    arrays; only I minus one stay-block at a time is made dense.
    """
    P = build_emc(spec, cap=cap).probs
    top = spec.buffers[-1]
    block = _tail_block_size(spec)
    diag_bound = (1.0 - spec.eps[-1]) * float(np.prod(spec.eps[:-1]))
    min_diag = np.inf
    eye = np.eye(block)
    local = np.arange(block)
    first = None
    for i in range(top + 1):
        lo, hi = P.indptr[i * block], P.indptr[(i + 1) * block]
        row = np.repeat(local, np.diff(P.indptr[i * block : (i + 1) * block + 1]))
        col = P.indices[lo:hi] - i * block  # -block..-1 down, 0..block-1 stay, then up
        val = P.data[lo:hi]
        step = col // block
        col = col - step * block
        band = (row, step, col, val)
        if i == 1:
            first = band
        elif 1 < i < top and not all(map(np.array_equal, band, first)):
            for name, s in (("down", -1), ("stay", 0), ("up", 1)):
                mine, ref = band[1] == s, first[1] == s
                if not all(np.array_equal(a[mine], r[ref]) for a, r in zip(band, first)):
                    raise StructureViolationError(
                        f"interior {name}-block {i} differs from block 1"
                    )

        if i > 0:
            down = step == -1
            if np.any(col[down] < row[down]):
                raise StructureViolationError(f"down-block {i} is not upper triangular")
            diagonal = np.zeros(block)
            on = down & (col == row)
            diagonal[row[on]] = val[on]
            diag = float(diagonal.min())
            min_diag = min(min_diag, diag)
            if diag < diag_bound * (1 - 1e-9):
                raise StructureViolationError(
                    f"down-block {i} diagonal entry {diag:.3e} below bound {diag_bound:.3e}"
                )

        if spec.h > 2 and i < top:
            up = step == 1
            if np.any(col[up] > row[up]):
                raise StructureViolationError(f"up-block {i} is not lower triangular")
            if np.any(val[up & (row == 0) & (col == 0)] != 0.0):
                raise StructureViolationError(
                    f"up-block {i} has a feasible all-empty diagonal transition"
                )

        stay = step == 0
        dense = np.zeros((block, block))
        dense[row[stay], col[stay]] = val[stay]
        if abs(float(np.linalg.det(eye - dense))) < 1e-300:
            raise StructureViolationError(f"I - stay-block {i} is singular")

    return BlockStructureReport(
        h=spec.h,
        last_buffer=top,
        block_size=block,
        interior_blocks_equal=True,
        down_blocks_upper_triangular=True,
        down_block_min_diagonal=min_diag,
        down_block_diagonal_bound=diag_bound,
        up_blocks_lower_triangular=spec.h > 2,
        up_block_singular=True if spec.h > 2 else None,
        stay_blocks_invertible=True,
    )


def _h_matrices(spec: NetworkSpec, cap: int = DEFAULT_STATE_CAP):
    """Recursion relating the per-level stationary blocks to level 0.

    Works in the column convention (blocks transposed), so that the
    stationary sub-vectors satisfy pi_i = H_i @ pi_0.  Each H is dense
    b x b, built from one level's blocks at a time.  Returns the list of
    H matrices plus the worst relation residual against the exact
    stationary solve.
    """
    chain = build_emc(spec, cap=cap)
    down, stay, up = _levels(spec, chain)
    top = spec.buffers[-1]
    eye = np.eye(_tail_block_size(spec))

    H = [eye, np.linalg.solve(down[1].toarray().T, eye - stay[0].toarray().T)]
    for i in range(2, top + 1):
        rhs = (eye - stay[i - 1].toarray().T) @ H[i - 1] - up[i - 2].toarray().T @ H[i - 2]
        H.append(np.linalg.solve(down[i].toarray().T, rhs))

    pi = np.split(stationary(chain), top + 1)
    residual = 0.0
    for Hi, pi_i in zip(H, pi):
        residual = max(residual, float(np.max(np.abs(Hi @ pi[0] - pi_i))))
    return H, residual


def h_matrix_bound(spec: NetworkSpec, cap: int = DEFAULT_STATE_CAP) -> float:
    """Capacity upper bound from the level-relation matrices.

    Computes (1-eps_h) * (1 - 1/||sum_i H_i||_1).  Also verifies the
    relation pi_i = H_i pi_0 against the exact stationary solve and
    raises ConsistencyError when the residual exceeds 1e-8.

    The forward H recursion loses accuracy geometrically in the number
    of levels (the last buffer plus one): with eps (0.3, 0.5, 0.7) the
    residual is 1.6e3 at buffers (3, 12), 4.8e30 at (4, 30) and 1.6e277
    at (4, 200), and each of those raises.  The bound is usable only on
    chains with a short last buffer.
    """
    H, residual = _h_matrices(spec, cap=cap)
    if residual > 1e-8:
        raise ConsistencyError(
            f"group-relation residual {residual:.3e} exceeds 1e-8"
        )
    total = np.sum(H, axis=0)
    norm1 = float(np.max(np.abs(total).sum(axis=0)))
    return (1.0 - spec.eps[-1]) * (1.0 - 1.0 / norm1)
