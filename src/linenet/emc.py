"""Exact occupancy chain of the feedback scheme and its steady-state analysis.

Under hop-by-hop feedback the rate-optimal schedule is: every non-empty
node transmits each epoch, a packet is deleted only when the next hop
acknowledges storage, and buffers are updated from the last intermediate
node backwards.  The joint occupancy vector then evolves as a Markov
chain; throughput capacity is the delivery rate of the last link under
its stationary distribution.

A chain built here is block-tridiagonal over the occupancy levels of
any one node.  Its stationary distribution comes from block elimination
over the levels of the node with the largest buffer when those levels
are small, and from one GCROT(m, k) Krylov solve of the normalized
balance equations otherwise.  The Krylov solve starts from rbie's
product form and, on large chains, applies P^T as column blocks on
threads that live only for that solve; the blocks follow from the
matrix alone, so the result does not depend on the machine.  The
``tol`` callers pass bounds max |pi P - pi| of the result and is not a
solver setting.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csc_matvec  # y += A x; releases the GIL
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, gcrotmk

from . import rbie
from .errors import ConsistencyError, ConvergenceError, LineNetError, StateSpaceCapError
from .model import NetworkSpec, _radix_weights, enumerate_states

__all__ = [
    "build_emc",
    "stationary",
    "capacity_exact",
    "capacity_flow_crosscheck",
    "h_matrix_bound",
    "STATE_CAP",
]

# states above which no chain is built: every exact entry point (the chain,
# its capacity, the bounds, the H-matrix bound) refuses larger specs
STATE_CAP = 10**7
# states above which a caller leaves out an exact value it only adds to its
# report: allocate's exact rescoring and reproduce's exact and bound columns
OPTIONAL_STATE_CAP = 200_000


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
    0-based index ``i`` under the canonical state ordering.  ``spec`` is
    the spec the chain was built from, None when it is not known: its
    buffer sizes fix the level structure, and its rbie product form is
    the Krylov path's start vector.
    """

    n: int
    probs: sparse.csr_matrix = field(repr=False)
    spec: NetworkSpec | None = None

    @property
    def buffers(self) -> tuple[int, ...]:
        """Buffer sizes of ``spec``; () when it is not known."""
        return () if self.spec is None else self.spec.buffers


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


def _state_classes(spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray]:
    """The first state of each occupancy class in index order, and each state's class.

    A class holds the states with one {empty, middle, full} pattern over
    the nodes, the only part of a state the step kernels and the
    transfer indicators read.
    """
    m = np.asarray(spec.buffers, dtype=np.int64)
    states = enumerate_states(spec)
    # node pattern 0 empty, 1 middle, 2 full (buffers are at least 1)
    code = ((states > 0).astype(np.int64) + (states == m)) @ (3 ** np.arange(m.size))
    _, first, cls = np.unique(code, return_index=True, return_inverse=True)
    return states[first], cls


def _build_chain(
    spec: NetworkSpec,
    step_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> SparseStochasticMatrix:
    """Assemble the chain from one transition pattern per occupancy class.

    All states of one class (:func:`_state_classes`) move by the same
    index offsets with the same probabilities, so the kernel runs on one
    representative state per class and every channel realization.  Per
    class, the probabilities are summed per distinct offset in
    realization order (bits 0 to 2^h - 1), which is the order in which
    adding one matrix per realization would sum them, so the arrays are
    the same to the bit.
    The CSR arrays are then filled row chunk by row chunk; their size
    follows from the class counts before anything is allocated.  A spec
    over ``STATE_CAP`` states raises StateSpaceCapError first.  Each row
    must sum to 1 within 1e-12 and have at most min(3^(h-1), num_states)
    non-zeros, because every component moves by at most one per epoch;
    ConsistencyError is raised otherwise.
    """
    n = spec.num_states
    if n > STATE_CAP:
        raise StateSpaceCapError(
            f"state space has {n} states, above the cap of {STATE_CAP}; the exact "
            "chain and the bounds cannot be built, use rbie, dbie or the simulator instead"
        )
    m = np.asarray(spec.buffers, dtype=np.int64)
    weights = _radix_weights(m)
    reps, cls = _state_classes(spec)

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
    probs = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    if np.max(np.abs(np.asarray(probs.sum(axis=1)).ravel() - 1.0)) > 1e-12:
        raise ConsistencyError("transition rows do not sum to 1")
    if class_nnz.max() > min(3 ** (spec.h - 1), n):
        raise ConsistencyError("row support exceeds the single-step movement bound")
    return SparseStochasticMatrix(n=n, probs=probs, spec=spec)


def build_emc(spec: NetworkSpec) -> SparseStochasticMatrix:
    """Transition matrix of the exact chain.

    Entry (s, s') sums the probabilities of the channel realizations
    that move s to s'.
    """
    return _build_chain(spec, step_emc_batch)


# ---------------------------------------------------------------------------
# stationary distribution and capacity
# ---------------------------------------------------------------------------

# The Krylov tolerance sits near double precision: stopping at the accepted
# residual leaves pi's error far above it on slowly mixing chains, and at
# 1e-14 pi is still up to 2.2e-12 from the level path on five-hop chains.
# GCROT(m, k) runs inner cycles of m steps and carries k error-minimizing
# directions across restarts, so short cycles keep their convergence;
# (20, 5) stores no more vectors than restarted GMRES(50) and needs fewer
# applications on the paper's chains (notes/decisions.md).  An outer
# cycle takes about m applications.
_KRYLOV_RTOL = 1e-15
_GCROT_M = 20
_GCROT_K = 5
_GCROT_MAX_CYCLES = 250  # about 5 000 operator applications

# The Krylov path applies P^T in column blocks of about equal stored entries,
# each product on its own thread (scipy's sparse products release the GIL).
# The block count follows from nnz alone, never from the CPU count, so the
# partial sums, and pi, are the same on every machine.  Below two blocks of
# _BLOCK_NNZ_MIN entries the threads cost more than they save; a third block
# on two cores costs more than it saves (notes/decisions.md).
_BLOCK_NNZ_MIN = 300_000
_BLOCKS_MAX = 2

# Level elimination costs O(n b^2) for levels of b states and GCROT about
# O(n 3^(h-1)) per operator application; measured crossover in
# notes/decisions.md.  The stored factors take about n b doubles.
_LEVEL_BLOCK_MAX = 256
_LEVEL_FACTOR_BYTES = 1 << 25


def _level_plan(buffers: tuple[int, ...]) -> tuple[int, int] | None:
    """Level node and states per level of the level solve; None for GCROT.

    The level node is the one with the largest buffer, the last one on
    ties.  Decided from the buffer sizes alone, before anything is
    allocated.
    """
    if not buffers:
        return None
    k = max(range(len(buffers)), key=lambda j: (buffers[j], j))
    n = math.prod(m + 1 for m in buffers)
    b = n // (buffers[k] + 1)
    if b > _LEVEL_BLOCK_MAX or 8 * n * b > _LEVEL_FACTOR_BYTES:
        return None
    return k, b


def _level_band(P: sparse.csr_matrix, i: int, b: int) -> np.ndarray:
    """Dense (b, 3b) row band of level i: its down, stay and up blocks.

    A level is a run of b consecutive states; every component moves by at
    most one per epoch, so level i reaches only levels i-1 to i+1.  The
    band is read straight from the CSR arrays; the down block of level 0
    and the up block of the top level are zero.
    """
    start = P.indptr[i * b : (i + 1) * b + 1]
    lo, hi = start[0], start[-1]
    band = np.zeros((b, 3 * b))
    band[np.repeat(np.arange(b), np.diff(start)), P.indices[lo:hi] - (i - 1) * b] = P.data[lo:hi]
    return band


def _eliminate_levels(P: sparse.csr_matrix, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized stationary vector of a chain block-tridiagonal over levels of b states.

    Block Gaussian elimination from the top level down (Gaver, Jacobs &
    Latouche 1984).  With D_i, A_i, U_i the down, stay and up blocks of
    level i, S_top = A_top - I and S_i = A_i - I + R_i D_{i+1}, where
    R_i = U_i (-S_{i+1})^-1 is kept.  -S_i is a nonsingular M-matrix
    whose row sums are level i's down mass, so its diagonal is set from
    the off-diagonal entries and that mass without a subtraction
    (Grassmann, Taksar & Heyman 1985).  pi_0 solves pi_0 S_0 = 0 with
    sum 1, and pi_{i+1} = pi_i R_i; each level is rescaled to sum 1 and
    its scale carried as a logarithm, so that pi does not overflow.
    Returns pi and the non-negative factors R_0 .. R_{top-1}.
    """
    levels = P.shape[0] // b
    diag = np.arange(b)
    factors = np.empty((levels - 1, b, b))
    band = _level_band(P, levels - 1, b)
    stay = band[:, b : 2 * b]  # stay block of the chain censored to levels 0..i
    for i in range(levels - 1, -1, -1):
        stay[diag, diag] = 0.0
        neg_s = -stay
        neg_s[diag, diag] = stay.sum(axis=1) + band[:, :b].sum(axis=1)
        if i == 0:
            break
        down = band[:, :b]
        band = _level_band(P, i - 1, b)
        # R_{i-1} (-S_i) = U_{i-1}
        factors[i - 1] = np.linalg.solve(neg_s.T, band[:, 2 * b :].T).T
        stay = band[:, b : 2 * b] + factors[i - 1] @ down

    neg_s[:, -1] = 1.0
    x = np.linalg.solve(neg_s.T, np.eye(b)[-1])
    pi = np.empty(levels * b)
    pi[:b] = x
    log_scale = np.zeros(levels)
    for i in range(levels - 1):
        x = x @ factors[i]
        total = x.sum()
        x /= total
        log_scale[i + 1] = log_scale[i] + np.log(total)
        pi[(i + 1) * b : (i + 2) * b] = x
    pi *= np.repeat(np.exp(log_scale - log_scale.max()), b)
    return pi, factors


def _solve_levels(P: sparse.csr_matrix, buffers: tuple[int, ...], k: int, b: int) -> np.ndarray:
    """Level elimination over node k's occupancy, reordering the states if needed.

    The canonical order has the last node most significant; when k is
    another node the states are reordered so that k is, and the result
    is mapped back.
    """
    if k == len(buffers) - 1:
        return _eliminate_levels(P, b)[0]
    dims = [m + 1 for m in reversed(buffers)]  # axis 0 is the last node
    order = np.moveaxis(np.arange(P.shape[0]).reshape(dims), len(buffers) - 1 - k, 0).ravel()
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    permuted = sparse.csr_matrix((P.data, inv[P.indices], P.indptr), shape=P.shape)[order]
    return _eliminate_levels(permuted, b)[0][inv]


def _column_blocks(P: sparse.csr_matrix) -> list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """P^T as column blocks ``(a, b, indptr, indices, data)`` of about equal stored entries.

    Columns a..b-1 of P^T, the CSC view of P, are rows a..b-1 of P, so a
    block's indices and data are slices of P's own arrays; only its
    indptr, rebased to 0, is new.
    """
    count = min(_BLOCKS_MAX, max(1, P.nnz // _BLOCK_NNZ_MIN))
    cuts = [0, *np.searchsorted(P.indptr, np.arange(1, count) * (P.nnz / count)).tolist(), P.shape[0]]
    blocks = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        lo, hi = P.indptr[a], P.indptr[b]
        blocks.append((a, b, P.indptr[a : b + 1] - lo, P.indices[lo:hi], P.data[lo:hi]))
    return blocks


def _blocked_product(blocks, v: np.ndarray, parts: list[np.ndarray], run=map) -> np.ndarray:
    """P^T v from :func:`_column_blocks`, one partial vector per block summed in block order.

    Block k's product overwrites ``parts[k]``, which the caller allocates;
    ``run`` maps the block products, for instance a thread pool's ``map``.
    The products write into those vectors rather than return new ones:
    arrays allocated on worker threads come from per-thread malloc arenas,
    which kept about 20 MB more resident over the benchmark's exact
    workload (notes/decisions.md).
    """
    def product(k: int) -> None:
        a, b, indptr, indices, data = blocks[k]
        parts[k].fill(0.0)
        csc_matvec(len(v), b - a, indptr, indices, data, v[a:b], parts[k])

    for _ in run(product, range(len(blocks))):
        pass
    out = parts[0].copy()
    for part in parts[1:]:
        out += part
    return out


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_vector(P: SparseStochasticMatrix) -> tuple[np.ndarray, str]:
    """The Krylov path's x0 and its name.

    With the chain's spec known, x0 is rbie's product form: the outer
    product of rbie's per-node occupancy laws, the last node on the most
    significant axis as in the canonical order, normalized (the classic
    first approximation of a queueing chain's stationary law; Stewart
    1994, ch. 3).  Without a spec, or where rbie fails, x0 is uniform.
    """
    if P.spec is not None:
        try:
            phi = rbie.solve(P.spec).phi
        except LineNetError:
            pass
        else:
            x0 = functools.reduce(np.multiply.outer, reversed(phi)).ravel()
            return x0 / x0.sum(), "product-form"
    return np.full(P.n, 1.0 / P.n), "uniform"


def stationary(P: SparseStochasticMatrix, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix.

    A chain from ``build_emc`` or ``amc.build_amc`` whose levels (states
    sharing one occupancy of the node with the largest buffer) are small
    is solved by block elimination over those levels.  Any other chain,
    one without a spec included, gets one GCROT(m, k) run on
    pi (P - I) = 0, the last equation replaced by sum(pi) = 1, applying
    P^T in column blocks on threads that live only for this call, without
    forming the system matrix.  It starts from rbie's product form when
    the spec is known, from the uniform vector otherwise, and stops at a
    fixed relative residual near double precision or after a fixed number
    of outer cycles.  ``tol`` bounds max |pi P - pi| of the clipped,
    normalized result; ConvergenceError, naming the path, is raised
    above it, or when the chain is not irreducible.
    """
    mat = P.probs
    n = mat.shape[0]
    ncomp, _ = connected_components(mat, directed=True, connection="strong")
    if ncomp != 1:
        raise ConvergenceError(
            f"chain is not irreducible ({ncomp} strongly connected components)"
        )
    mat_t = mat.T
    plan = _level_plan(P.buffers)
    if plan is not None:
        pi = _solve_levels(mat, P.buffers, *plan)
        iterations = n // plan[1]
        path = f"level-elimination stationary solve ({iterations} levels of {plan[1]} states)"
    else:
        from concurrent.futures import ThreadPoolExecutor

        blocks = _column_blocks(mat)
        x0, start = _start_vector(P)
        parts = [np.empty(n) for _ in blocks]
        workers = min(_worker_count(), len(blocks))
        applied = 0
        b = np.zeros(n)
        b[-1] = 1.0
        with ThreadPoolExecutor(max_workers=workers) as pool:
            run = pool.map if workers > 1 else map

            def balance(v: np.ndarray) -> np.ndarray:
                nonlocal applied
                applied += 1
                out = _blocked_product(blocks, v, parts, run)
                out -= v
                out[-1] = v.sum()
                return out

            pi, info = gcrotmk(
                LinearOperator((n, n), matvec=balance, dtype=float), b, x0=x0,
                rtol=_KRYLOV_RTOL, atol=0.0, m=_GCROT_M, k=_GCROT_K, maxiter=_GCROT_MAX_CYCLES,
            )
        iterations = applied
        path = (
            f"GCROT stationary solve ({start} start, column blocks {len(blocks)}, "
            f"{applied} operator applications, info {info})"
        )
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    residual = float(np.max(np.abs(mat_t @ pi - pi)))
    # written so that a NaN residual is rejected too
    if not residual <= tol:
        raise ConvergenceError(
            f"{path} stalled at residual {residual:.3e}",
            residual=residual,
            iterations=iterations,
        )
    return pi


def _tail_block_size(spec: NetworkSpec) -> int:
    """Number of states sharing each value of the last component."""
    return spec.num_states // (spec.buffers[-1] + 1)


def capacity_exact(
    spec: NetworkSpec,
    tol: float = 1e-12,
    pi: np.ndarray | None = None,
) -> float:
    """Exact throughput capacity in packets/epoch.

    Equals (1 - eps[h-1]) times the stationary probability that the
    last intermediate node is non-empty.  ``pi`` is a stationary vector
    already solved for the spec's chain; without it the chain is built
    and solved here.
    """
    if pi is None:
        pi = stationary(build_emc(spec), tol=tol)
    block = _tail_block_size(spec)
    p_empty_last = float(pi[:block].sum())
    return (1.0 - spec.eps[-1]) * (1.0 - p_empty_last)


def capacity_flow_crosscheck(
    spec: NetworkSpec,
    tol: float = 1e-12,
    pi: np.ndarray | None = None,
) -> np.ndarray:
    """Capacity recomputed at every interior link; conservation check.

    Because packets are deleted only on acknowledged storage, the
    stationary storage rate is the same on every link.  The rate on an
    interior link is the expectation of its transfer indicator: the
    receiver must either have spare room or free a slot by its own
    departure in the same epoch, so the event cannot be reduced to the
    occupancy pair alone.  The indicators depend on a state only through
    its class (:func:`_state_classes`), so pi is summed per class and the
    indicators evaluated on one representative each.  Returns the h-2
    interior-link rates (empty for h = 2); disagreement with the exact
    capacity raises.
    """
    if spec.h == 2:
        return np.empty(0)
    if pi is None:
        pi = stationary(build_emc(spec), tol=tol)
    ref = capacity_exact(spec, tol=tol, pi=pi)
    reps, cls = _state_classes(spec)
    mass = np.bincount(cls, weights=pi, minlength=len(reps))
    m = np.asarray(spec.buffers, dtype=np.int64)
    rates = np.zeros(spec.h)
    for x, p in zip(*_channel_outcomes(spec.eps)):
        rates += p * (mass @ transfer_indicators_batch(reps, x, m))
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

def h_matrix_bound(spec: NetworkSpec) -> float:
    """Capacity upper bound from the level-relation matrices.

    Over the levels of the last node, pi_i = H_i pi_0 with
    H_i = (R_0 ... R_{i-1})^T, the R the non-negative factors of the
    level elimination, so ||sum_i H_i||_1 is the largest entry of
    w = 1 + R_0 (1 + R_1 (1 + ... R_{top-1} 1)).  w is evaluated from the
    top level down, rescaled at each level with its scale carried as a
    logarithm, and the bound is (1-eps_h) * (1 - 1/||sum_i H_i||_1).
    """
    _, factors = _eliminate_levels(build_emc(spec).probs, _tail_block_size(spec))
    w = np.ones(factors.shape[1])
    log_scale = 0.0
    for R in factors[::-1]:
        w = math.exp(-log_scale) + R @ w
        top = w.max()
        w /= top
        log_scale += math.log(top)
    # w's largest entry is 1, so ||sum_i H_i||_1 = exp(log_scale)
    return (1.0 - spec.eps[-1]) * -math.expm1(-log_scale)
