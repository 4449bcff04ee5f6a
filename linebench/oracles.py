"""Reference computations made apart from linenet, and the checks that use them.

Nothing here imports linenet.  Each reference is written from the model
definition: the hop-by-hop transfer rule for the exact chain, the
birth-death closed form for two hops, and the continuous-time tandem
for the discretization bridge.  Each check raises ``CheckFailed`` when
its condition does not hold.
"""

from __future__ import annotations

import itertools
from math import comb, prod

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import gmres


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def two_hop_capacity(eps1: float, eps2: float, m: int) -> float:
    """Closed-form capacity of a two-hop network with one buffer of size m.

    With a = 1 - eps1 and b = 1 - eps2 the occupancy is a birth-death
    walk: pi_1 = pi_0 a / (b (1 - a)), pi_(k+1) = pi_k a (1 - b) / (b (1 - a)),
    and the capacity is b (1 - pi_0).
    """
    a, b = 1.0 - eps1, 1.0 - eps2
    w = [1.0, a / (b * (1.0 - a))]
    ratio = a * (1.0 - b) / (b * (1.0 - a))
    for _ in range(m - 1):
        w.append(w[-1] * ratio)
    pi0 = 1.0 / sum(w)
    return b * (1.0 - pi0)


def transfer(s: tuple[int, ...], x: tuple[int, ...], buffers) -> tuple[int, ...]:
    """One epoch of the feedback scheme for one state and channel outcome.

    Links are resolved from the destination backwards: a packet crosses
    link a when the link succeeds, its sender holds a packet (the source
    always does) and the receiver has room after its own departure in the
    same epoch (the destination always has room).
    """
    h = len(x)
    moved = [0] * (h + 1)  # moved[h] stays 0: nothing leaves the destination
    for a in range(h - 1, -1, -1):
        has_packet = a == 0 or s[a - 1] > 0
        has_room = a == h - 1 or s[a] - moved[a + 1] < buffers[a]
        moved[a] = int(bool(x[a]) and has_packet and has_room)
    return tuple(s[j] + moved[j] - moved[j + 1] for j in range(h - 1))


def transition_matrix(eps, buffers):
    """Sparse transition matrix of the exact chain, built with :func:`transfer`.

    States are ordered with the first node's occupancy varying fastest, so
    the states with the last node empty come first.
    """
    radix = [m + 1 for m in buffers]
    weights = [prod(radix[:j]) for j in range(len(radix))]
    states = [tuple(reversed(s)) for s in itertools.product(*(range(r) for r in reversed(radix)))]
    rows, cols, vals = [], [], []
    for x in itertools.product((0, 1), repeat=len(eps)):
        p = prod((1.0 - e) if xi else e for xi, e in zip(x, eps))
        for i, s in enumerate(states):
            rows.append(i)
            cols.append(sum(v * w for v, w in zip(transfer(s, x, buffers), weights)))
            vals.append(p)
    n = len(states)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))  # sums repeated entries


def _capacity(pi: np.ndarray, eps, buffers) -> float:
    """Delivery rate of the last link: (1 - eps_h) P(last node non-empty)."""
    return (1.0 - eps[-1]) * float(pi.reshape(buffers[-1] + 1, -1)[1:].sum())


def dense_exact_capacity(eps, buffers) -> float:
    """Exact capacity with a dense stationary solve; for a few hundred states."""
    P = transition_matrix(eps, buffers).toarray()
    return _capacity(_stationary_dense(P.T - np.eye(P.shape[0])), eps, buffers)


def sparse_exact_capacity(eps, buffers, tol: float = 1e-14) -> float:
    """Exact capacity of a chain too large for a dense solve.

    GMRES on the balance equations, one of which is replaced by the
    normalization.  Building the chain loops over every state and channel
    outcome in Python, so this is for computing pinned references, not for
    timed runs.
    """
    P = transition_matrix(eps, buffers)
    n = P.shape[0]
    A = (P.T - sparse.identity(n, format="csr")).tolil()
    A[n - 1, :] = np.ones(n)
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi, info = gmres(A.tocsr(), b, x0=np.full(n, 1.0 / n), rtol=tol, atol=0.0, restart=200, maxiter=10**4)
    if info != 0:
        raise RuntimeError(f"GMRES did not converge (info={info})")
    residual = float(np.abs(pi @ P - pi).max())
    if residual > 1e-13:
        raise RuntimeError(f"stationary residual {residual:.3e}")
    return _capacity(pi, eps, buffers)


def continuous_tandem_throughput(lambdas, buffers) -> float:
    """Packets per second through a tandem of exponential servers.

    The source always holds a packet; server i moves a packet to node
    i + 1 at rate lambdas[i] when it holds one and the receiver has
    room.  The joint occupancy is a continuous-time chain with
    prod(m + 1) states, solved densely.
    """
    states = list(itertools.product(*(range(m + 1) for m in buffers)))
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    h = len(lambdas)
    Q = np.zeros((n, n))
    for i, s in enumerate(states):
        for a in range(h):
            has_packet = a == 0 or s[a - 1] > 0
            has_room = a == h - 1 or s[a] < buffers[a]
            if has_packet and has_room:
                t = list(s)
                if a > 0:
                    t[a - 1] -= 1
                if a < h - 1:
                    t[a] += 1
                Q[i, index[tuple(t)]] += lambdas[a]
    Q -= np.diag(Q.sum(axis=1))
    pi = _stationary_dense(Q.T)
    return lambdas[-1] * sum(pi[i] for i, s in enumerate(states) if s[-1] > 0)


def _stationary_dense(A: np.ndarray) -> np.ndarray:
    """Solve A pi = 0 with sum(pi) = 1 (A is the transposed generator)."""
    A = A.copy()
    A[-1, :] = 1.0
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def capacity_tolerance(num_states: int, tol: float) -> float:
    """How far an exact capacity solved at tolerance ``tol`` may be from the truth.

    Power iteration stops once one step moves pi by at most ``tol``; the
    error left is about tol over the chain's spectral gap.  Small chains
    mix fast.  On the 59 049-state six-hop chain the error at tol = 1e-12
    is 8.4e-9, about 1e4 tol, so larger chains get ten times that.
    """
    return max(1e-10, (1e5 if num_states > 1000 else 1e2) * tol)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_close(what: str, value: float, ref: float, atol: float) -> None:
    _require(
        abs(value - ref) <= atol,
        f"{what}: {value!r} differs from reference {ref!r} by {abs(value - ref):.3e} > {atol:.1e}",
    )


def check_relative(what: str, value: float, ref: float, rtol: float) -> None:
    _require(
        abs(value - ref) <= rtol * abs(ref),
        f"{what}: {value!r} differs from reference {ref!r} by more than {rtol:.1%}",
    )


def check_sandwich(lower: float, exact: float, upper: float, min_cut: float, slack: float = 1e-9) -> None:
    """lower <= exact <= upper <= min_cut, each up to ``slack``."""
    _require(
        lower <= exact + slack and exact <= upper + slack and upper <= min_cut + slack,
        f"bounds out of order: lower {lower!r}, exact {exact!r}, upper {upper!r}, min_cut {min_cut!r}",
    )


def check_flow(capacity: float, interior_rates, slack: float = 1e-9) -> None:
    """Every interior link carries the capacity."""
    rates = np.asarray(interior_rates, dtype=float)
    worst = float(np.max(np.abs(rates - capacity))) if rates.size else 0.0
    _require(worst <= slack, f"interior link rates {rates.tolist()} differ from capacity {capacity!r} by {worst:.3e}")


def check_evaluated(evaluated: int, budget: int, hops: int) -> None:
    """Exhaustive search scores every positive vector with sum <= budget."""
    want = comb(budget, hops - 1)
    _require(evaluated == want, f"evaluated {evaluated} candidates, expected C({budget}, {hops - 1}) = {want}")


def check_max_throughput_winner(buffers, capacity: float, budget: int, balanced_capacity: float) -> None:
    """The winner spends the whole budget and beats the balanced split."""
    _require(sum(buffers) == budget, f"winner {list(buffers)} leaves budget unused ({sum(buffers)} of {budget})")
    _require(
        capacity >= balanced_capacity - 1e-12,
        f"winner capacity {capacity!r} below the balanced split's {balanced_capacity!r}",
    )


def check_floor(capacity: float, floor: float) -> None:
    _require(capacity >= floor, f"min-delay winner capacity {capacity!r} below the floor {floor!r}")


def check_within_se(what: str, value: float, se: float, ref: float, k: float) -> None:
    _require(
        np.isfinite(se) and abs(value - ref) <= k * se,
        f"{what}: {value!r} is {abs(value - ref) / se:.2f} standard errors from {ref!r} (limit {k})",
    )


def check_below_by_se(what: str, value: float, se: float, ref: float, k: float) -> None:
    _require(
        np.isfinite(se) and ref - value > k * se,
        f"{what}: {value!r} is not below {ref!r} by more than {k} standard errors ({se!r})",
    )


def occupancy_mean(occupancy_counts) -> float:
    """Mean total occupancy from per-node occupancy histograms."""
    total = 0.0
    samples = None
    for row in occupancy_counts:
        row = np.asarray(row, dtype=float)
        total += float(np.arange(row.size) @ row)
        samples = float(row.sum())
    return total / samples


def check_sim_little(occupancy_counts, throughput: float, delay_mean: float, rtol: float = 1e-3) -> None:
    """Little's law inside one FCFS run: mean occupancy / throughput = mean delay."""
    check_relative("occupancy / throughput vs mean delay", occupancy_mean(occupancy_counts) / throughput, delay_mean, rtol)

