"""Packet-delay profile under first-come first-serve queueing.

Delay is counted from the epoch a packet is stored at the first
intermediate node to the epoch the destination receives it.  A packet
that finds i packets queued ahead waits for i + 1 effective service
completions, each geometric: a discrete phase-type gap over "services
left", entered with the waiting-position weights.  Under the standing
assumption that per-node delays are independent, the path's mean and
variance are sums of the nodes' closed forms.  Its pmf comes from the
whole path as one gap, the nodes' blocks chained so that each node's
last service enters the next node's block; that gap's T is block upper
bidiagonal and is held by its non-zeros alone.  The pmf is emitted
until the mass left falls below ``_TAIL_BUDGET``.  The occupancy seen
by a stored arrival and the blocking probabilities come from either
iterative estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dbie import DistSolution
from .errors import ConsistencyError
from .model import NetworkSpec, effective_failure
from .rbie import RateSolution

__all__ = [
    "NodeDelayInputs",
    "psi_rho_from_rbie",
    "psi_rho_from_dbie",
    "delay_profile",
]

# the profile's pmf is emitted until the mass left falls below this
_TAIL_BUDGET = 1e-9
# a waiting distribution may miss unit mass, or dip below zero, by this much
_PSI_SLACK = 1e-9


@dataclass(frozen=True)
class NodeDelayInputs:
    """Waiting-position and blocking estimates feeding the profile.

    ``psi[j][i]`` is the probability a packet stored at intermediate
    node j finds i packets ahead of it; ``rho[k]`` the blocking
    probability of node v_{k+1} (zero at the destination); and
    ``eps_eff[j]`` the per-epoch probability that node j's head packet
    fails to advance, blocking included.  Each waiting distribution
    must sum to one and carry no negative mass; construction raises
    :class:`ConsistencyError` otherwise.
    """

    psi: list[np.ndarray]
    rho: np.ndarray
    eps_eff: np.ndarray

    def __post_init__(self) -> None:
        # written so that a NaN entry is rejected too
        for j, p in enumerate(self.psi):
            if not abs(float(p.sum()) - 1.0) <= _PSI_SLACK:
                raise ConsistencyError(f"waiting distribution {j} sums to {p.sum()}")
            if not float(p.min()) >= -_PSI_SLACK:
                raise ConsistencyError(f"waiting distribution {j} has negative mass")


def _effective_failures(spec: NetworkSpec, rho: np.ndarray) -> np.ndarray:
    return effective_failure(np.array(spec.eps[1:]), rho[1:])


def psi_rho_from_rbie(sol: RateSolution, spec: NetworkSpec) -> NodeDelayInputs:
    """Waiting distributions implied by the rate-based fixed point.

    A stored arrival at occupancy i either saw i with no departure this
    epoch or i+1 with one; conditioning removes the blocked case
    (full and no departure), which contributes the denominator.
    """
    rho = sol.pb.copy()
    eps_eff = _effective_failures(spec, rho)
    psi = []
    for j in range(spec.h - 1):
        m = spec.buffers[j]
        phi = sol.phi[j]
        e = eps_eff[j]
        denom = 1.0 - phi[m] * e
        p = np.empty(m)
        p[0] = (phi[0] + phi[1] * (1.0 - e)) / denom
        for i in range(1, m):
            p[i] = (phi[i] * e + phi[i + 1] * (1.0 - e)) / denom
        psi.append(p)
    return NodeDelayInputs(psi=psi, rho=rho, eps_eff=eps_eff)


def psi_rho_from_dbie(sol: DistSolution, spec: NetworkSpec) -> NodeDelayInputs:
    """Waiting distributions from the post-arrival occupancy chains."""
    rho = sol.pb.copy()
    eps_eff = _effective_failures(spec, rho)
    psi = []
    for j in range(spec.h - 1):
        m = spec.buffers[j]
        pi = sol.pi_embedded[j]
        pb = rho[j]
        p = np.empty(m)
        p[: m - 1] = pi[: m - 1] / (1.0 - pb)
        p[m - 1] = (pi[m - 1] - pb) / (1.0 - pb)
        # written so that a NaN entry is rejected too
        if not float(p.min()) >= -_PSI_SLACK:
            raise ConsistencyError(f"waiting distribution {j} has negative mass {p.min()}")
        psi.append(np.maximum(p, 0.0))
    return NodeDelayInputs(psi=psi, rho=rho, eps_eff=eps_eff)


def _path_operator(nodes: list[tuple[np.ndarray, float]]) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The path gap's stacked operator [T^T; t0^T; 1^T] and its entry law.

    Node j's block has one phase per service left: a phase stays with
    e_j and moves on with 1 - e_j, and node j's last service enters node
    j + 1's block with psi_{j+1} reversed, or ends the gap at the last
    node.  T is block upper bidiagonal, so the operator is assembled
    from its non-zeros, about three per phase.
    """
    n = sum(psi.size for psi, _ in nodes)
    # (row, column, value) triples of the operator; its last row sums the mass left
    triples = [(np.full(n, n + 1), np.arange(n), np.ones(n))]
    end = 0
    for j, (psi, e) in enumerate(nodes):
        phases = np.arange(end, end + psi.size)
        end += psi.size
        nxt = nodes[j + 1][0][::-1] if j + 1 < len(nodes) else np.ones(1)
        triples += [
            (phases, phases, np.full(psi.size, e)),
            (phases[1:], phases[:-1], np.full(psi.size - 1, 1.0 - e)),
            # past the last block, row n is the exit vector t0
            (np.arange(end, end + nxt.size), np.full(nxt.size, end - 1), (1.0 - e) * nxt),
        ]
    rows, cols, vals = map(np.concatenate, zip(*triples))
    alpha = np.zeros(n)
    alpha[: nodes[0][0].size] = nodes[0][0][::-1]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n + 2, n)), alpha


def _pmf_head(step: sparse.csr_matrix, alpha: np.ndarray) -> tuple[np.ndarray, float]:
    """f(0) = 0, f(1), ... and the mass left, once that mass is below ``_TAIL_BUDGET``.

    One forward recursion over v = alpha T^(k-1) on the stacked operator
    ``step``: each epoch emits f(k) = v t0 while the mass left,
    v 1 = P(gap >= k), is at least the budget.  A step costs one product
    over T's non-zeros.  It ends only if every phase can reach an exit.
    """
    n = alpha.size
    out = [0.0]
    w = step @ alpha
    while w[n + 1] >= _TAIL_BUDGET:
        out.append(w[n])
        w = step @ w[:n]
    return np.array(out), float(w[n + 1])


@dataclass(frozen=True)
class DelayProfile:
    """Whole-path delay pmf, cut at ``_TAIL_BUDGET``, with its exact moments.

    ``pmf[t]`` is the probability of a total delay of t epochs, emitted
    until the mass left, ``tail_mass_dropped``, falls below the budget.
    ``mean`` and ``variance`` are sums of the nodes' closed forms, so the
    cut does not touch them.
    """

    pmf: np.ndarray
    mean: float
    variance: float
    tail_mass_dropped: float

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)


def delay_profile(
    spec: NetworkSpec,
    inputs: NodeDelayInputs,
    include_source: bool = False,
) -> DelayProfile:
    """Chain the per-node waits into the end-to-end profile.

    The source's own head-of-line wait is excluded by default because
    the delay clock starts at storage in the first intermediate node;
    ``include_source`` puts that wait first, a single service of the
    source's head packet.
    """
    nodes = [(np.asarray(inputs.psi[j], dtype=float), float(inputs.eps_eff[j])) for j in range(spec.h - 1)]
    if include_source:
        nodes.insert(0, (np.ones(1), float(effective_failure(spec.eps[0], inputs.rho[0]))))
    mean = variance = 0.0
    for psi, e in nodes:
        # at e = 1 no service ever completes and the wait would not end
        if not 0.0 <= e < 1.0:
            raise ConsistencyError(f"effective failure probability {e} outside [0, 1)")
        # K = i + 1 services, each geometric with mean 1 / (1 - e) and variance e / (1 - e)^2
        k = np.arange(1, psi.size + 1)
        ek = float(psi @ k)
        mean += ek / (1.0 - e)
        variance += (ek * e + float(psi @ (k - ek) ** 2)) / (1.0 - e) ** 2
    pmf, left = _pmf_head(*_path_operator(nodes))
    return DelayProfile(pmf=pmf, mean=mean, variance=variance, tail_mass_dropped=left)
