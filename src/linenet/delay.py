"""Packet-delay profile under first-come first-serve queueing.

Delay is counted from the epoch a packet is stored at the first
intermediate node to the epoch the destination receives it.  A packet
that finds i packets queued ahead waits for i + 1 effective service
completions, each geometric: a discrete phase-type gap over "services
left", entered with the waiting-position weights.  Under the standing
assumption that per-node delays are independent, the whole path is one
gap, the nodes' gaps chained by ``GeometricMixture.convolve``; its mean
and variance are closed forms, and its pmf is emitted until the mass
left falls below ``_TAIL_BUDGET``.  The occupancy seen by a stored
arrival and the blocking probabilities come from either iterative
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dbie import DistSolution
from .errors import ConsistencyError
from .mixtures import GeometricMixture
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


def _node_gap(psi_j: np.ndarray, eps_eff_j: float) -> GeometricMixture:
    """Waiting gap of one node: a psi-mixture of negative binomials.

    Phase l of the k = len(psi_j) phases has k - l services left and is
    entered with weight psi_j[k - 1 - l]; each epoch a service completes
    with probability 1 - eps_eff_j, and completing the last one ends the
    wait.
    """
    e = float(eps_eff_j)
    # at e = 1 no service ever completes and the wait would not end
    if not 0.0 <= e < 1.0:
        raise ConsistencyError(f"effective failure probability {e} outside [0, 1)")
    k = len(psi_j)
    T = np.diag(np.full(k, e)) + np.diag(np.full(k - 1, 1.0 - e), 1)
    return GeometricMixture(np.array(psi_j[::-1], dtype=float), T, 0.0)


@dataclass(frozen=True)
class DelayProfile:
    """Whole-path delay pmf, cut at ``_TAIL_BUDGET``, with its exact moments.

    ``pmf[t]`` is the probability of a total delay of t epochs, emitted
    until the mass left, ``tail_mass_dropped``, falls below the budget.
    ``mean`` and ``variance`` are the path gap's closed forms, so the cut
    does not touch them.
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
    """Chain the per-node waiting gaps into the end-to-end profile.

    The source's own head-of-line wait is excluded by default because
    the delay clock starts at storage in the first intermediate node;
    ``include_source`` puts that wait first, a one-phase gap for a
    single service of the source's head packet.
    """
    gaps = [_node_gap(inputs.psi[j], inputs.eps_eff[j]) for j in range(spec.h - 1)]
    if include_source:
        gaps.insert(0, _node_gap(np.ones(1), effective_failure(spec.eps[0], inputs.rho[0])))
    gap = reduce(GeometricMixture.convolve, gaps)
    pmf, left = gap.pmf_head(_TAIL_BUDGET)
    return DelayProfile(pmf=pmf, mean=gap.mean(), variance=gap.variance(), tail_mass_dropped=left)
