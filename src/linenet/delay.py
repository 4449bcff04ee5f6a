"""Packet-delay profile under first-come first-serve queueing.

Delay is counted from the epoch a packet is stored at the first
intermediate node to the epoch the destination receives it.  A packet
that finds k packets queued ahead waits for k + 1 effective service
completions, each geometric; the per-node waiting pmfs are therefore
mixtures of negative binomials, and the whole-path profile is their
convolution under the standing assumption that per-node delays are
independent.  The occupancy seen by a stored arrival and the blocking
probabilities come from either iterative estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dbie import DistSolution
from .errors import ConsistencyError, TruncationError
from .model import NetworkSpec, effective_failure
from .rbie import RateSolution

__all__ = [
    "NodeDelayInputs",
    "psi_rho_from_rbie",
    "psi_rho_from_dbie",
    "node_delay",
    "delay_profile",
]

# the profile may drop at most _TAIL_BUDGET of mass; each factor's support
# is cut where its own tail falls below _FACTOR_TAIL
_TAIL_BUDGET = 1e-6
_FACTOR_TAIL = 1e-9
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


def node_delay(psi_j: np.ndarray, eps_eff_j: float) -> np.ndarray:
    """Waiting pmf of one node: a psi-mixture of negative binomials.

    The wait is a discrete phase-type gap over "i + 1 services left",
    entered with weight psi_j[i]; each epoch a service completes with
    probability 1 - eps_eff_j, and completing the last one ends the wait.
    The pmf is emitted epoch by epoch until the mass left is below
    ``_FACTOR_TAIL``.
    """
    e = float(eps_eff_j)
    # at e = 1 no service ever completes and the recursion would not end
    if not 0.0 <= e < 1.0:
        raise ConsistencyError(f"effective failure probability {e} outside [0, 1)")
    v = np.array(psi_j[::-1], dtype=float)  # v[-1]: one service left
    out = [0.0]
    while v.sum() >= _FACTOR_TAIL:
        out.append((1.0 - e) * v[-1])
        v[1:] = e * v[1:] + (1.0 - e) * v[:-1]
        v[0] *= e
    return np.array(out)


@dataclass(frozen=True)
class DelayProfile:
    """Truncated whole-path delay pmf with its moments.

    ``pmf[t]`` is the probability of a total delay of t epochs; the
    tracked truncated tail mass stays within the profile budget.
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
    """Convolve the per-node waiting pmfs into the end-to-end profile.

    The source's own head-of-line wait is excluded by default because
    the delay clock starts at storage in the first intermediate node;
    ``include_source`` prepends that wait, a single service of the
    source's head packet.
    """
    factors = [
        node_delay(inputs.psi[j], inputs.eps_eff[j]) for j in range(spec.h - 1)
    ]
    if include_source:
        factors.insert(0, node_delay(np.ones(1), effective_failure(spec.eps[0], inputs.rho[0])))
    pmf = factors[0]
    for f in factors[1:]:
        pmf = np.convolve(pmf, f)
    dropped = 1.0 - float(pmf.sum())
    if dropped > _TAIL_BUDGET:
        raise TruncationError(
            f"delay profile dropped {dropped:.3e} of mass, over budget {_TAIL_BUDGET}"
        )
    ts = np.arange(pmf.size)
    mean = float(ts @ pmf) / float(pmf.sum())
    var = float((ts - mean) ** 2 @ pmf) / float(pmf.sum())
    return DelayProfile(pmf=pmf, mean=mean, variance=var, tail_mass_dropped=dropped)
