import os

# One BLAS/OpenMP thread: the level elimination's many small solves slow
# down several-fold when BLAS threads compete for the cores with another
# process (notes/decisions.md).  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import strategies as st

from linenet.mixtures import GeometricMixture
from linenet.model import NetworkSpec


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


def step1(kernel, s, x, spec: NetworkSpec) -> tuple[int, ...]:
    """Apply a batch kernel (transfer indicators or a chain step) to one state."""
    out = kernel(
        np.asarray([s], dtype=np.int64),
        np.asarray(x, dtype=np.int64),
        np.asarray(spec.buffers, dtype=np.int64),
    )
    return tuple(int(v) for v in out[0])


@pytest.fixture(scope="session")
def paper_four_hop() -> NetworkSpec:
    return NetworkSpec((0.5, 0.4999, 0.4998, 0.4), (5, 5, 5))


def diagonal_mixture(pairs) -> GeometricMixture:
    """The mixture sum_l p_l geometric(theta_l) as a diagonal phase-type gap."""
    ps, thetas = zip(*pairs)
    return GeometricMixture(np.array(ps, dtype=float), np.diag(np.array(thetas, dtype=float)), 0.0)


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
