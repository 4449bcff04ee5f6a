"""Domain types for finite-buffer erasure line networks.

A line network with ``h`` hops is a chain ``v_0 -> v_1 -> ... -> v_h``:
``v_0`` is the source (always backlogged), ``v_h`` the destination
(unbounded storage), and the ``h - 1`` intermediate nodes hold at most
``buffers[j]`` packets each.  Time is slotted; in each epoch every link
independently delivers its packet with probability ``1 - eps[link]``.

Indexing conventions: arrays are 0-based internally (``eps[i]`` is the
erasure probability of the link out of ``v_i``; ``buffers[j]`` and
occupancy ``s[j]`` belong to node ``v_{j+1}``).  State indices exposed
by :func:`state_index` / :func:`index_state` are 1-based to match the
row-index convention used in reports; file interfaces are 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .errors import InvalidStateError, SpecValidationError

__all__ = ["NetworkSpec", "state_index", "index_state"]


def _entries(values, name: str, kinds: tuple, what: str) -> tuple:
    """Entries converted by ``kinds[0]``; a bool, None, string or other entry
    not of ``kinds`` is refused, not converted."""
    out = []
    for j, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, kinds):
            raise SpecValidationError(f"{name}[{j}]={v!r} must be {what}")
        out.append(kinds[0](v))
    return tuple(out)


_NUMBERS = (float, int, np.floating, np.integer)


def _buffer_sizes(buffers: Sequence[int]) -> tuple[int, ...]:
    """Buffer sizes as Python ints; a non-integer entry is refused, not truncated."""
    return _entries(buffers, "buffer size buffers", (int, np.integer), "an integer")


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of one line network.

    Parameters
    ----------
    eps
        Per-link erasure probabilities, one per hop, each strictly inside
        (0, 1).  Boundary values are rejected rather than clamped.
    buffers
        Positive buffer sizes of the ``h - 1`` intermediate nodes.
    """

    eps: tuple[float, ...]
    buffers: tuple[int, ...]

    def __post_init__(self):
        eps = _entries(self.eps, "erasure probability eps", _NUMBERS, "a number")
        buffers = _buffer_sizes(self.buffers)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "buffers", buffers)
        if len(eps) < 2:
            raise SpecValidationError("a line network needs at least 2 hops")
        if len(buffers) != len(eps) - 1:
            raise SpecValidationError(
                f"expected {len(eps) - 1} buffer sizes for {len(eps)} hops, "
                f"got {len(buffers)}"
            )
        for i, e in enumerate(eps):
            if not 0.0 < e < 1.0:
                raise SpecValidationError(
                    f"erasure probability eps[{i}]={e!r} must be strictly inside (0, 1)"
                )
        for j, m in enumerate(buffers):
            if m < 1:
                raise SpecValidationError(f"buffer size buffers[{j}]={m} must be >= 1")

    @property
    def h(self) -> int:
        """Number of hops."""
        return len(self.eps)

    @property
    def num_states(self) -> int:
        """Size of the joint occupancy state space, prod(m_j + 1)."""
        return prod(m + 1 for m in self.buffers)

    @property
    def min_cut(self) -> float:
        """Infinite-buffer throughput ceiling min_i (1 - eps[i])."""
        return min(1.0 - e for e in self.eps)

    def with_buffers(self, buffers: Sequence[int]) -> "NetworkSpec":
        return NetworkSpec(self.eps, buffers)

    # -- JSON document interface: {"eps": [...], "buffers": [...]} --

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkSpec":
        try:
            eps, buffers = tuple(doc["eps"]), tuple(doc["buffers"])
        except (KeyError, TypeError) as exc:
            raise SpecValidationError(
                'network document must carry "eps" and "buffers" arrays'
            ) from exc
        return cls(eps, buffers)

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"malformed network JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path) -> "NetworkSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_dict(self) -> dict:
        return {"eps": list(self.eps), "buffers": list(self.buffers)}


def _check_state(s: Sequence[int], spec: NetworkSpec) -> tuple[int, ...]:
    s = tuple(int(v) for v in s)
    if len(s) != spec.h - 1:
        raise InvalidStateError(
            f"state has {len(s)} components, expected {spec.h - 1}"
        )
    for j, (v, m) in enumerate(zip(s, spec.buffers)):
        if not 0 <= v <= m:
            raise InvalidStateError(f"state component s[{j}]={v} outside [0, {m}]")
    return s


def state_index(s: Sequence[int], spec: NetworkSpec) -> int:
    """Map an occupancy vector to its canonical 1-based row index.

    The first component varies fastest: index = 1 + s_1 + sum_i s_i *
    prod_{j<i} (m_j + 1).  The map is a bijection onto 1..num_states.
    """
    s = _check_state(s, spec)
    idx = 0
    weight = 1
    for v, m in zip(s, spec.buffers):
        idx += v * weight
        weight *= m + 1
    return idx + 1


def index_state(k: int, spec: NetworkSpec) -> tuple[int, ...]:
    """Inverse of :func:`state_index` (mixed-radix decomposition)."""
    k = int(k)
    if not 1 <= k <= spec.num_states:
        raise InvalidStateError(f"index {k} outside 1..{spec.num_states}")
    rem = k - 1
    out = []
    for m in spec.buffers:
        rem, v = divmod(rem, m + 1)
        out.append(v)
    return tuple(out)


def _radix_weights(buffers) -> np.ndarray:
    """Weight of each node's occupancy in the 0-based index of :func:`state_index`."""
    return np.concatenate(([1], np.cumprod(np.asarray(buffers, dtype=np.int64) + 1)[:-1]))


def enumerate_states(spec: NetworkSpec) -> np.ndarray:
    """All occupancy vectors as an (num_states, h-1) array in index order."""
    n = spec.num_states
    out = np.empty((n, spec.h - 1), dtype=np.int64)
    rem = np.arange(n, dtype=np.int64)
    for j, m in enumerate(spec.buffers):
        out[:, j] = rem % (m + 1)
        rem //= m + 1
    return out


def effective_failure(eps, pb):
    """Per-epoch probability that a node's head packet fails to depart.

    Departure needs a channel success (erasure probability ``eps``) and
    no downstream blocking (probability ``pb``), so the failure
    probability is eps + (1 - eps) pb.  Takes floats or numpy arrays.
    """
    return eps + (1.0 - eps) * pb


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; distinct seeds give independent streams.

    The seed is Philox's 128-bit key, so it must lie in [0, 2^128).
    """
    if not 0 <= seed < 1 << 128:
        raise SpecValidationError(f"seed {seed} must lie in [0, 2^128)")
    return np.random.Generator(np.random.Philox(key=seed))
