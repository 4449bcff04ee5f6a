"""Discrete phase-type gaps, closed under convolution.

A gap is PH(alpha, T) on k >= 1 plus an optional point mass at zero,
``atom0``, that acts as the convolution identity.  The gap starts in
phase i with probability alpha_i; each epoch it stays in phase i with
T_ii, moves to a later phase j with T_ij, or ends with
t0_i = 1 - sum_j T_ij, so f(k) = alpha T^(k-1) t0.  A geometric(theta)
gap is the single phase T = (theta).  Convolving with a second gap
chains its phases after these, so T stays upper triangular, and a mixture
of geometrics with distinct parameters and a sum of geometrics with equal
ones are both in the family (Neuts, *Matrix-Geometric Solutions*, 1981;
Latouche & Ramaswami, 1999, ch. 2).

dbie passes one such gap per hop downstream.  The delay profile does
not use this class: its path gap is block upper bidiagonal, and
``delay`` holds it by its non-zeros.  Every entry is a non-negative
probability, and the quantities used here are sums and products of such
entries, so double precision suffices; the one difference, ``exit`` =
1 - row sum, is clipped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

__all__ = ["GeometricMixture"]


@dataclass(frozen=True, eq=False)
class GeometricMixture:
    """Immutable phase-type gap (alpha, upper-triangular T) with a mass at zero."""

    alpha: np.ndarray
    T: np.ndarray
    atom0: float

    # -- constructors ------------------------------------------------------

    @staticmethod
    def geometric(theta) -> "GeometricMixture":
        theta = float(theta)
        if not 0 < theta < 1:
            raise ValueError(f"geometric parameter {theta} outside (0, 1)")
        return GeometricMixture(np.ones(1), np.full((1, 1), theta), 0.0)

    # -- basic queries -----------------------------------------------------

    @property
    def exit(self) -> np.ndarray:
        """t0 = (I - T)1, each phase's probability of ending the gap.

        A phase that cannot end has a row sum of 1, which rounding can
        leave just above 1; its t0 is clipped to 0, not made negative.
        """
        return np.maximum(1.0 - self.T.sum(axis=1), 0.0)

    def weight_sum(self) -> float:
        return float(self.alpha.sum()) + self.atom0

    def mean(self) -> float:
        """alpha (I - T)^-1 1; back substitution adds only non-negative terms."""
        n = self.alpha.size
        return float(self.alpha @ solve_triangular(np.eye(n) - self.T, np.ones(n)))

    # -- algebra -----------------------------------------------------------

    def convolve(self, other: "GeometricMixture") -> "GeometricMixture":
        """Sum of independent gaps: ``other``'s phases follow this one's exits."""
        n = self.alpha.size
        T = np.zeros((n + other.alpha.size,) * 2)
        T[:n, :n] = self.T
        T[:n, n:] = np.outer(self.exit, other.alpha)
        T[n:, n:] = other.T
        alpha = np.concatenate([self.alpha, self.atom0 * other.alpha])
        return GeometricMixture(alpha, T, self.atom0 * other.atom0)

    def compact(self) -> "GeometricMixture":
        """Re-unitize the mass alpha 1 + atom0, which rounding can move."""
        total = self.weight_sum()
        return GeometricMixture(self.alpha / total, self.T, self.atom0 / total)

    # -- report ------------------------------------------------------------

    def to_obj(self) -> dict:
        """``alpha``, ``T`` and ``atom0`` as JSON-ready lists and a float."""
        return {"alpha": self.alpha.tolist(), "T": self.T.tolist(), "atom0": self.atom0}
