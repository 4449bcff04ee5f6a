"""Signed mixtures of geometric distributions, closed under convolution.

A mixture is f(k) = sum_l p_l (1 - theta_l) theta_l^(k-1) on k >= 1,
with real (possibly negative, possibly huge) weights summing to 1, plus
an optional point mass at zero that acts as the convolution identity.
Convolving two single geometrics with distinct parameters is again a
two-term mixture, which keeps the family closed as long as parameters
never collide.

Weights routinely reach 1e5 and beyond with catastrophic cancellation,
so all arithmetic is done in mpmath extended precision; callers choose
the working precision with ``mpmath.mp.workdps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from mpmath import mp, mpf

from .errors import DistinctParamError

__all__ = ["GeometricMixture"]

# compact() drops terms whose mean contribution is below this share of the mean
_COMPACT_FLOOR = 1e-20
# validate() samples the pmf up to k = _VALIDATE_K; rounding may leave it at
# -_VALIDATE_SLACK
_VALIDATE_K = 10**4
_VALIDATE_SLACK = 1e-9


@dataclass(frozen=True)
class GeometricMixture:
    """Immutable signed geometric mixture with an optional mass at zero."""

    terms: tuple[tuple[mpf, mpf], ...]
    atom0: mpf = mpf(0)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def geometric(theta) -> "GeometricMixture":
        theta = mpf(theta)
        if not 0 < theta < 1:
            raise ValueError(f"geometric parameter {theta} outside (0, 1)")
        return GeometricMixture(terms=((mpf(1), theta),))

    @staticmethod
    def identity() -> "GeometricMixture":
        return GeometricMixture(terms=(), atom0=mpf(1))

    @staticmethod
    def from_terms(pairs: Iterable[tuple], atom0=0) -> "GeometricMixture":
        return GeometricMixture(
            terms=tuple((mpf(p), mpf(t)) for p, t in pairs), atom0=mpf(atom0)
        )

    # -- basic queries -----------------------------------------------------

    def weight_sum(self) -> mpf:
        return self.atom0 + sum((p for p, _ in self.terms), mpf(0))

    def mean(self) -> mpf:
        return sum((p / (1 - t) for p, t in self.terms), mpf(0))

    def pmf(self, k: int) -> mpf:
        if k == 0:
            return self.atom0
        if k < 0:
            return mpf(0)
        return sum((p * (1 - t) * t ** (k - 1) for p, t in self.terms), mpf(0))

    # -- algebra -----------------------------------------------------------

    def scaled(self, c) -> "GeometricMixture":
        c = mpf(c)
        return GeometricMixture(
            terms=tuple((p * c, t) for p, t in self.terms), atom0=self.atom0 * c
        )

    def plus(self, other: "GeometricMixture") -> "GeometricMixture":
        merged: dict[mpf, mpf] = {}
        for p, t in self.terms + other.terms:
            merged[t] = merged.get(t, mpf(0)) + p
        terms = tuple((p, t) for t, p in sorted(merged.items(), key=lambda kv: -float(kv[0])))
        return GeometricMixture(terms=terms, atom0=self.atom0 + other.atom0)

    def convolve(self, other: "GeometricMixture") -> "GeometricMixture":
        """Bilinear expansion; parameters across the factors must differ."""
        acc: dict[mpf, mpf] = {}

        def add(theta: mpf, w: mpf) -> None:
            acc[theta] = acc.get(theta, mpf(0)) + w

        for p, lam in self.terms:
            for q, mu in other.terms:
                if lam == mu:
                    raise DistinctParamError(
                        f"coincident geometric parameters {lam}; perturb before convolving"
                    )
                add(mu, p * q * (1 - lam) / (mu - lam))
                add(lam, p * q * (1 - mu) / (lam - mu))
        if other.atom0 != 0:
            for p, lam in self.terms:
                add(lam, p * other.atom0)
        if self.atom0 != 0:
            for q, mu in other.terms:
                add(mu, q * self.atom0)
        return GeometricMixture(
            terms=tuple((p, t) for t, p in sorted(acc.items(), key=lambda kv: -float(kv[0]))),
            atom0=self.atom0 * other.atom0,
        )

    def compact(self) -> "GeometricMixture":
        """Drop terms contributing negligibly to the mean, re-unitize weights.

        A term's contribution scale is |p|/(1-theta); terms below
        ``_COMPACT_FLOOR`` times the mixture mean magnitude are removed
        and the weight sum is rescaled back to exactly 1.
        """
        scale = abs(self.mean())
        if scale == 0:
            return self
        kept = tuple(
            (p, t) for p, t in self.terms if abs(p) / (1 - t) >= _COMPACT_FLOOR * scale
        )
        out = GeometricMixture(terms=kept, atom0=self.atom0)
        total = out.weight_sum()
        if total == 0:
            return out
        return out.scaled(1 / total)

    # -- validation / report ------------------------------------------------

    def validate(self) -> None:
        """Assert unit weight, nonnegative pmf and a positive finite mean."""
        if abs(float(self.weight_sum()) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {self.weight_sum()}")
        mean = self.mean()
        if not mp.isfinite(mean) or mean <= 0:
            raise ValueError(f"mixture mean {mean} not positive and finite")
        k = 1
        while k <= _VALIDATE_K:
            if self.pmf(k) < -_VALIDATE_SLACK:
                raise ValueError(f"mixture pmf negative at k={k}: {self.pmf(k)}")
            k = k * 2 if k >= 64 else k + 1

    def to_obj(self) -> list[dict]:
        """The terms as JSON-ready dicts; the zero atom has ``theta`` None."""
        out = [{"p": float(p), "theta": float(t)} for p, t in self.terms]
        if self.atom0 != 0:
            out.append({"p": float(self.atom0), "theta": None})
        return out
