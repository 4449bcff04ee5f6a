"""Binary-extension Galois field arithmetic on numpy arrays.

Supports GF(2), GF(2^4), GF(2^8) and GF(2^16) through exp/log tables
over a primitive element; addition is bitwise xor in characteristic 2.
Vector operations work elementwise on uint32 arrays so row updates and
eliminations stay vectorized.

The tables use the zero-sentinel layout: ``log[0]`` is 2(q-1), an index
past every sum of two nonzero logs, and ``exp`` is zero from there on,
so a product with a zero operand reads 0 without a mask.  The tables are
built once per field size and shared read-only by every instance.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SpecValidationError

__all__ = ["GF2m", "SUPPORTED_FIELD_SIZES"]

SUPPORTED_FIELD_SIZES = (2, 16, 256, 65536)

# primitive polynomials (bitmask includes the leading term)
_PRIMITIVE_POLY = {
    2: 0b11,               # x + 1
    16: 0b10011,           # x^4 + x + 1
    256: 0b100011101,      # x^8 + x^4 + x^3 + x^2 + 1
    65536: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}


@functools.cache
def _tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only exp and log tables of GF(q), built once per process."""
    poly = _PRIMITIVE_POLY[q]
    zero = 2 * (q - 1)
    # nonzero sums stay below ``zero``; any sum with a zero log lands in
    # the zero tail, whose last index is log[0] + log[0]
    exp = np.zeros(2 * zero + 1, dtype=np.uint32)
    log = np.full(q, zero, dtype=np.intp)
    v = 1
    for i in range(q - 1):
        exp[i] = v
        log[v] = i
        v <<= 1
        if v & q:
            v ^= poly
    if v != 1:
        raise ValueError(f"polynomial {poly:#x} is not primitive for q={q}")
    exp[q - 1 : zero] = exp[: q - 1]
    exp.flags.writeable = False
    log.flags.writeable = False
    return exp, log


class GF2m:
    """Field of size q = 2^k with table-based multiplication."""

    def __init__(self, q: int):
        if q not in SUPPORTED_FIELD_SIZES:
            raise SpecValidationError(f"field size {q} not in supported set {SUPPORTED_FIELD_SIZES}")
        self.q = q
        self._exp, self._log = _tables(q)

    def mul(self, a, b):
        return self.mul_logs(self._log.take(a), b)

    def logs(self, a) -> np.ndarray:
        """The table logs of ``a`` as int32, ready for :meth:`mul_logs`."""
        return self._log.take(a).astype(np.int32)

    def mul_logs(self, la, b):
        """Product of the elements whose logs are ``la`` with ``b``.

        Every log in ``la`` must be reduced, as the table's are: at most
        q - 2 for a nonzero element and exactly 2(q - 1) for zero.  A sum
        of two logs is not reduced; multiply out and take logs again.
        """
        return self._exp.take(la + self._log.take(b))

    def exps(self, la):
        """The elements whose reduced logs are ``la``; inverse of :meth:`logs`."""
        return self._exp.take(la)

    def quotient_logs(self, a, b):
        """Reduced logs of ``a / b``, ``b`` a nonzero scalar, for :meth:`mul_logs`.

        log a + (q - 1 - log b) is at most 2q - 3 for a nonzero ``a``, inside
        ``exp``'s periodic part; a zero ``a`` lands in its zero tail."""
        return self._log.take(self._exp.take(self._log.take(a) + (self.q - 1 - self._log[b])))

    def inv(self, a):
        a = np.asarray(a, dtype=np.uint32)
        if not a.all():
            raise ZeroDivisionError("zero has no inverse")
        return self._exp.take((self.q - 1) - self._log.take(a))

    def random_elements(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(0, self.q, size=size, dtype=np.uint32)


def rank(gf: GF2m, rows: np.ndarray, pivots: dict[int, np.ndarray] | None = None) -> int:
    """Rank of the span of ``rows`` and of the basis in ``pivots``.

    Echelon reduction against ``pivots`` (leading column -> normalized
    row), which grows in place by every row found independent, so a
    caller can read the ranks of growing row sets in one pass.
    """
    if pivots is None:
        pivots = {}
    for v in np.asarray(rows, dtype=np.uint32):
        v = _reduce(gf, v, pivots)
        nz = np.nonzero(v)[0]
        if nz.size:
            c = int(nz[0])
            pivots[c] = gf.mul(gf.inv(v[c]), v)
    return len(pivots)


def _reduce(gf: GF2m, v: np.ndarray, pivots: dict[int, np.ndarray]) -> np.ndarray:
    while True:
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return v
        c = int(nz[0])
        piv = pivots.get(c)
        if piv is None:
            return v
        v = v ^ gf.mul(v[c], piv)
