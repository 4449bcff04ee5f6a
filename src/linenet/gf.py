"""Binary-extension Galois field arithmetic on numpy arrays.

Supports GF(2), GF(2^4), GF(2^8) and GF(2^16) through exp/log tables
over a primitive element; addition is bitwise xor in characteristic 2.
Vector operations work elementwise on uint32 arrays so row updates and
eliminations stay vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GF2m", "SUPPORTED_FIELD_SIZES"]

SUPPORTED_FIELD_SIZES = (2, 16, 256, 65536)

# primitive polynomials (bitmask includes the leading term)
_PRIMITIVE_POLY = {
    2: 0b11,               # x + 1
    16: 0b10011,           # x^4 + x + 1
    256: 0b100011101,      # x^8 + x^4 + x^3 + x^2 + 1
    65536: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}


class GF2m:
    """Field of size q = 2^k with table-based multiplication."""

    def __init__(self, q: int):
        if q not in SUPPORTED_FIELD_SIZES:
            raise ValueError(f"field size {q} not in supported set {SUPPORTED_FIELD_SIZES}")
        self.q = q
        poly = _PRIMITIVE_POLY[q]
        exp = np.zeros(2 * (q - 1), dtype=np.uint32)
        log = np.zeros(q, dtype=np.uint32)
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v <<= 1
            if v & q:
                v ^= poly
        if v != 1:
            raise ValueError(f"polynomial {poly:#x} is not primitive for q={q}")
        exp[q - 1 :] = exp[: q - 1]
        self._exp = exp
        self._log = log

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.uint32)
        b = np.asarray(b, dtype=np.uint32)
        out = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), np.uint32(0), out)

    def inv(self, a):
        a = np.asarray(a, dtype=np.uint32)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no inverse")
        return self._exp[(self.q - 1) - self._log[a]]

    def axpy(self, c, x, y):
        """y + c * x elementwise (xor accumulate)."""
        return np.bitwise_xor(y, self.mul(np.uint32(c), x))

    def random_elements(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(0, self.q, size=size, dtype=np.uint32)


def rank(gf: GF2m, rows: np.ndarray) -> int:
    """Row-space rank via destructive echelon reduction."""
    work = [r.copy() for r in np.asarray(rows, dtype=np.uint32)]
    pivots: dict[int, np.ndarray] = {}
    r = 0
    for v in work:
        v = _reduce(gf, v, pivots)
        nz = np.nonzero(v)[0]
        if nz.size:
            c = int(nz[0])
            pivots[c] = gf.mul(gf.inv(v[c]), v)
            r += 1
    return r


def _reduce(gf: GF2m, v: np.ndarray, pivots: dict[int, np.ndarray]) -> np.ndarray:
    while True:
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return v
        c = int(nz[0])
        piv = pivots.get(c)
        if piv is None:
            return v
        v = gf.axpy(v[c], piv, v)
