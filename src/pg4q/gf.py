"""
Exact arithmetic in GF(2^e) for e in {1, 2, 3, 4}.

Field elements are integers in [0, 2^e) read in the polynomial basis:
bit i is the coefficient of x^i.  Addition is XOR.  Multiplication is a
carry-less product reduced modulo an irreducible modulus; all products
and inverses are precomputed into lookup tables at construction (q <= 16,
so the tables are tiny).

Default moduli are fixed so that every enumeration order and file format
downstream is reproducible:

    e=1: 0b11      (x + 1)
    e=2: 0b111     (x^2 + x + 1)
    e=3: 0b1011    (x^3 + x + 1)
    e=4: 0b10011   (x^4 + x + 1)
"""

from __future__ import annotations

import numpy as np

__all__ = ["GF", "DEFAULT_MODULI"]

DEFAULT_MODULI = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011}

_SUPPORTED_E = (1, 2, 3, 4)


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_rem(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[x], both encoded as bitmasks."""
    dm = _poly_degree(m)
    while a and _poly_degree(a) >= dm:
        a ^= m << (_poly_degree(a) - dm)
    return a


def _clmul(a: int, b: int) -> int:
    """Carry-less (polynomial) product over GF(2)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _is_irreducible(m: int, e: int) -> bool:
    # A reducible polynomial of degree e has a factor of degree <= e // 2,
    # so for e <= 4 trial division by all polynomials of degree 1 and 2
    # suffices.
    for d in range(2, 1 << (e // 2 + 1)):
        if _poly_rem(m, d) == 0:
            return False
    return True


class GF:
    """
    Arithmetic context for GF(2^e).

    Parameters
    ----------
    e : int
        Extension degree; the field has q = 2^e elements.
    modulus : int or None
        Irreducible polynomial as a bitmask with bit e set.  None selects
        the default from DEFAULT_MODULI.

    The context is immutable after construction and all operations are
    pure, so a single instance may be shared freely across threads.
    """

    def __init__(self, e: int, modulus: int | None = None):
        if e not in _SUPPORTED_E:
            raise ValueError(f"supported exponents are {_SUPPORTED_E}, got e={e}")
        if modulus is None:
            modulus = DEFAULT_MODULI[e]
        modulus = int(modulus)
        if _poly_degree(modulus) != e:
            raise ValueError(f"modulus 0b{modulus:b} does not have degree {e}")
        if not _is_irreducible(modulus, e):
            raise ValueError(f"modulus 0b{modulus:b} is reducible over GF(2)")
        self.e = e
        self.q = 1 << e
        self.modulus = modulus

        q = self.q
        mul = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            for b in range(a, q):
                p = _poly_rem(_clmul(a, b), modulus)
                mul[a, b] = p
                mul[b, a] = p
        self.mul_table = mul
        self._mul = [[int(x) for x in row] for row in mul]

        self._inv = [0] + [self._mul[a].index(1) for a in range(1, q)]

        # Squaring is the Frobenius automorphism, hence a bijection; the
        # inverse map gives unique square roots.
        sqrt = np.zeros(q, dtype=np.uint8)
        for a in range(q):
            sqrt[self._mul[a][a]] = a
        self.sqrt_table = sqrt

    @classmethod
    def from_order(cls, q: int, modulus: int | None = None) -> "GF":
        """Build the field of order q = 2^e from q itself."""
        e = q.bit_length() - 1
        if q < 2 or (1 << e) != q:
            raise ValueError(f"field order must be a power of 2, got {q}")
        return cls(e, modulus)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and (self.e, self.modulus) == (other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.e, self.modulus))

    def __repr__(self) -> str:
        return f"GF(e={self.e}, q={self.q}, modulus=0b{self.modulus:b})"
