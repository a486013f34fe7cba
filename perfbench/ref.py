"""
Reference arithmetic for the benchmark's expected outputs.

Everything here is written from the definitions: GF(2^e) as polynomials
modulo the documented default moduli, PG(4,q) as the canonical 5-tuples
(first nonzero coordinate 1) in ascending lexicographic order, incidence
as a vanishing dot product, and quadratic forms as 15 coefficients c_ij
(i <= j).  Nothing here imports pg4q, so an expectation never comes from
the code it checks.  Speed only has to suffice for generating inputs.
"""

from __future__ import annotations

import hashlib
from random import Random

import numpy as np

# The moduli the PG4Q v1 header records for the default fields.
MODULI = {2: 0b11, 4: 0b111, 8: 0b1011, 16: 0b10011}

# f(x) = x0^2 + x1 x2 + x3 x4, in (0,0), (0,1), ..., (4,4) order.
MONOMIALS = tuple((i, j) for i in range(5) for j in range(i, 5))
CANONICAL_FORM = tuple(
    1 if m in ((0, 0), (1, 2), (3, 4)) else 0 for m in MONOMIALS
)
CANONICAL_NUCLEUS = (1, 0, 0, 0, 0)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Space:
    """PG(4,q) over GF(q), q = 2^e <= 16, with numpy incidence helpers."""

    def __init__(self, q: int):
        self.q = q
        self.modulus = MODULI[q]
        mul = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            for b in range(q):
                acc, x, y = 0, a, b
                while y:
                    if y & 1:
                        acc ^= x
                    x <<= 1
                    if x & q:
                        x ^= self.modulus
                    y >>= 1
                mul[a, b] = acc
        self.mul = mul
        self.inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            self.inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
        grid = np.indices((q,) * 5, dtype=np.uint8).reshape(5, -1).T
        lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
        self.points = np.ascontiguousarray(grid[lead == 1])
        self.n = len(self.points)
        self._codes = self._code(self.points)

    # -- coordinates -----------------------------------------------------

    def _code(self, arr: np.ndarray) -> np.ndarray:
        w = np.array([self.q**4, self.q**3, self.q**2, self.q, 1], dtype=np.int64)
        return arr.astype(np.int64) @ w

    def normalize(self, arr) -> np.ndarray:
        """Left-normalise nonzero vectors of shape (..., 5)."""
        arr = np.asarray(arr, dtype=np.uint8)
        pos = np.argmax(arr != 0, axis=-1)
        lead = np.take_along_axis(arr, pos[..., None], axis=-1)
        return self.mul[arr, self.inv[lead]]

    def index(self, arr) -> np.ndarray:
        """Point indices of canonical vectors of shape (..., 5)."""
        codes = self._code(np.asarray(arr))
        idx = np.minimum(np.searchsorted(self._codes, codes), self.n - 1)
        if not np.array_equal(self._codes[idx], codes):
            raise ValueError("not a canonical point of PG(4,q)")
        return idx

    def matvec(self, m, vecs: np.ndarray) -> np.ndarray:
        """Row vectors (P,5) mapped by the 5x5 matrix m: x -> m x."""
        m = np.asarray(m, dtype=np.uint8)
        out = np.zeros_like(vecs)
        for i in range(5):
            acc = np.zeros(len(vecs), dtype=np.uint8)
            for k in range(5):
                acc ^= self.mul[m[i, k], vecs[:, k]]
            out[:, i] = acc
        return out

    # -- incidence -------------------------------------------------------

    def dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(A,5) x (B,5) -> (A,B) field dot products."""
        acc = self.mul[a[:, None, 0], b[None, :, 0]]
        for i in range(1, 5):
            acc ^= self.mul[a[:, None, i], b[None, :, i]]
        return acc

    def incidences(self, covectors: np.ndarray, points: np.ndarray) -> np.ndarray:
        """For each covector, how many of the points lie in its solid."""
        out = np.zeros(len(covectors), dtype=np.int64)
        for lo in range(0, len(covectors), 512):
            block = covectors[lo : lo + 512]
            out[lo : lo + len(block)] = (self.dots(block, points) == 0).sum(axis=1)
        return out

    # -- quadratic forms -------------------------------------------------

    def evaluate(self, coeffs, vecs: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(vecs), dtype=np.uint8)
        for (i, j), c in zip(MONOMIALS, coeffs):
            if c:
                acc ^= self.mul[c, self.mul[vecs[:, i], vecs[:, j]]]
        return acc

    def compose(self, coeffs, m) -> tuple:
        """Coefficients of x -> f(m x): expand f(sum_k m_ik x_k, ...)."""
        mul = self.mul
        out = {mono: 0 for mono in MONOMIALS}
        for (i, j), c in zip(MONOMIALS, coeffs):
            if not c:
                continue
            for k in range(5):
                for l in range(5):
                    term = int(mul[c, mul[m[i][k], m[j][l]]])
                    out[(min(k, l), max(k, l))] ^= term
        return tuple(out[mono] for mono in MONOMIALS)

    def zero_set(self, coeffs) -> np.ndarray:
        return np.nonzero(self.evaluate(coeffs, self.points) == 0)[0]

    def is_scalar_multiple(self, got, want) -> bool:
        k = next(t for t, c in enumerate(want) if c)
        lam = int(self.mul[got[k], self.inv[want[k]]])
        return lam != 0 and all(
            int(self.mul[lam, w]) == g for g, w in zip(got, want)
        )

    def random_invertible(self, rng: Random):
        while True:
            m = [[rng.randrange(self.q) for _ in range(5)] for _ in range(5)]
            if self.rank(m) == 5:
                return m

    def rank(self, rows) -> int:
        rows = [list(r) for r in rows]
        mul, inv = self.mul, self.inv
        r = 0
        for c in range(len(rows[0])):
            k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if k is None:
                continue
            rows[r], rows[k] = rows[k], rows[r]
            s = inv[rows[r][c]]
            rows[r] = [int(mul[s, x]) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x ^ int(mul[f, y]) for x, y in zip(rows[i], rows[r])]
            r += 1
        return r

    # -- families and point sets -----------------------------------------

    def section_family(self, point_idx, size: int) -> np.ndarray:
        """Indices of the solids meeting the point set in exactly `size` points."""
        counts = self.incidences(self.points, self.points[point_idx])
        return np.nonzero(counts == size)[0]

    def colour_counts(self, solid_idx) -> np.ndarray:
        """For each point, how many of the given solids contain it."""
        return self.incidences(self.points, self.points[solid_idx])

    def quasi_quadric_problem(self, point_idx, nucleus) -> str | None:
        """
        Check the definition: every line through the nucleus meets K once,
        and every solid off the nucleus meets K in q^2+1 or (q+1)^2 points.
        """
        q = self.q
        nuc = np.array(nucleus, dtype=np.uint8)
        n_idx = int(self.index(nuc))
        pts = self.points[np.asarray(point_idx)]
        if n_idx in set(int(i) for i in point_idx):
            return "the nucleus lies in the set"
        # the line through N and P, as the smallest index among P + tN
        shifted = pts[:, None, :] ^ self.mul[np.arange(q)[None, :, None], nuc[None, None, :]]
        keys = self.index(self.normalize(shifted)).min(axis=1)
        if len(pts) != q**3 + q**2 + q + 1 or len(set(keys.tolist())) != len(pts):
            return "some line through the nucleus does not meet the set exactly once"
        off = self.points[(self.dots(self.points, nuc[None, :])[:, 0] != 0)]
        sizes = set(self.incidences(off, pts).tolist())
        if not sizes <= {q * q + 1, (q + 1) ** 2}:
            return f"a solid off the nucleus meets the set in {sorted(sizes)} points"
        return None

    # -- the PG4Q v1 format ----------------------------------------------

    def family_bytes(self, kind: str, idx, nucleus=None) -> bytes:
        head = f"PG4Q v1 q={self.q} mod={self.modulus} kind={kind}"
        if nucleus is not None:
            head += " nucleus=" + ",".join(str(int(x)) for x in nucleus)
        lines = [head] + [" ".join(str(int(x)) for x in self.points[i]) for i in idx]
        return ("\n".join(lines) + "\n").encode()

    def parse_family(self, data: bytes):
        """(header, record indices) of a PG4Q v1 file written by family_bytes."""
        lines = data.decode().splitlines()
        recs = np.array([[int(t) for t in ln.split()] for ln in lines[1:]], dtype=np.uint8)
        return lines[0], self.index(recs.reshape(-1, 5))
