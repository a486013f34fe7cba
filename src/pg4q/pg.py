"""
Canonical model of PG(4,q): points, solids, k-subspaces, incidence.

Representations
---------------
* Projective point: a row of ``Geometry.point_array``, the (n, 5) uint8
  array of left-normalised vectors (first nonzero coordinate 1).  The
  program names a point by its row index and finds the index of a
  vector by its code (see "Point codes"): ``point_indices`` for arrays
  it builds itself, ``index_of`` for one vector read from outside.
* Hyperplane (solid): canonical covector with the same normalisation;
  point P lies in the solid with covector c iff sum_i c_i * P_i = 0.
  The canonical covectors coincide with the canonical points, so points
  and solids share one enumeration (projective duality).
* k-subspace (line k=1, plane k=2): a row of ``SubspaceTable``, whose
  (k+1) x 5 generator matrix is in reduced row echelon form; the RREF is
  the unique canonical representative of the subspace.  Solids are
  points by duality, so no solid table is built.  The program builds no
  subspace table: it reaches every plane as a pencil row, streamed in
  runs by ``pencil_runs`` and kept by nobody, and ``plane_ranks`` names
  a reported plane by its plane-table row.
* Lines through a point N: ``nline_partition(N)``, whose row i is the
  line through N and the i-th point m with m_j = 0 (j the pivot of N)
  and whose column t is the point m + t*N.
* The tuple list ``points`` with its dict ``point_index`` (and their
  aliases ``solids``, ``solid_index``) are views built on first read;
  no program path reads them.

Enumeration orders (frozen)
---------------------------
Points and solids are listed in ascending lexicographic order of their
canonical tuples, so (0,0,0,0,1) is index 0: the pivot blocks
(0,...,0,1,free...) for pivot 4, 3, 2, 1, 0, each ascending in its free
coordinates.  Subspace tables are in ascending lexicographic order of
the flattened RREF; for planes that order only names witnesses.
Pencil rows come in pivot-block order: the 10 plane pivot blocks
(p0, p1, p2) in ``combinations`` order, each ascending in its free RREF
entries.  The blocks interleave in table order; ``plane_ranks`` maps a
row to its table index.  Reports, file formats and tests reference the
table indices; these orders must not change.

Linear algebra
--------------
Vectors and matrices over GF(q) are uint8 arrays.  Addition is XOR and
every product is a gather from the field's ``mul_table``, every inverse
one from its ``inv_table``.  ``dots`` gives the dot products of the
rows of two arrays.  ``rref`` is the one elimination: for each pivot
column it scales the pivot row by one gather through the inverse, then
clears the column in every other row by one gather and XOR.
``null_space`` reads its canonical basis off the RREF.

Point codes
-----------
The code of a vector v is sum_i v_i q^(4-i).  For q = 2^e that is five
e-bit fields side by side, and field addition is XOR, so code(u + v) =
code(u) XOR code(v).  A lazy q^5 table, filled from the q-1 nonzero
multiples of every point, maps the code of each nonzero vector to its
point index.  A plane with pivots p0 < p1 < p2, free columns f0 < f1 and
free RREF entries x has annihilator rows a = e_f0 + sum_i x[i, f0] e_pi
and b = e_f1 + sum_i x[i, f1] e_pi, and the pencil {b} ∪ {a + t*b}: per
pivot block one broadcast XOR of a (q+1, q) code table per free entry.
A block of more than _RUN_ROWS (2^15) rows is cut on its leading free
entries: their XOR gives one code column per digit prefix, and each
column starts the XOR of the remaining entries.  Consecutive pieces
merge into runs of at most _RUN_ROWS rows, and each run takes one
lookup.  So q <= 4 is one run, q=8 ten and q=16 549, and no
(M, q+1) array is built.  ``plane_ranks`` reads each flattened RREF as
one base-q number.  Every pivot block lists its rows in ascending order
of that key, so a row's plane-table index is the sum over the 10 blocks
of the number of the block's keys below its own, one binary search per
block; nothing is sorted or kept between calls.

Incidence counts
----------------
For a point set K let F(c) = sum_y (-1)^Tr(c.y), y over the nonzero
multiples of the points of K, Tr(z) = z + z^2 + ... + z^(q/2).  Since
sum_{t in GF(q)} (-1)^Tr(t*a) = q*[a = 0], every covector c has
q * #{x in K : c.x = 0} = |K| + F(c), and a value that q does not
divide raises InconsistencyError.  F is ``chi_transform`` (k = 5) of
the multiples' indicator with multiplicity.  That transform of a
(..., q^k) array over GF(q)^k, batch axes first, applies the q x q
table chi[a, b] = (-1)^Tr(ab) along each of the k coordinates: one
float32 matmul per step, copied back with that coordinate moved last
(84M multiply-adds at q=16, k = 5).  A partial sum is a signed sum of
distinct entries, at most (q-1)|K| here: float32 is exact below 2^24,
and a larger call raises ValueError before allocating.  The k <= 4
calls of the switching filter sum +-1 entries, so |Phi| <= q^k <= 2^16
needs no guard.  The dot product is symmetric, so one transform counts
the points of K in each solid and the solids of K through each point.

Pencil sums
-----------
A point off a plane P lies in exactly one of the q+1 solids through P
(the pencil of P), so for a point set X

    sum over S in the pencil of P of |X ∩ S| = q * |X ∩ P| + |X|,

and dually, for a solid set F and a line L,

    sum over x in L of #{H in F : x in H} = q * #{H in F : L ⊂ H} + |F|.

Points and solids share one enumeration, so a pencil row read as point
indices is the line ann(P), and the rows list every line exactly once
(in pivot-block order, neither plane- nor line-table order).  One
per-solid count summed over each row thus gives |X ∩ P| for every plane
and the solids of F on every line: ``pencil_totals`` takes the set
sizes of its leading per-solid count tables and yields (sum - size) / q
for them.  After its last run, a row that q does not divide raises
InconsistencyError: of the sized tables with such a row, the first in
table order names the least plane-table index among its bad rows.  A
sum of a 0/1 indicator counts the solids of F on each plane, or the
points of X on each line.

``pencil_totals`` sums several such tables in one pass over the runs.
The tables are non-negative, so a row's sum of a table is at most (q+1)
times its largest entry; each table gets a field that wide in an int64
word, packed once per pass, and one gather-add per pencil column and
word sums every field at once.  Callers reduce each run as it comes
(histograms, witnesses, per-solid bincounts) and keep no per-row table.

All Geometry state is immutable once built; derived tables (subspace
tables, incidence masks, the character and point-code tables) are
computed lazily but are pure functions of the field, so repeated or
concurrent builds are harmless.  The pencil rows, the lines through a
point and the plane ranks are not tables: each call rebuilds them by
codes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .gf import GF

# most pencil rows in one run of Geometry.pencil_runs
_RUN_ROWS = 1 << 15

__all__ = [
    "InconsistencyError",
    "Geometry",
    "SubspaceTable",
    "gaussian_binomial",
    "enumerate_points",
    "dots",
    "rref",
    "null_space",
    "histogram",
]


class InconsistencyError(RuntimeError):
    """A verification step contradicted an exact structural fact."""


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional vector subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def dots(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A, k) x (B, k) -> (A, B) field dot products of the rows of two uint8 arrays."""
    mt = field.mul_table
    acc = mt[a[:, None, 0], b[None, :, 0]]
    for i in range(1, a.shape[1]):
        acc = acc ^ mt[a[:, None, i], b[None, :, i]]
    return acc


def rref(field: GF, rows):
    """
    Reduced row echelon form of an (m, k) uint8 array over the field:
    its nonzero rows as an (r, k) uint8 array, and the pivot columns.
    """
    mt, inv = field.mul_table, field.inv_table
    a = np.array(rows, dtype=np.uint8)
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        below = a[r:, c].nonzero()[0]
        if not len(below):
            continue
        k = r + below[0]
        a[r], a[k] = a[k], a[r].copy()
        row = mt[inv[a[r, c]], a[r]]
        # a[r] is a[r, c] * row, so this clears column c in row r too
        a ^= mt[a[:, c, None], row]
        a[r] = row
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a[: len(pivots)], tuple(pivots)


def null_space(field: GF, rows) -> np.ndarray:
    """
    Canonical basis of the right null space {v : rows @ v = 0} of an
    (m, k) uint8 array: a (d, k) uint8 array with one left-normalised
    row per free column of the RREF.
    """
    red, piv = rref(field, rows)
    free = [c for c in range(red.shape[1]) if c not in piv]
    basis = np.eye(red.shape[1], dtype=np.uint8)[free]
    basis[:, list(piv)] = red[:, free].T  # char 2: -x = x
    lead = basis[np.arange(len(free)), np.argmax(basis != 0, axis=1)]
    return field.mul_table[field.inv_table[lead][:, None], basis]


def enumerate_points(field: GF) -> np.ndarray:
    """Every canonical point of PG(4,q) once, as an (n, 5) uint8 array in ascending lex order."""
    q = field.q
    blocks = []
    for pivot in range(4, -1, -1):
        nf = 4 - pivot
        block = np.zeros((q**nf, 5), dtype=np.uint8)
        block[:, pivot] = 1
        block[:, pivot + 1 :] = np.indices((q,) * nf, dtype=np.uint8).reshape(nf, q**nf).T
        blocks.append(block)
    return np.concatenate(blocks)


def _pivot_blocks(rows: int):
    """The RREF pivot blocks of `rows` rows in pivot-block order: pivots, free positions (i, c)."""
    for piv in combinations(range(5), rows):
        yield piv, [(i, c) for i in range(rows) for c in range(piv[i] + 1, 5) if c not in piv]


def _block_xor(const: np.ndarray, tables) -> np.ndarray:
    """(c, q^d): per digit tuple, in lex order, const (c,) XOR that column of each (c, q) table."""
    acc = const[:, None]
    for t in tables:
        acc = (acc[:, :, None] ^ t[:, None, :]).reshape(len(const), -1)
    return acc


def histogram(values) -> Counter:
    """
    Multiset of an integer array as a Counter {value: multiplicity}.  Meant
    for counts: it takes max - min + 1 bins.
    """
    v = np.asarray(values, dtype=np.int64).ravel()
    if not len(v):
        return Counter()
    lo = int(v.min())  # a bincount from the least value; np.unique would import np.ma
    mult = np.bincount(v - lo)
    vals = np.flatnonzero(mult)
    return Counter(dict(zip((vals + lo).tolist(), mult[vals].tolist())))


@dataclass
class SubspaceTable:
    """
    Sorted canonical table of all projective k-subspaces.

    rref     : (M, k+1, 5) uint8, canonical generator matrices in
               ascending flattened-lex order.
    ann_rows : (M, 4-k, 5) uint8, normalised basis of the annihilator;
               the subspace is the intersection of these solids.
    """

    k: int
    rref: np.ndarray
    ann_rows: np.ndarray

    @property
    def size(self) -> int:
        return self.rref.shape[0]


class Geometry:
    """
    PG(4,q) with frozen enumerations and cached incidence structure.

    point_array[i] is point i and, by duality, the covector of solid i;
    index_of and point_indices map vectors back to indices by their
    codes.  The tuple and dict views below are not used by the program.
    """

    def __init__(self, field: GF):
        self.field = field
        q = field.q
        self.point_array = enumerate_points(field)
        self.n = len(self.point_array)
        assert self.n == q**4 + q**3 + q**2 + q + 1
        self._solid_masks: list[int] | None = None
        self._weights = q ** np.arange(4, -1, -1, dtype=np.int32)
        self._chi: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._point_of_code: np.ndarray | None = None
        self._tables: dict[int, SubspaceTable] = {}

    # -- tuple views ----------------------------------------------------
    # built on first read; only perfbench's traced replays and the tests
    # read them, so a benchmark change that retargets those reads can
    # delete all four

    @cached_property
    def points(self) -> tuple:
        return tuple(map(tuple, self.point_array.tolist()))

    @cached_property
    def point_index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @property
    def solids(self) -> tuple:
        return self.points

    @property
    def solid_index(self) -> dict:
        return self.point_index

    # -- point codes -------------------------------------------------------

    def _scaled_codes(self, vecs: np.ndarray) -> np.ndarray:
        """(N, q) int32: entry [i, t] is the code of t * vecs[i], for (N, 5) uint8 rows."""
        # shifted[a, i, t]: the code of t * a placed at coordinate i
        shifts = self.field.e * np.arange(4, -1, -1, dtype=np.int32)
        shifted = self.field.mul_table.astype(np.int32)[:, None, :] << shifts[:, None]
        out = shifted[vecs[:, 0], 0]
        for i in range(1, 5):
            out ^= shifted[vecs[:, i], i]
        return out

    def _points_by_code(self) -> np.ndarray:
        """q^5 int32: the point index of each nonzero vector by its code, -1 at code 0."""
        if self._point_of_code is None:
            table = np.full(self.field.q**5, -1, dtype=np.int32)
            table[self._scaled_codes(self.point_array)[:, 1:]] = np.arange(self.n)[:, None]
            self._point_of_code = table
        return self._point_of_code

    def point_indices(self, vecs: np.ndarray) -> np.ndarray:
        """Point index of each nonzero vector of a (..., 5) uint8 array, shape vecs.shape[:-1]."""
        return self._points_by_code()[vecs @ self._weights]

    def index_of(self, vec) -> int:
        """Point index of one vector; ValueError unless it is nonzero with entries in [0, q)."""
        q = self.field.q
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (5,) or not v.any() or v.min() < 0 or v.max() >= q:
            raise ValueError(f"{vec} is not a nonzero vector with entries in [0, {q})")
        return int(self.point_indices(v))

    # -- incidence kernels ---------------------------------------------

    def _characters(self):
        """chi[a, b] = (-1)^Tr(ab) as float32 and the base-q point codes, built on first use."""
        if self._chi is None:
            mt = self.field.mul_table
            tr = z = np.arange(self.field.q)
            for _ in range(self.field.e - 1):
                z = mt[z, z]
                tr = tr ^ z
            self._chi = (1 - 2 * tr[mt]).astype(np.float32)
            self._codes = self.point_array.astype(np.int64) @ self._weights
        return self._chi, self._codes

    def chi_transform(self, f: np.ndarray, k: int) -> np.ndarray:
        """chi transform of f's last axis (q^k), in place for C-contiguous float32 f."""
        q, chi = self.field.q, self._characters()[0]
        f = np.ascontiguousarray(f, dtype=np.float32)
        rest = f.shape[-1] // q
        buf = np.empty_like(f)
        for _ in range(k):
            np.matmul(chi, f.reshape(-1, q, rest), out=buf.reshape(-1, q, rest))
            np.copyto(f.reshape(-1, rest, q), buf.reshape(-1, q, rest).swapaxes(1, 2))
        return f

    def incidence_counts_per_solid(self, point_indices) -> np.ndarray:
        """
        For each solid, how many of the given points it contains, with
        multiplicity.  By duality the same call gives, for each point,
        how many of the given solids contain it; see "Incidence counts"
        for the ValueError at (q-1)|K| >= 2^24.
        """
        q = self.field.q
        idx = np.asarray(list(point_indices), dtype=np.int64)
        if (q - 1) * len(idx) >= 2**24:
            raise ValueError(f"{len(idx)} indices exceed the exact float32 range at q={q}")
        # distinct points have disjoint nonzero multiples, so assigning
        # each point's multiplicity at its multiples' codes is exact
        mult = np.bincount(idx, minlength=self.n)
        pts = np.flatnonzero(mult)
        f = np.zeros(q**5, dtype=np.float32)
        f[self._scaled_codes(self.point_array[pts])[:, 1:]] = mult[pts, None]
        num = len(idx) + self.chi_transform(f, 5)[self._characters()[1]].astype(np.int64)
        bad = np.flatnonzero(num % q)
        if len(bad):
            raise InconsistencyError(f"character sum at covector {bad[0]} is not divisible by q")
        return num // q

    # the same kernel under its dual name; only perfbench's
    # pg.incidence_counts_per_point probe reads it
    incidence_counts_per_point = incidence_counts_per_solid

    def solids_through_point(self, point_idx: int) -> np.ndarray:
        pt = self.point_array[point_idx : point_idx + 1]
        d = dots(self.field, pt, self.point_array)[0]
        return np.nonzero(d == 0)[0]

    @property
    def solid_masks(self) -> list[int]:
        """Per solid, a bitmask over point indices of its point set."""
        if self._solid_masks is None:
            masks: list[int] = []
            for lo in range(0, self.n, 1024):
                block = self.point_array[lo : lo + 1024]
                inc = dots(self.field, self.point_array, block) == 0
                packed = np.packbits(inc, axis=0, bitorder="little")
                for j in range(inc.shape[1]):
                    masks.append(int.from_bytes(packed[:, j].tobytes(), "little"))
            self._solid_masks = masks
        return self._solid_masks

    # -- subspace enumeration --------------------------------------------

    def subspace_table(self, k: int) -> SubspaceTable:
        """
        Canonical sorted table of all lines (k=1) or planes (k=2), built once;
        only perfbench's subspace-table probes and the tests build it.
        """
        if k not in (1, 2):
            raise ValueError("subspace dimension must be 1 or 2")
        if k in self._tables:
            return self._tables[k]
        q = self.field.q
        k1 = k + 1
        blocks, ann_blocks = [], []
        for pivots, free_pos in _pivot_blocks(k1):
            nf = len(free_pos)
            count = q**nf
            digits = np.indices((q,) * nf, dtype=np.uint8).reshape(nf, count)
            arr = np.zeros((count, k1, 5), dtype=np.uint8)
            for i in range(k1):
                arr[:, i, pivots[i]] = 1
            for (i, c), d in zip(free_pos, digits):
                arr[:, i, c] = d
            free_cols = [c for c in range(5) if c not in pivots]
            ann = np.zeros((count, len(free_cols), 5), dtype=np.uint8)
            for t, f in enumerate(free_cols):
                ann[:, t, f] = 1
                for i in range(k1):
                    ann[:, t, pivots[i]] = arr[:, i, f]
            blocks.append(arr)
            ann_blocks.append(ann)
        rr = np.concatenate(blocks)
        an = np.concatenate(ann_blocks)
        # flattened-lex order: the row codes read as one number in base q^5
        order = np.argsort((rr @ self._weights).astype(np.int64) @ q ** (5 * np.arange(k, -1, -1)))
        ann_rows = self.point_array[self.point_indices(an[order])]
        tab = SubspaceTable(k=k, rref=rr[order], ann_rows=ann_rows)
        assert tab.size == gaussian_binomial(5, k1, q)
        self._tables[k] = tab
        return tab

    def pencil_runs(self):
        """
        The pencil rows in pivot-block order, as consecutive (m, q+1) int32
        runs with contiguous columns: for each plane, the indices of the q+1
        solids containing it, in no order within the row.  Read as point
        indices, a row is the line ann(P); see "Pencil sums".  A block of
        more than _RUN_ROWS rows splits on its leading free digits, and
        consecutive small blocks merge, so no run exceeds _RUN_ROWS rows.
        """
        q, e = self.field.q, self.field.e
        mt = self.field.mul_table.astype(np.intp)
        # column 0 of a row is the code of b, column 1+t that of a + t*b:
        # a digit of a scales by (0, 1, ..., 1), one of b by (1, 0, 1, ..., q-1)
        by_a, by_b = mt[[0] + [1] * q], mt[[1, *range(q)]]
        budget, pending, rows = _RUN_ROWS, [], 0

        def run():
            codes = pending[0] if len(pending) == 1 else np.concatenate(pending, axis=1)
            return self._points_by_code()[codes].T

        for piv, free in _pivot_blocks(3):
            f0, f1 = (c for c in range(5) if c not in piv)
            const = (by_a[:, 1] << e * (4 - f0)) ^ (by_b[:, 1] << e * (4 - f1))
            tables = [(by_a if c == f0 else by_b) << e * (4 - piv[i]) for i, c in free]
            lead = 0
            while q ** (len(tables) - lead) > budget:
                lead += 1
            size = q ** (len(tables) - lead)
            for head in _block_xor(const, tables[:lead]).T:
                if rows + size > budget:
                    yield run()
                    pending, rows = [], 0
                pending.append(_block_xor(head, tables[lead:]))
                rows += size
        yield run()

    def pencil_totals(self, tables, sizes=()):
        """
        Per run of ``pencil_runs``: its first row, the run, and for each of k
        non-negative (n,) integer tables an (m,) int64 array, the sum of the
        table's entries over each row.  The tables are packed once into int64
        words, each field as wide as the bit length of (q+1) * max(table), so
        one gather-add per pencil column and word sums them all.  The first
        len(sizes) tables are per-solid counts of sets of those sizes, and for
        them the arrays are (sum - size) / q; see "Pencil sums" for the
        InconsistencyError raised after the last run.
        """
        q, e = self.field.q, self.field.e
        words, fields, shift = [], [], 64
        for t in tables:
            t = np.asarray(t, dtype=np.int64)
            width = ((q + 1) * int(t.max(initial=0))).bit_length()
            if t.min(initial=0) < 0 or width > 63:
                raise ValueError("a packed table must be non-negative and fit 63 bits per row")
            if shift + width > 63:
                words.append(np.zeros(self.n, dtype=np.int64))
                shift = 0
            words[-1] |= t << shift
            fields.append((len(words) - 1, shift, (1 << width) - 1))
            shift += width
        start, bad = 0, [[] for _ in sizes]
        for run in self.pencil_runs():
            sums = []
            for w in words:
                acc = w[run[:, 0]]
                for c in range(1, q + 1):
                    acc += w[run[:, c]]
                sums.append(acc)
            totals = [sums[i] >> s & m for i, s, m in fields]
            for j, size in enumerate(sizes):
                num = totals[j] - size
                bad[j].append(start + np.flatnonzero(num & (q - 1)))  # q = 2^e
                totals[j] = num >> e
            yield start, run, totals
            start += len(run)
        for rows in map(np.concatenate, bad):
            if len(rows):
                plane = self.plane_ranks(rows).min()
                raise InconsistencyError(f"pencil sum of plane {plane} is not divisible by q")

    def plane_pencils(self) -> np.ndarray:
        """
        (M, q+1) int32: every run of ``pencil_runs``, concatenated.  Only
        perfbench's pg.plane_pencils probe and the tests call it.
        """
        return np.concatenate(list(self.pencil_runs()))

    def plane_ranks(self, rows) -> np.ndarray:
        """Plane-table index of each given pencil row; see "Point codes"."""
        e, digits = self.field.e, np.arange(self.field.q, dtype=np.int64)[None]
        blocks = [_block_xor(np.array([sum(1 << e * (14 - 5 * i - p) for i, p in enumerate(piv))]),
                             [digits << e * (14 - 5 * i - c) for i, c in free])[0]
                  for piv, free in _pivot_blocks(3)]
        rows = np.asarray(rows, dtype=np.int64)
        keys, start = np.zeros(len(rows), dtype=np.int64), 0
        for b in blocks:  # each row's key from its own block: no (M,) concatenation
            inside = (start <= rows) & (rows < start + len(b))
            keys[inside] = b[rows[inside] - start]
            start += len(b)
        return sum(np.searchsorted(b, keys) for b in blocks)

    def nline_partition(self, point_idx: int) -> np.ndarray:
        """
        (q^3+q^2+q+1, q) intp: the lines through point N, which partition the
        other points, laid out as in "Representations".  Column 0 holds the
        least index of each row, ascending, so rows are in canonical order.
        """
        npt = self.point_array[point_idx]
        meet = self.point_array[self.point_array[:, np.argmax(npt != 0)] == 0]
        return self.point_indices(meet[:, None, :] ^ self.field.mul_table[:, npt]).astype(np.intp)

    def __repr__(self) -> str:
        return f"Geometry(q={self.field.q}, points={self.n})"
