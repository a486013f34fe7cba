"""
Quasi-quadrics: predicate, switching search, and the converse count.

A candidate is a point set K with a distinguished nucleus N.  It is a
(parabolic) quasi-quadric when every line through N meets K exactly
once and every solid not through N meets K in q^2+1 or (q+1)^2 points.
The point set of any non-singular parabolic quadric together with its
nucleus qualifies; at q = 2 these are the only examples, which the
exhaustive search below reproduces.

Searches fix the nucleus at (1,0,0,0,0): any candidate nucleus can be
moved there by a collineation, so nothing is lost and the space shrinks.
Lines through N are then in bijection with the points u of a quotient
PG(3,q), the line over u carrying the points (t, u) for t in GF(q); a
transversal is a choice function t = h(u) with h(s*u) = s*h(u).  Solids
off N are exactly the covectors (1, a), and such a solid meets a
transversal K_h in #{u : h(u) = a.u} points.  The canonical quadric is
h(u) = sqrt(u1*u2 + u3*u4).  Switching keeps h at the quadric values
outside one chosen tangent solid (a plane W of the quotient) and
replaces the values on W; candidates that pass a vectorised count
filter are re-verified from scratch by the raw predicate before being
reported.

Switching filter
----------------
Candidate values on W are sqrt(g) + l_s for a ternary quadratic form g
and a linear form l_s.  Such a candidate agrees with l_r exactly where
sqrt(g) agrees with l_r + l_s = l_(r+s), so its agreement vector over
the q^3 linear forms is the form's own vector A_g translated:
A_(g,s)(r) = A_g(r + s).  Indices concatenate the e-bit base-q digits,
so the index of r + s is the XOR of the two indices.  A_g costs
q^3 * |W| compares once per form; every shift s then passes iff
allowed[A_g(r ^ s), r] holds for all r, a q^3 gather per candidate
instead of q^3 * |W| compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import fit_quadratic_form
from .pg import Geometry, InconsistencyError, dots
from .quadric import QuadraticForm

__all__ = [
    "QuasiCandidate",
    "QuasiHit",
    "ConverseCounts",
    "is_quasi_quadric",
    "solids_meeting_in",
    "verify_converse_lemma",
    "exhaustive_search_q2",
    "search_quasi",
]

SEARCH_NUCLEUS = (1, 0, 0, 0, 0)


@dataclass(frozen=True)
class QuasiCandidate:
    """A point set (as indices) with its claimed nucleus (canonical tuple)."""

    points: frozenset
    nucleus: tuple


@dataclass(frozen=True)
class QuasiHit:
    """A verified quasi-quadric; form is None when no quadric fits it."""

    candidate: QuasiCandidate
    form: QuadraticForm | None


@dataclass(frozen=True)
class ConverseCounts:
    family_size: int
    member_count: int
    nonmember_count: int
    nucleus_count: int


def is_quasi_quadric(geom: Geometry, cand: QuasiCandidate):
    """
    Test the definition directly.  Returns (True, None) or (False,
    witness) where the witness names the first failing line or solid in
    canonical order.  A zero or out-of-range nucleus raises ValueError.
    """
    q = geom.field.q
    n_idx = geom.index_of(cand.nucleus)
    pts = frozenset(int(i) for i in cand.points)
    if n_idx in pts:
        return False, ("nucleus-in-set", n_idx)
    for line in geom.nline_partition(n_idx):
        hits = sum(1 for p in line if p in pts)
        if hits != 1:
            return False, ("line", line, hits)
    sizes = geom.incidence_counts_per_solid(pts)
    bad = (sizes != q * q + 1) & (sizes != (q + 1) ** 2)
    bad[geom.solids_through_point(n_idx)] = False
    if bad.any():
        s = int(np.argmax(bad))
        return False, ("solid", s, int(sizes[s]))
    return True, None


def solids_meeting_in(geom: Geometry, point_indices, size: int) -> tuple:
    """Sorted indices of the solids meeting the point set in exactly `size` points."""
    counts = geom.incidence_counts_per_solid(point_indices)
    return tuple(int(i) for i in np.nonzero(counts == size)[0])


def verify_converse_lemma(geom: Geometry, cand: QuasiCandidate) -> ConverseCounts:
    """
    For a verified quasi-quadric, the family of its (q+1)^2-secant
    solids covers each member point (q^3+q^2)/2 times, each other point
    except the nucleus q^3/2 times, and the nucleus never.  Any
    deviation raises, since the counting argument forces these values.
    """
    q = geom.field.q
    ok, witness = is_quasi_quadric(geom, cand)
    if not ok:
        raise ValueError(f"candidate is not a quasi-quadric: {witness}")
    fam = solids_meeting_in(geom, cand.points, (q + 1) ** 2)
    counts = geom.incidence_counts_per_solid(fam)
    n_idx = geom.index_of(cand.nucleus)
    member_t = (q**3 + q**2) // 2
    other_t = q**3 // 2
    member = np.zeros(geom.n, dtype=bool)
    member[list(cand.points)] = True
    expected = np.where(member, member_t, other_t)
    expected[n_idx] = 0
    bad = np.flatnonzero(counts != expected)
    if len(bad):
        i = int(bad[0])
        kind = "nucleus" if i == n_idx else "member point" if member[i] else "point"
        raise InconsistencyError(f"{kind} {i} lies in {counts[i]} != {expected[i]} secant solids")
    return ConverseCounts(
        family_size=len(fam),
        member_count=member_t,
        nonmember_count=other_t,
        nucleus_count=0,
    )


def exhaustive_search_q2(geom: Geometry):
    """
    Enumerate all 2^15 transversals of the lines through the fixed
    nucleus of PG(4,2), keep those meeting every solid off the nucleus
    in 5 or 9 points, re-verify each survivor from the raw definition,
    and attach a fitted quadratic form.  Order: ascending choice code,
    where bit i of the code picks the larger point on line i.
    """
    if geom.field.q != 2:
        raise ValueError("the exhaustive search is only feasible at q = 2")
    quot = _Quotient(geom)
    # bit i of the code is h(u_i): the larger point (1, u_i) of line i
    rows = _digits(np.arange(1 << 15), 2, 15)[:, ::-1]
    # the solid (1, a) meets the transversal where h(u) = a.u
    forms = dots(geom.field, _digits(np.arange(16), 2, 4), quot.us)
    agree = (rows[:, None, :] == forms[None, :, :]).sum(axis=2)
    passing = ((agree == 5) | (agree == 9)).all(axis=1)
    return [_verified_hit(geom, quot.candidate_points(rows[c])) for c in np.flatnonzero(passing)]


def _verified_hit(geom: Geometry, points: frozenset) -> QuasiHit:
    """A filter survivor, re-verified from the definition and given its fitted form."""
    cand = QuasiCandidate(points=points, nucleus=SEARCH_NUCLEUS)
    ok, witness = is_quasi_quadric(geom, cand)
    if not ok:
        raise InconsistencyError(f"count filter accepted a non-example: {witness}")
    return QuasiHit(cand, fit_quadratic_form(geom, points))


# -- quotient machinery for the searches --------------------------------


class _Quotient:
    """Lines through the fixed nucleus, coordinatised by PG(3,q)."""

    def __init__(self, geom: Geometry):
        field = geom.field
        q = field.q
        self.geom = geom
        self.field = field
        mt = field.mul_table
        # canonical quotient points in lex order: the points (0, u) lead
        # the lex order of PG(4,q)
        us = self.us = geom.point_array[: (q**4 - 1) // (q - 1), 1:]
        # canonical quadric transversal: t(u) = sqrt(u1 u2 + u3 u4)
        self.base = field.sqrt_table[mt[us[:, 0], us[:, 1]] ^ mt[us[:, 2], us[:, 3]]]
        # the first solid through the nucleus is (0,0,0,0,1): u4 = 0
        self.w_ids = np.flatnonzero(us[:, 3] == 0)
        self.w_pts = us[self.w_ids, :3]
        self.base_w = self.base[self.w_ids]
        # w_linear_values[r]: l_r on W, (q^3, |W|)
        self.w_linear_values = dots(field, _digits(np.arange(q**3), q, 3), self.w_pts)
        # outside[a]: agreement of the quadric with a.u off W.  The solids
        # (1, a) are the last q^4 points in a's lex order, and their
        # counts of the quadric include the agreement on W with l_(a // q).
        sizes = geom.incidence_counts_per_solid(self.candidate_points(self.base))
        on_w = (self.w_linear_values == self.base_w).sum(axis=1)
        outside = sizes[-(q**4) :] - np.repeat(on_w, q)
        # allowed[i, r]: agreement i with l_r on W is compatible with
        # every solid (1, a) restricting to l_r; r = a // q in product order
        total = outside[:, None] + np.arange(self.w_pts.shape[0] + 1)[None, :]
        good = (total == q * q + 1) | (total == (q + 1) ** 2)
        self.allowed = np.ascontiguousarray(good.reshape(q**3, q, -1).all(axis=1).T)
        t = np.arange(q**3)
        # pairs[s, t]: flat index of (t, t ^ s) in a (q^3, q^3) table
        self.pairs = t[None, :] * q**3 + (t[None, :] ^ t[:, None])

    def passing_shifts(self, bases: np.ndarray, shifts: int) -> np.ndarray:
        """
        (B, shifts) mask: entry (b, s) says whether the value vector
        bases[b] + l_s on W passes the count filter; see "Switching filter".
        """
        q3 = len(self.pairs)
        chunk = max(1, (1 << 20) // q3**2)
        out = []
        for lo in range(0, len(bases), chunk):
            block = bases[lo : lo + chunk]
            agree = (block[:, None, :] == self.w_linear_values[None, :, :]).sum(axis=2)
            # table[b, t, r] = allowed[agree[b, t], r]; shift s passes
            # iff table[b, t, t ^ s] holds for every t
            table = self.allowed[agree].reshape(len(block), -1)
            out.append(np.take(table, self.pairs[:shifts], axis=1).all(axis=2))
        return np.concatenate(out)

    def candidate_points(self, values: np.ndarray) -> frozenset:
        """Point indices of the transversal with value values[i] at quotient point i."""
        vecs = np.concatenate([values[:, None], self.us], axis=1)
        return frozenset(self.geom.point_indices(vecs).tolist())


def _digits(codes: np.ndarray, q: int, width: int) -> np.ndarray:
    """Base-q digits of each code, most significant first, as uint8 rows."""
    powers = q ** np.arange(width - 1, -1, -1)
    return (codes[:, None] // powers % q).astype(np.uint8)


def _switching_stream(quot: _Quotient, budget: int):
    """
    Deterministic stream of (bases, shifts) blocks standing for the
    value vectors bases[b] + l_s on W, s < shifts, in row-major order:
    first the quadric's own section, then sqrt(ternary quadratic) plus
    each of the q^3 linear forms, forms in ascending coefficient order.
    """
    field = quot.field
    q = field.q
    mt = field.mul_table
    w = quot.w_pts
    monomials = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    mono = np.stack([mt[w[:, i], w[:, j]] for i, j in monomials], axis=1)  # (|W|, 6)
    shifts = q**3
    yield quot.base_w[None, :], 1
    seen = 1
    g_block = 512
    for lo in range(0, q**6, g_block):
        if seen >= budget:
            return
        forms_left = (budget - seen + shifts - 1) // shifts
        hi = min(lo + g_block, q**6, lo + forms_left)
        vals = dots(field, _digits(np.arange(lo, hi), q, 6), mono)
        seen += (hi - lo) * shifts
        yield field.sqrt_table[vals], shifts


def search_quasi(geom: Geometry, strategy: str, seed: int = 0, budget: int = 20000):
    """
    Budget-bounded search for quasi-quadrics at q in {4, 8} by replacing
    the canonical quadric's section of one tangent solid.  Every
    returned candidate is re-verified from scratch by is_quasi_quadric
    and labelled with a fitted form (None marks a non-quadric example).
    The only strategy is "switching"; any other raises ValueError.  The
    result is a function of the budget alone: ``seed`` has no effect and
    is kept so callers can pass it through.  An empty result just means
    the budget ran out.
    """
    q = geom.field.q
    if q not in (4, 8):
        raise ValueError("search supports q = 4 and q = 8")
    if strategy != "switching":
        raise ValueError(f"unknown strategy {strategy!r}")
    quot = _Quotient(geom)
    hits = []
    seen_rows = set()
    evaluated = 0
    lin = quot.w_linear_values
    for bases, shifts in _switching_stream(quot, budget):
        mask = quot.passing_shifts(bases, shifts)
        for b, s in zip(*np.nonzero(mask)):
            if evaluated + b * shifts + s >= budget:
                break
            row = bases[b] ^ lin[s]
            key = row.tobytes()
            if key in seen_rows:
                continue
            seen_rows.add(key)
            values = quot.base.copy()
            values[quot.w_ids] = row
            hits.append(_verified_hit(geom, quot.candidate_points(values)))
        evaluated += len(bases) * shifts
    return hits
