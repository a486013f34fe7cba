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
PG(3,q): quotient point u_i is row i of nline_partition(N), with the
point (t, u_i) in column t.  A transversal is a choice function t = h(u)
with h(s*u) = s*h(u), its point set one gather from that array.  Solids
off N are exactly the covectors (1, a), and such a solid meets a
transversal K_h in #{u : h(u) = a.u} points.  The canonical quadric is
h(u) = sqrt(u1*u2 + u3*u4).  Switching keeps h at the quadric values
outside one chosen tangent solid (a plane W of the quotient) and
replaces the values on W; candidates that pass a vectorised count
filter are re-verified from scratch by the raw predicate before being
reported.

Switching filter
----------------
Extend values h on W to GF(q)^3 by h(t*w) = t*h(w).  Each point of W
adds q-1 or -1 to Phi(r) = sum_w (-1)^Tr(h(w) + l_r(w)) as h agrees
with l_r there or not, so the agreement is A(r) = q+1 + Phi(r)/q.  On
every build _Quotient checks that the quadric's solid counts off W
leave the two-column law (InconsistencyError if not): A in {1, 2q+1}
on R0, the q^2 forms l_r with no w2 term (r % q == 0), and q+1 off it,
i.e. Phi = +-q^2 on R0 and 0 off it.  For a candidate h = f + l_s,
Phi_(f,s)(r) = Phi_f(r ^ s), indices being e-bit base-q digits side by
side, so one transform of f decides its q^3 shifts: they pass on the
class s % q where |Phi_f| = q^2 throughout, or on none (by Parseval,
Phi_f is then 0 off that class).  Then Tr(h) is bent on GF(q)^2 and
constant on the cosets of <(0,0,1)>: h is hbar(w0, w1) with
(hbar(p) : p), p in PG(1,q), an oval of PG(2,q) with nucleus (1:0:0).

A search's budget counts candidates of a stream: the quadric's section
(candidate 0), then sqrt(g) + l_s for the q^6 ternary quadratic forms g
in ascending coefficient order (c00, c01, c02, c11, c12, c22), each with
its q^3 shifts s, 1 + q^9 in all.  As sqrt is additive, sqrt(g) + l_s =
sqrt(b) + l_t with b = c01*w0*w1 + c02*w0*w2 + c12*w1*w2 and
t = s ^ (sqrt c00, sqrt c11, sqrt c22), first reached at candidate
1 + (c01*q^4 + c02*q^3 + c12*q)*q^3 + t; the quadric's section is
sqrt(w0*w1) + l_0.  So search_quasi walks the q^3 forms b and decides
each distinct candidate once.  For q >= 4, (b, t) -> sqrt(b) + l_t is
injective on W (a ternary form of degree < q in each variable is fixed
by its values), so the walk needs no duplicate check.  The whole
stream's passes are the conics sqrt(c*w0*w1) + l_r with c != 0 and
r in R0: (q-1)q^2 finds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pg import Geometry, InconsistencyError, dots
from .quadric import QuadraticForm, fit_quadratic_form

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
    canonical order: ("line", its q points off N sorted, hits) or
    ("solid", index, size).  A zero or out-of-range nucleus raises
    ValueError.
    """
    q = geom.field.q
    n_idx = geom.index_of(cand.nucleus)
    pts = frozenset(int(i) for i in cand.points)
    if n_idx in pts:
        return False, ("nucleus-in-set", n_idx)
    lines = geom.nline_partition(n_idx)
    member = np.zeros(geom.n, dtype=bool)
    member[list(pts)] = True
    hits = member[lines].sum(axis=1)
    if (hits != 1).any():
        i = int(np.argmax(hits != 1))
        return False, ("line", tuple(sorted(lines[i].tolist())), int(hits[i]))
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
    Enumerate all 2^15 transversals h of the lines through the fixed
    nucleus of PG(4,2), keep those bent on GF(2)^4 (the solid (1, a)
    meets K_h in 7 + Phi(a)/2 points, 5 or 9 iff |Phi(a)| = 4), re-verify
    each survivor from the raw definition, and attach a fitted form.
    Order: ascending choice code; bit i picks the larger point on line i.
    """
    if geom.field.q != 2:
        raise ValueError("the exhaustive search is only feasible at q = 2")
    quot = _Quotient(geom)
    # bit i of the code is h(u_i): the larger point (1, u_i) of line i
    rows = _digits(np.arange(1 << 15), 2, 15)[:, ::-1]
    bent = (np.abs(quot.spectrum(rows, quot.us)) == 4).all(axis=1)
    return [_verified_hit(geom, quot.candidate_points(rows[c])) for c in np.flatnonzero(bent)]


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
        self.field, self.geom = field, geom
        mt = field.mul_table
        self.lines = geom.nline_partition(geom.index_of(SEARCH_NUCLEUS))
        us = self.us = geom.point_array[self.lines[:, 0], 1:]
        # canonical quadric transversal: t(u) = sqrt(u1 u2 + u3 u4)
        self.base = field.sqrt_table[mt[us[:, 0], us[:, 1]] ^ mt[us[:, 2], us[:, 3]]]
        # the first solid through the nucleus is (0,0,0,0,1): u4 = 0
        self.w_ids = np.flatnonzero(us[:, 3] == 0)
        self.w_pts = us[self.w_ids, :3]
        self.base_w = self.base[self.w_ids]
        # outside[a]: agreement of the quadric with a.u off W.  The solids (1, a) are
        # the last q^4 points in a's lex order; on W they meet it in on_w[a // q].
        sizes = geom.incidence_counts_per_solid(self.candidate_points(self.base))
        on_w = q + 1 + self.spectrum(self.base_w[None], self.w_pts)[0].astype(np.int64) // q
        outside = sizes[-(q**4) :] - np.repeat(on_w, q)
        # good[a, i]: with agreement i on W, the solid (1, a) meets the candidate
        # in q^2+1 or (q+1)^2 points; l_r allows i iff every a with a // q = r does
        i = np.arange(self.w_pts.shape[0] + 1)
        good = np.abs(outside[:, None] + i - (q * q + q + 1)) == q
        law = np.where(np.arange(q**3)[:, None] % q, i == q + 1, (i == 1) | (i == 2 * q + 1))
        bad = np.flatnonzero((good.reshape(q**3, q, -1).all(axis=1) != law).any(axis=1))
        if len(bad):
            raise InconsistencyError(f"quadric solid counts break the two-column law at l_{bad[0]}")

    def spectrum(self, values: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(B, q^k) float32 Phi of each row h = values[b] on the (m, k) projective points."""
        q, k = self.field.q, points.shape[1]
        # h(t*p) = t*h(p): the multiple t*p takes chi[t, h(p)] = chi[h(p), t]
        codes = self.field.mul_table[:, points].astype(np.int64) @ q ** np.arange(k - 1, -1, -1)
        f = np.ones((len(values), q**k), dtype=np.float32)
        f[:, codes.T] = self.geom._characters()[0][values]
        return self.geom.chi_transform(f, k)

    def passing_shifts(self, bases: np.ndarray, shifts: int) -> np.ndarray:
        """
        (B, shifts) mask: entry (b, s) says whether the value vector
        bases[b] + l_s on W passes the count filter; see "Switching filter".
        """
        q = self.field.q
        # phi[b, r // q, r % q]: class c passes iff |phi| = q^2 on all of it
        phi = self.spectrum(bases, self.w_pts).reshape(len(bases), q * q, q)
        return (np.abs(phi) == q * q).all(axis=1)[:, np.arange(shifts) % q]

    def candidate_points(self, values: np.ndarray) -> frozenset:
        """Point indices of the transversal with value values[i] at quotient point i."""
        return frozenset(self.lines[np.arange(len(self.lines)), values].tolist())


def _digits(codes: np.ndarray, q: int, width: int) -> np.ndarray:
    """Base-q digits of each code, most significant first, as uint8 rows."""
    powers = q ** np.arange(width - 1, -1, -1)
    return (codes[:, None] // powers % q).astype(np.uint8)


def search_quasi(geom: Geometry, strategy: str, seed: int = 0, budget: int = 20000):
    """
    Budget-bounded search for quasi-quadrics at q in {4, 8} by replacing
    the canonical quadric's section of one tangent solid.  Each distinct
    candidate (b, t) whose first stream index is below the budget is
    decided once, and the passes come in ascending first index (see
    "Switching filter"; a budget of 1 + q^9 covers the whole stream).
    Every returned candidate is re-verified from scratch by
    is_quasi_quadric and labelled with a fitted form (None marks a
    non-quadric example).  The only strategy is "switching"; any other
    raises ValueError.  The result is a function of the budget alone:
    ``seed`` has no effect and is kept so callers can pass it through.
    An empty result just means the budget ran out; a negative budget
    raises ValueError.
    """
    q = geom.field.q
    if q not in (4, 8):
        raise ValueError("search supports q = 4 and q = 8")
    if strategy != "switching":
        raise ValueError(f"unknown strategy {strategy!r}")
    if budget < 0:
        raise ValueError(f"the budget must be non-negative, not {budget}")
    quot = _Quotient(geom)
    field, w, shifts = quot.field, quot.w_pts, q**3
    mt = field.mul_table
    # row j of coeffs is (c01, c02, c12) of b; first[j, t] is where the stream first meets (b, t)
    coeffs = _digits(np.arange(shifts), q, 3)
    first = 1 + (coeffs.astype(np.int64) @ (q**4, q**3, q))[:, None] * shifts + np.arange(shifts)
    first[q * q, 0] = 0  # sqrt(w0 w1) + l_0: the quadric's own section
    live = first < budget
    kept = np.flatnonzero(live.any(axis=1))
    mono = np.stack([mt[w[:, 0], w[:, 1]], mt[w[:, 0], w[:, 2]], mt[w[:, 1], w[:, 2]]], axis=1)
    bases = field.sqrt_table[dots(field, coeffs[kept], mono)]
    b, t = np.nonzero(quot.passing_shifts(bases, shifts) & live[kept])
    order = np.argsort(first[kept[b], t])
    rows = bases[b[order]] ^ dots(field, _digits(t[order], q, 3), w)
    hits = []
    for row in rows:
        values = quot.base.copy()
        values[quot.w_ids] = row
        hits.append(_verified_hit(geom, quot.candidate_points(values)))
    return hits
