"""
Quasi-quadrics: predicate, switching construction, and search.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random

import numpy as np

from .families import fit_quadratic_form
from .pg import Geometry, InconsistencyError, normalize
from .quadric import QuadraticForm, nucleus, zero_set

__all__ = [
    "QuasiCandidate",
    "QuasiHit",
    "ConverseCounts",
    "is_quasi_quadric",
    "solids_meeting_in",
    "verify_converse_lemma",
    "switch",
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
    canonical order.
    """
    q = geom.field.q
    n_pt = normalize(geom.field, cand.nucleus)
    if n_pt is None:
        raise ValueError("nucleus must be a nonzero vector")
    n_idx = geom.point_index[n_pt]
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
    counts = geom.incidence_counts_per_point(fam)
    n_idx = geom.point_index[normalize(geom.field, cand.nucleus)]
    member_t = (q**3 + q**2) // 2
    other_t = q**3 // 2
    for i in range(geom.n):
        c = int(counts[i])
        if i == n_idx:
            if c != 0:
                raise InconsistencyError(f"nucleus lies in {c} secant solids")
        elif i in cand.points:
            if c != member_t:
                raise InconsistencyError(f"member point {i} lies in {c} != {member_t}")
        elif c != other_t:
            raise InconsistencyError(f"point {i} lies in {c} != {other_t}")
    return ConverseCounts(
        family_size=len(fam),
        member_count=member_t,
        nonmember_count=other_t,
        nucleus_count=0,
    )


def switch(geom: Geometry, form: QuadraticForm, tangent, replacement) -> QuasiCandidate:
    """
    Replace the quadric's section of one tangent solid by an arbitrary
    subset of that solid.  The result is only a candidate: validity is
    not guaranteed and callers must run is_quasi_quadric.
    """
    n_pt = nucleus(form)
    n_idx = geom.point_index[n_pt]
    if isinstance(tangent, int):
        t_idx = tangent
    else:
        t_idx = geom.solid_index[tuple(tangent)]
    if not geom.point_in_solid(n_idx, t_idx):
        raise ValueError("the chosen solid does not contain the nucleus")
    repl = {int(i) for i in replacement}
    if n_idx in repl:
        raise ValueError("replacement must not contain the nucleus")
    if any(not (0 <= i < geom.n and geom.point_in_solid(i, t_idx)) for i in repl):
        raise ValueError("replacement must lie inside the tangent solid")
    kept = [i for i in zero_set(geom, form) if not geom.point_in_solid(i, t_idx)]
    return QuasiCandidate(points=frozenset(kept) | frozenset(repl), nucleus=n_pt)


def exhaustive_search_q2(geom: Geometry):
    """
    Enumerate all 2^15 transversals of the lines through the fixed
    nucleus of PG(4,2), keep those meeting every solid off the nucleus
    in 5 or 9 points, re-verify each survivor from the raw definition,
    and attach a fitted quadratic form.  Order: ascending choice code,
    where bit i of the code picks the larger point on line i.
    """
    q = geom.field.q
    if q != 2:
        raise ValueError("the exhaustive search is only feasible at q = 2")
    n_pt = SEARCH_NUCLEUS
    n_idx = geom.point_index[n_pt]
    lines = geom.nline_partition(n_idx)
    assert all(len(line) == 2 for line in lines) and len(lines) == 15
    lo_bits = [1 << line[0] for line in lines]
    hi_bits = [1 << line[1] for line in lines]
    sm = geom.solid_masks
    off_n = [s for s in range(geom.n) if not geom.point_in_solid(n_idx, s)]
    off_masks = [sm[s] for s in off_n]
    hits = []
    for code in range(1 << 15):
        kmask = 0
        for i in range(15):
            kmask |= hi_bits[i] if (code >> i) & 1 else lo_bits[i]
        if all((kmask & m).bit_count() in (5, 9) for m in off_masks):
            points = frozenset(
                lines[i][(code >> i) & 1] for i in range(15)
            )
            cand = QuasiCandidate(points=points, nucleus=n_pt)
            ok, witness = is_quasi_quadric(geom, cand)
            if not ok:
                raise InconsistencyError(f"filter accepted a non-example: {witness}")
            hits.append(QuasiHit(cand, fit_quadratic_form(geom, points)))
    return hits


# -- quotient machinery for the q >= 4 searches ------------------------


class _Quotient:
    """Lines through the fixed nucleus, coordinatised by PG(3,q)."""

    def __init__(self, geom: Geometry):
        field = geom.field
        q = field.q
        self.geom = geom
        self.field = field
        self.n_idx = geom.point_index[SEARCH_NUCLEUS]
        us = []
        for vec in product(range(q), repeat=4):
            for x in vec:
                if x:
                    if x == 1:
                        us.append(vec)
                    break
        self.us = us  # canonical quotient points, lex order
        mul = field._mul
        # canonical quadric transversal: t(u) = sqrt(u1 u2 + u3 u4)
        self.base = [
            field._sqrt[mul[u[0]][u[1]] ^ mul[u[2]][u[3]]] for u in us
        ]
        # the first solid through the nucleus is (0,0,0,0,1): u4 = 0
        self.w_ids = [i for i, u in enumerate(us) if u[3] == 0]
        self.out_ids = [i for i, u in enumerate(us) if u[3] != 0]
        self.w_pts = np.array([us[i][:3] for i in self.w_ids], dtype=np.uint8)
        self.tangent_idx = geom.solid_index[(0, 0, 0, 0, 1)]

        mt = field.mul_table
        out_pts = np.array([us[i] for i in self.out_ids], dtype=np.uint8)
        base_out = np.array([self.base[i] for i in self.out_ids], dtype=np.uint8)
        a_grid = np.array(list(product(range(q), repeat=4)), dtype=np.uint8)
        dots_out = mt[a_grid[:, 0, None], out_pts[None, :, 0]]
        for i in range(1, 4):
            dots_out = dots_out ^ mt[a_grid[:, i, None], out_pts[None, :, i]]
        self.outside_agreement = (dots_out == base_out[None, :]).sum(axis=1)
        # restriction of a to W depends only on its first three entries
        self.restriction_of = (
            a_grid[:, 0].astype(np.int64) * q * q
            + a_grid[:, 1].astype(np.int64) * q
            + a_grid[:, 2].astype(np.int64)
        )
        l_grid = np.array(list(product(range(q), repeat=3)), dtype=np.uint8)
        lw = mt[l_grid[:, 0, None], self.w_pts[None, :, 0]]
        for i in range(1, 3):
            lw = lw ^ mt[l_grid[:, i, None], self.w_pts[None, :, i]]
        self.w_linear_values = lw  # (q^3, |W|)
        # allowed agreement-on-W values per restriction, intersected
        # over the q lifts of each restriction
        good = {q * q + 1, (q + 1) ** 2}
        max_i = self.w_pts.shape[0]
        allowed = np.ones((q**3, max_i + 1), dtype=bool)
        for a_row in range(q**4):
            o = int(self.outside_agreement[a_row])
            r = int(self.restriction_of[a_row])
            row_ok = np.array([(o + i) in good for i in range(max_i + 1)])
            allowed[r] &= row_ok
        self.allowed = allowed

    def filter_batch(self, values: np.ndarray) -> np.ndarray:
        """values: (C, |W|) choice vectors on W; returns a validity mask."""
        c = values.shape[0]
        ok = np.ones(c, dtype=bool)
        for r in range(self.w_linear_values.shape[0]):
            agree = (values == self.w_linear_values[r][None, :]).sum(axis=1)
            ok &= self.allowed[r, agree]
        return ok

    def candidate_points(self, w_values) -> frozenset:
        """Point indices of the transversal with the given values on W."""
        field = self.field
        idx = self.geom.point_index
        pts = []
        for i in self.out_ids:
            u = self.us[i]
            pts.append(idx[normalize(field, (self.base[i],) + u)])
        for pos, i in enumerate(self.w_ids):
            u = self.us[i]
            pts.append(idx[normalize(field, (int(w_values[pos]),) + u)])
        return frozenset(pts)

    def base_w_values(self) -> np.ndarray:
        return np.array([self.base[i] for i in self.w_ids], dtype=np.uint8)


def _switching_stream(quot: _Quotient, budget: int):
    """
    Deterministic stream of replacement value vectors on W: first the
    quadric's own section, then sqrt(ternary quadratic) + linear shifts
    in ascending coefficient order, in vectorised blocks.
    """
    field = quot.field
    q = field.q
    mt = field.mul_table
    w = quot.w_pts
    mono = np.stack(
        [
            mt[w[:, 0], w[:, 0]],
            mt[w[:, 0], w[:, 1]],
            mt[w[:, 0], w[:, 2]],
            mt[w[:, 1], w[:, 1]],
            mt[w[:, 1], w[:, 2]],
            mt[w[:, 2], w[:, 2]],
        ],
        axis=1,
    )  # (|W|, 6)
    lin = quot.w_linear_values  # (q^3, |W|)
    yield quot.base_w_values()[None, :]
    seen = 1
    g_block = 512
    g_all = np.array(list(product(range(q), repeat=6)), dtype=np.uint8)
    for lo in range(0, len(g_all), g_block):
        if seen >= budget:
            return
        g = g_all[lo : lo + g_block]
        vals = mt[g[:, 0, None], mono[None, :, 0]]
        for t in range(1, 6):
            vals = vals ^ mt[g[:, t, None], mono[None, :, t]]
        svals = field.sqrt_table[vals]  # (B, |W|)
        block = (svals[:, None, :] ^ lin[None, :, :]).reshape(-1, w.shape[0])
        if seen + len(block) > budget:
            block = block[: budget - seen]
        seen += len(block)
        yield block


def _random_stream(quot: _Quotient, seed: int, budget: int):
    rng = Random(seed)
    q = quot.field.q
    nw = quot.w_pts.shape[0]
    yield quot.base_w_values()[None, :]
    remaining = budget - 1
    block = 1024
    while remaining > 0:
        c = min(block, remaining)
        arr = np.array(
            [[rng.randrange(q) for _ in range(nw)] for _ in range(c)],
            dtype=np.uint8,
        )
        remaining -= c
        yield arr


def search_quasi(geom: Geometry, strategy: str, seed: int = 0, budget: int = 20000):
    """
    Budget-bounded search for quasi-quadrics at q in {4, 8} by replacing
    the canonical quadric's section of one tangent solid.  Every
    returned candidate is re-verified from scratch by is_quasi_quadric
    and labelled with a fitted form (None marks a non-quadric example).
    Deterministic for a given (strategy, seed, budget); an empty result
    just means the budget ran out.
    """
    q = geom.field.q
    if q not in (4, 8):
        raise ValueError("search supports q = 4 and q = 8")
    quot = _Quotient(geom)
    if strategy == "switching":
        stream = _switching_stream(quot, budget)
    elif strategy == "random-restart":
        stream = _random_stream(quot, seed, budget)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    hits = []
    seen_sets = set()
    evaluated = 0
    for block in stream:
        if evaluated >= budget:
            break
        if evaluated + len(block) > budget:
            block = block[: budget - evaluated]
        evaluated += len(block)
        ok = quot.filter_batch(block)
        for row in block[ok]:
            points = quot.candidate_points(row)
            if points in seen_sets:
                continue
            seen_sets.add(points)
            cand = QuasiCandidate(points=points, nucleus=SEARCH_NUCLEUS)
            verified, witness = is_quasi_quadric(geom, cand)
            if not verified:
                raise InconsistencyError(f"count filter accepted a non-example: {witness}")
            hits.append(QuasiHit(cand, fit_quadratic_form(geom, points)))
    return hits
