"""
Quadratic forms on GF(q)^5, the parabolic quadric Q(4,q), its nucleus,
and the partition of the solids by their sections.

A form is stored as 15 coefficients c_ij (0 <= i <= j <= 4) with
f(x) = sum c_ij x_i x_j.  Since f(t*x) = t^2 f(x), vanishing is well
defined on projective points.  For q even the polar form
B(x,y) = f(x+y) + f(x) + f(y) is alternating; a non-singular parabolic
form has a one-dimensional radical whose point N (the nucleus) is off
the quadric, and the solids through N are exactly those meeting the
quadric in a cone.

``classify_all_solids`` counts the zero set in every solid with one
incidence kernel call and splits the solids by section size: (q+1)^2
hyperbolic, q^2+1 elliptic, q^2+q+1 tangent (a cone).  A non-singular
parabolic form has no other size, so any other count raises, and the
tangent class must be exactly the solids through the nucleus.
``fit_quadratic_form`` goes the other way: from a point set to the one
parabolic form that vanishes on exactly it, if there is one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .gf import GF
from .pg import Geometry, InconsistencyError, dots, histogram, null_space, rref

__all__ = [
    "MONOMIALS",
    "NotParabolicError",
    "QuadraticForm",
    "canonical_q4",
    "zero_set",
    "nucleus",
    "fit_quadratic_form",
    "SolidClasses",
    "classify_all_solids",
    "apply_collineation",
    "line_profile",
]

# Coefficient order used everywhere, including serialisation.
MONOMIALS = tuple((i, j) for i in range(5) for j in range(i, 5))
_MONO_INDEX = {m: t for t, m in enumerate(MONOMIALS)}


class NotParabolicError(ValueError):
    """The form is not a non-singular parabolic quadratic form."""


class QuadraticForm:
    """A quadratic form over GF(q) in five variables."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != 15:
            raise ValueError("a form needs 15 coefficients (i <= j order)")
        if any(not 0 <= c < field.q for c in coeffs):
            raise ValueError("coefficient out of field range")
        self.field = field
        self.coeffs = coeffs

    def coeff(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.coeffs[_MONO_INDEX[(i, j)]]

    def values(self, vecs: np.ndarray) -> np.ndarray:
        """The form at each row of an (N, 5) uint8 array, shape (N,)."""
        mt = self.field.mul_table
        acc = np.zeros(len(vecs), dtype=np.uint8)
        for (i, j), c in zip(MONOMIALS, self.coeffs):
            if c:
                acc ^= mt[c, mt[vecs[:, i], vecs[:, j]]]
        return acc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuadraticForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"QuadraticForm(q={self.field.q}, coeffs={self.coeffs})"


def canonical_q4(field: GF) -> QuadraticForm:
    """The reference parabolic form f(x) = x0^2 + x1 x2 + x3 x4."""
    coeffs = [0] * 15
    coeffs[_MONO_INDEX[(0, 0)]] = 1
    coeffs[_MONO_INDEX[(1, 2)]] = 1
    coeffs[_MONO_INDEX[(3, 4)]] = 1
    return QuadraticForm(field, coeffs)


def zero_set(geom: Geometry, form: QuadraticForm):
    """Sorted indices of the points where the form vanishes."""
    return tuple(np.nonzero(form.values(geom.point_array) == 0)[0].tolist())


def _polar_matrix(form: QuadraticForm):
    # B(e_i, e_j) = c_ij for i != j; the diagonal vanishes (char 2).
    return tuple(
        tuple(0 if i == j else form.coeff(i, j) for j in range(5)) for i in range(5)
    )


def nucleus(form: QuadraticForm):
    """
    The unique point N with B(N, .) = 0 and f(N) != 0, as a canonical
    tuple.  On the radical R of the polar form B, f(x + y) = f(x) + f(y)
    and f(tx) = t^2 f(x), so the square root of f is linear on R and
    vanishes on a subspace of codimension at most 1 in R.  A radical of
    dimension above one therefore meets the quadric, and the form is
    parabolic exactly when R is one point N with f(N) != 0; otherwise
    NotParabolicError is raised.
    """
    rad = null_space(form.field, _polar_matrix(form))
    if len(rad) != 1:
        raise NotParabolicError(f"the polar form's radical has dimension {len(rad)}, not 1")
    pt = tuple(rad[0].tolist())
    if form.values(rad)[0] == 0:
        raise NotParabolicError(f"radical point {pt} lies on the quadric")
    return pt


def fit_quadratic_form(geom: Geometry, point_indices):
    """
    The nonzero quadratic form vanishing on exactly the given point set
    and admitting a nucleus, or None.  Solves the homogeneous linear
    system over the 15 coefficients and tests its one basis form; a
    solution space of any other dimension returns None.  No fit is lost:
    the zero set of a parabolic form f is a copy of Q(4,q), which lies
    on exactly one quadric (the solution space has dimension 1 at
    q = 2, 4, 8 and 16, and collineations preserve it), so every solution
    is a multiple of f.
    """
    field = geom.field
    k = tuple(sorted({int(i) for i in point_indices}))
    if not k:
        return None
    pts = geom.point_array[list(k)]
    mt = field.mul_table
    rows = np.stack([mt[pts[:, i], pts[:, j]] for i, j in MONOMIALS], axis=1)
    basis = null_space(field, rows)
    if len(basis) != 1:
        return None
    form = QuadraticForm(field, basis[0])
    if zero_set(geom, form) != k:
        return None
    try:
        nucleus(form)
    except NotParabolicError:
        return None
    return form


@dataclass(frozen=True)
class SolidClasses:
    """Partition of all solids by section type, as sorted index tuples."""

    hyperbolic: tuple
    elliptic: tuple
    tangent: tuple


def classify_all_solids(geom: Geometry, form: QuadraticForm) -> SolidClasses:
    """
    Partition every solid by its section size.  Sizes are exactly
    (q+1)^2 / q^2+1 / q^2+q+1 with multiplicities q^2(q^2+1)/2,
    q^2(q^2-1)/2 and q^3+q^2+q+1 for a non-singular parabolic form;
    anything else raises.
    """
    q = geom.field.q
    n_pt = nucleus(form)  # rejects degenerate forms up front
    counts = geom.incidence_counts_per_solid(zero_set(geom, form))
    hyperbolic = np.nonzero(counts == (q + 1) ** 2)[0]
    elliptic = np.nonzero(counts == q * q + 1)[0]
    tangent = np.nonzero(counts == q * q + q + 1)[0]
    if len(hyperbolic) + len(elliptic) + len(tangent) != geom.n:
        leftover = np.setdiff1d(
            np.arange(geom.n), np.concatenate([hyperbolic, elliptic, tangent])
        )
        s = int(leftover[0])
        raise NotParabolicError(
            f"solid {s} meets the zero set in {int(counts[s])} points"
        )
    through_n = geom.solids_through_point(geom.index_of(n_pt))
    if not np.array_equal(tangent, through_n):
        raise InconsistencyError("cone solids differ from the solids through the nucleus")
    return SolidClasses(
        hyperbolic=tuple(hyperbolic.tolist()),
        elliptic=tuple(elliptic.tolist()),
        tangent=tuple(tangent.tolist()),
    )


def apply_collineation(form: QuadraticForm, m) -> QuadraticForm:
    """
    The form x -> f(Mx), re-expressed in the 15-coefficient basis.
    M must be an invertible 5x5 matrix over the same field.
    """
    field = form.field
    m = np.array(m, dtype=np.uint8)
    if m.shape != (5, 5):
        raise ValueError("collineation matrix must be 5x5")
    if len(rref(field, m)[0]) != 5:
        raise ValueError("collineation matrix is singular")
    # g(x) = f(Mx) has g_kk = g(e_k) and g_kl = g(e_k + e_l) + g(e_k) + g(e_l):
    # evaluate f at M x for x = e_k + e_l, one x per monomial (k, l)
    ii, jj = np.array(MONOMIALS).T
    eye = np.eye(5, dtype=np.uint8)
    vals = form.values(dots(field, eye[ii] | eye[jj], m))
    diag = vals[ii == jj]  # g(e_0), ..., g(e_4)
    return QuadraticForm(field, vals ^ np.where(ii == jj, 0, diag[ii] ^ diag[jj]))


def line_profile(geom: Geometry, point_indices) -> Counter:
    """Histogram of |K ∩ L| over all lines L, for K the given point set."""
    member = np.bincount(list(point_indices), minlength=geom.n) > 0
    hist = Counter()
    for _, _, (count,) in geom.pencil_totals([member]):
        hist.update(histogram(count))
    return hist
