"""
Analysis of arbitrary solid families in PG(4,q), q even.

Given a family of solids, every point is coloured by how many family
members pass through it: red for 0, white for q^3/2, black for
(q^3+q^2)/2, and a recorded violation for anything else.  On a clean
colouring the solids split into the family itself, the solids containing
a red point, and the rest; a chain of exact counting identities then
pins down the black set.  The characterisation pipeline checks the two
incidence conditions, runs the identity chain, and decides whether the
family is exactly the hyperbolic-section family of a non-singular
quadric (recovering the form), or of a quasi-quadric, or neither.

Violations are data rather than exceptions: batch verification must
report every witness.  Only internal contradictions (outcomes the
counting identities make impossible) abort or flip the verdict to
InternalInconsistency.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .pg import Geometry, InconsistencyError, histogram, null_space
from .quadric import (
    MONOMIALS,
    NotParabolicError,
    QuadraticForm,
    classify_all_solids,
    evaluate_all,
    nucleus,
)

__all__ = [
    "VIOLATES_I",
    "QUASI_VERDICT",
    "QUADRIC_VERDICT",
    "INCONSISTENT",
    "Identity",
    "ColorMap",
    "Verdict",
    "Report",
    "StructureCounts",
    "point_incidence_counts",
    "check_condition_I",
    "check_condition_II",
    "partition_solids",
    "structure_counts",
    "solid_spectrum",
    "fit_quadratic_form",
    "characterize",
    "verify_hyperbolic_spectra",
]

VIOLATES_I = "ViolatesI"
QUASI_VERDICT = "SatisfiesI-QuasiQuadric"
QUADRIC_VERDICT = "SatisfiesI&II-Quadric"
INCONSISTENT = "InternalInconsistency"


@dataclass(frozen=True)
class Identity:
    """One exact arithmetic check: holds iff lhs == rhs."""

    name: str
    holds: bool
    lhs: int
    rhs: int


@dataclass
class ColorMap:
    """Per-point colouring induced by a solid family."""

    counts: np.ndarray
    red: tuple
    black: tuple
    violations: tuple  # (point index, observed count) pairs
    r: int
    w: int
    b: int


@dataclass(frozen=True)
class Verdict:
    kind: str
    witnesses: tuple = ()
    form: tuple | None = None
    nucleus: tuple | None = None
    details: str | None = None


@dataclass
class Report:
    q: int
    modulus: int
    family_size: int
    h: Fraction
    colors: ColorMap
    partition: dict | None
    spectra: dict
    identities: tuple
    black_hist: dict | None
    verdict: Verdict | None


@dataclass
class StructureCounts:
    h: Fraction
    identities: tuple
    partition: tuple  # (tangent-type solids, elliptic-type solids)
    solid_black: np.ndarray
    black_hist: dict
    plane_black: np.ndarray


def _normalize_family(geom: Geometry, solids) -> tuple:
    idx = sorted({int(i) for i in solids})
    if idx and not (0 <= idx[0] and idx[-1] < geom.n):
        raise ValueError("solid index out of range")
    return tuple(idx)


def point_incidence_counts(geom: Geometry, solids) -> np.ndarray:
    """Number of family solids through each point."""
    fam = _normalize_family(geom, solids)
    if not fam:
        return np.zeros(geom.n, dtype=np.int64)
    return geom.incidence_counts_per_solid(fam)


def check_condition_I(geom: Geometry, solids) -> ColorMap:
    """
    Colour every point red/white/black according to its family count;
    any other count is recorded as a violation, not raised.
    """
    q = geom.field.q
    counts = point_incidence_counts(geom, solids)
    white_t = q**3 // 2
    black_t = (q**3 + q**2) // 2
    red = tuple(int(i) for i in np.nonzero(counts == 0)[0])
    black = tuple(int(i) for i in np.nonzero(counts == black_t)[0])
    white_n = int((counts == white_t).sum())
    bad = np.nonzero(
        (counts != 0) & (counts != white_t) & (counts != black_t)
    )[0]
    violations = tuple((int(i), int(counts[i])) for i in bad)
    return ColorMap(
        counts=counts,
        red=red,
        black=black,
        violations=violations,
        r=len(red),
        w=white_n,
        b=len(black),
    )


def check_condition_II(geom: Geometry, solids):
    """
    Every plane inside at least one family solid must be inside at least
    q/2 of them.  Returns (holds, violating plane indices).
    """
    fam = _normalize_family(geom, solids)
    if not fam:
        return True, ()
    counts = geom.pencil_members(fam).sum(axis=1)
    bad = np.nonzero((counts > 0) & (counts < geom.field.q // 2))[0]
    return len(bad) == 0, tuple(int(i) for i in bad)


def partition_solids(geom: Geometry, solids, colors: ColorMap):
    """
    Split the solids outside the family into those containing a red
    point and those containing none.  A red point inside a family solid
    contradicts the colour definitions and raises.
    """
    if colors.violations:
        raise ValueError("partition requires a violation-free colouring")
    in_fam = np.zeros(geom.n, dtype=bool)
    in_fam[list(_normalize_family(geom, solids))] = True
    through_red = geom.incidence_counts_per_solid(colors.red) > 0
    overlap = np.flatnonzero(in_fam & through_red)
    if len(overlap):
        raise InconsistencyError(f"red point inside family solid(s) {overlap[:5].tolist()}")
    rest = np.flatnonzero(~in_fam & ~through_red)
    return tuple(np.flatnonzero(through_red).tolist()), tuple(rest.tolist())


def _count_identity(name: str, values: np.ndarray, target: int) -> Identity:
    """Holds iff every value equals the target; lhs counts those that do."""
    ok = int((values == target).sum())
    return Identity(name, ok == len(values), ok, len(values))


def structure_counts(
    geom: Geometry, solids, colors: ColorMap, partition: tuple | None = None
) -> StructureCounts:
    """
    The exact identity chain for a family with a clean colouring:
    divisibility of the family size, residues of the normalised size h,
    the double- and triple-count identities, the colour census, black
    counts per solid of each class, and the per-family-solid plane sums.
    Mismatches are recorded as findings, never raised.
    """
    q = geom.field.q
    fam = _normalize_family(geom, solids)
    hs = len(fam)
    half_q2 = q * q // 2
    h = Fraction(hs, half_q2)
    n1 = q**3 + q**2 + q + 1
    white_t = q**3 // 2
    black_t = (q**3 + q**2) // 2

    identities = [
        Identity("family-size-divisibility", hs % half_q2 == 0, hs % half_q2, 0)
    ]
    if h.denominator == 1:
        hi = int(h)
        identities.append(
            Identity("h-times-h-minus-1-mod-q", hi * (hi - 1) % q == 0, hi * (hi - 1) % q, 0)
        )
        identities.append(
            Identity(
                "h-times-h-minus-2-mod-q-plus-1",
                hi * (hi - 2) % (q + 1) == 0,
                hi * (hi - 2) % (q + 1),
                0,
            )
        )
    census_ok = (colors.r, colors.w, colors.b) == (1, q**4 - 1, n1)
    identities.append(Identity("colour-census", census_ok, colors.b, n1))
    lhs2 = colors.w * white_t + colors.b * black_t
    rhs2 = hs * n1
    identities.append(Identity("incidence-double-count", lhs2 == rhs2, lhs2, rhs2))
    lhs3 = colors.w * white_t * (white_t - 1) + colors.b * black_t * (black_t - 1)
    rhs3 = hs * (hs - 1) * (q * q + q + 1)
    identities.append(Identity("incidence-triple-count", lhs3 == rhs3, lhs3, rhs3))

    if partition is None:
        partition = partition_solids(geom, fam, colors)
    tangent_like, elliptic_like = partition
    solid_black = geom.incidence_counts_per_solid(colors.black)

    targets = (
        ("hyperbolic", fam, (q + 1) ** 2),
        ("elliptic", elliptic_like, q * q + 1),
        ("tangent", tangent_like, q * q + q + 1),
    )
    black_hist = {}
    for label, members, target in targets:
        vals = solid_black[list(members)]
        identities.append(_count_identity(f"{label}-black-counts", vals, target))
        black_hist[label] = histogram(vals)

    plane_black = geom.pencil_sums(colors.black)
    # per solid, sums over its planes: one bincount per pencil column (exact in float64)
    pencils = geom.plane_pencils()
    pairs = plane_black * (plane_black - 1)
    sum1 = sum(np.bincount(c, weights=plane_black, minlength=geom.n) for c in pencils.T)
    sum2 = sum(np.bincount(c, weights=pairs, minlength=geom.n) for c in pencils.T)
    t1 = (q + 1) ** 2 * (q * q + q + 1)
    t2 = (q + 1) ** 3 * (q * q + 2 * q)
    identities.append(_count_identity("plane-black-sum-per-family-solid", sum1[list(fam)], t1))
    identities.append(
        _count_identity("plane-black-pair-sum-per-family-solid", sum2[list(fam)], t2)
    )

    return StructureCounts(h, tuple(identities), partition, solid_black, black_hist, plane_black)


def solid_spectrum(geom: Geometry, point_indices) -> Counter:
    """Histogram of |K ∩ S| over all solids S."""
    return histogram(geom.incidence_counts_per_solid(point_indices))


def fit_quadratic_form(geom: Geometry, point_indices):
    """
    The nonzero quadratic form vanishing on exactly the given point set
    and admitting a nucleus, or None.  Solves the homogeneous linear
    system over the 15 coefficients and tests its one basis form; a
    solution space of any other dimension returns None.  No fit is lost:
    the zero set of a parabolic form f is a copy of Q(4,q), which lies
    on exactly one quadric (the solution space has dimension 1 at
    q = 2, 4 and 8, and collineations preserve it), so every solution
    is a multiple of f.
    """
    field = geom.field
    k = tuple(sorted({int(i) for i in point_indices}))
    if not k:
        return None
    pts = geom.point_array[list(k)]
    mt = field.mul_table
    rows = np.stack([mt[pts[:, i], pts[:, j]] for i, j in MONOMIALS], axis=1)
    basis = null_space(field, rows.tolist(), width=15)
    if len(basis) != 1:
        return None
    form = QuadraticForm(field, basis[0])
    if tuple(int(i) for i in np.nonzero(evaluate_all(geom, form) == 0)[0]) != k:
        return None
    try:
        nucleus(form)
    except NotParabolicError:
        return None
    return form


def _support_within(values, allowed) -> bool:
    return set(histogram(values)) <= set(allowed)


def characterize(geom: Geometry, solids) -> Report:
    """
    Full decision pipeline for a non-empty solid family.  The report is
    built once, after colouring; ``_decide`` then runs the stages below
    in order, filling in the partition, spectra, identities and black
    histograms as each becomes known, and stops at the first verdict.

    1. Colour points; any off-menu count yields verdict ViolatesI with
       the offending points as witnesses.
    2. On a clean colouring, partition the solids, run the identity chain
       and the spectra surveys; a red point in a family solid or a failed
       identity is inconsistent.
    3. If some plane inside the family is covered fewer than q/2 times,
       verify that the black set is a quasi-quadric whose nucleus is the
       red point and that the family is exactly its (q+1)^2-secant
       solids: verdict SatisfiesI-QuasiQuadric.
    4. Otherwise check the black set's plane and solid spectra, recover a
       quadratic form from it, and check that the family and the two
       complementary classes match its section classes: verdict
       SatisfiesI&II-Quadric.

    Any outcome the counting identities rule out is reported as
    InternalInconsistency: with q <= 8 it would indicate a bug in this
    engine, not new mathematics.
    """
    q = geom.field.q
    fam = _normalize_family(geom, solids)
    if not fam:
        raise ValueError("the family must be non-empty")
    colors = check_condition_I(geom, fam)
    report = Report(
        q=q,
        modulus=geom.field.modulus,
        family_size=len(fam),
        h=Fraction(len(fam), q * q // 2),
        colors=colors,
        partition=None,
        spectra={
            "points": histogram(colors.counts),
            "lines": Counter(),
            "planes": Counter(),
            "solids": Counter(),
        },
        identities=(),
        black_hist=None,
        verdict=None,
    )
    report.verdict = _decide(geom, fam, report)
    return report


def _decide(geom: Geometry, fam: tuple, report: Report) -> Verdict:
    """The stages of ``characterize`` after colouring; see its docstring."""
    q = geom.field.q
    colors = report.colors
    if colors.violations:
        return Verdict(VIOLATES_I, witnesses=colors.violations)
    try:
        tangent_like, elliptic_like = partition = partition_solids(geom, fam, colors)
    except InconsistencyError as exc:
        return Verdict(INCONSISTENT, details=str(exc))

    sc = structure_counts(geom, fam, colors, partition=partition)
    red_planes = sc.plane_black[geom.pencil_sums(colors.red) > 0]
    line_has_red = geom.pencil_members(colors.red).any(axis=1)
    red_lines = geom.pencil_members(colors.black).sum(axis=1)[line_has_red]
    plane_fam = geom.pencil_members(fam).sum(axis=1)
    report.partition = {"h": len(fam), "e": len(elliptic_like), "t": len(tangent_like)}
    report.spectra["lines"] = histogram(geom.pencil_sums(fam))
    report.spectra["planes"] = histogram(plane_fam)
    report.spectra["solids"] = histogram(sc.solid_black)
    report.identities = sc.identities + (
        _count_identity("red-plane-black-counts", red_planes, q + 1),
        _count_identity("red-line-black-counts", red_lines, 1),
    )
    report.black_hist = sc.black_hist
    failed = [i.name for i in report.identities if not i.holds]
    if failed:
        return Verdict(INCONSISTENT, details="failed identities: " + ", ".join(failed))

    red_point = tuple(geom.point_array[colors.red[0]].tolist())
    violators = tuple(np.flatnonzero((plane_fam > 0) & (plane_fam < q // 2)).tolist())
    if violators:
        from .quasi import QuasiCandidate, is_quasi_quadric, solids_meeting_in

        ok, witness = is_quasi_quadric(geom, QuasiCandidate(frozenset(colors.black), red_point))
        if not ok:
            return Verdict(
                INCONSISTENT, details=f"black set fails the quasi-quadric conditions: {witness}"
            )
        if solids_meeting_in(geom, colors.black, (q + 1) ** 2) != fam:
            return Verdict(
                INCONSISTENT,
                details="family differs from the (q+1)^2-secant solids of the black set",
            )
        return Verdict(QUASI_VERDICT, witnesses=violators, nucleus=red_point)

    if not _support_within(sc.plane_black, (1, q + 1, 2 * q + 1)):
        return Verdict(INCONSISTENT, details="plane spectrum of the black set is off-menu")
    if not _support_within(sc.solid_black, (q * q + 1, q * q + q + 1, (q + 1) ** 2)):
        return Verdict(INCONSISTENT, details="solid spectrum of the black set is off-menu")
    form = fit_quadratic_form(geom, colors.black)
    if form is None:
        return Verdict(INCONSISTENT, details="no quadratic form fits the black set")
    classes = classify_all_solids(geom, form)
    n_pt = nucleus(form)
    checks = (
        (classes.hyperbolic == fam, "family is not the hyperbolic class of the fitted form"),
        (classes.elliptic == elliptic_like, "elliptic class mismatch"),
        (classes.tangent == tangent_like, "tangent class mismatch"),
        (n_pt == red_point, "nucleus differs from the red point"),
    )
    problems = [msg for holds, msg in checks if not holds]
    if problems:
        return Verdict(INCONSISTENT, details="; ".join(problems))
    return Verdict(QUADRIC_VERDICT, form=form.coeffs, nucleus=n_pt)


def verify_hyperbolic_spectra(geom: Geometry, form: QuadraticForm) -> dict:
    """
    Exact incidence spectra of the form's hyperbolic-solid family over
    points, lines and planes.  The supports must be contained in
    {0, q^3/2, (q^3+q^2)/2}, {0, q(q-1)/2, q^2/2, q(q+1)/2, q^2} and
    {0, q/2, q} respectively; anything else raises.
    """
    q = geom.field.q
    classes = classify_all_solids(geom, form)
    fam = classes.hyperbolic
    points = histogram(point_incidence_counts(geom, fam))
    lines = histogram(geom.pencil_sums(fam))
    planes = histogram(geom.pencil_members(fam).sum(axis=1))
    allowed = {
        "points": {0, q**3 // 2, (q**3 + q**2) // 2},
        "lines": {0, q * (q - 1) // 2, q * q // 2, q * (q + 1) // 2, q * q},
        "planes": {0, q // 2, q},
    }
    spectra = {"points": points, "lines": lines, "planes": planes}
    for name, hist in spectra.items():
        extra = set(hist) - allowed[name]
        if extra:
            raise InconsistencyError(f"{name} spectrum has off-menu values {sorted(extra)}")
    return spectra
