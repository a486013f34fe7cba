"""The canonical parabolic quadric and classification of its solid sections."""

from random import Random

import numpy as np
import pytest

from conftest import random_invertible_matrix
from pg4q.pg import normalize
from pg4q.quadric import (
    NotParabolicError,
    QuadraticForm,
    _polar_matrix,
    apply_collineation,
    canonical_q4,
    classify_all_solids,
    line_profile,
    nucleus,
    zero_set,
)


def _form_from_pairs(field, pairs):
    from pg4q.quadric import MONOMIALS

    coeffs = [0] * 15
    for (i, j), c in pairs.items():
        coeffs[MONOMIALS.index((i, j))] = c
    return QuadraticForm(field, coeffs)


def test_canonical_values(geom2, geom4):
    f = canonical_q4(geom2.field)
    assert f.evaluate((0, 1, 0, 0, 0)) == 0
    assert f.evaluate((1, 0, 0, 0, 0)) == 1
    f4 = canonical_q4(geom4.field)
    assert f4.evaluate((1, 1, 1, 0, 0)) == 0  # x0^2 + x1 x2 = 1 + 1


def test_zero_set_sizes(geoms):
    for q, geom in geoms.items():
        z = zero_set(geom, canonical_q4(geom.field))
        assert len(z) == q**3 + q**2 + q + 1


def test_zero_form_vanishes_everywhere(geom2):
    z = zero_set(geom2, QuadraticForm(geom2.field, [0] * 15))
    assert len(z) == geom2.n


def _bilinear(field, mat, x, y) -> int:
    """x^T mat y over the field."""
    mt = field.mul_table
    acc = 0
    for i in range(5):
        for j in range(5):
            acc ^= int(mt[x[i], mt[mat[i][j], y[j]]])
    return acc


def _polar_by_definition(form, x, y) -> int:
    """B(x,y) = f(x+y) + f(x) + f(y)."""
    s = tuple(a ^ b for a, b in zip(x, y))
    return form.evaluate(s) ^ form.evaluate(x) ^ form.evaluate(y)


def test_polar_form(geom2, geom4):
    for geom in (geom2, geom4):
        f = canonical_q4(geom.field)
        b = _polar_matrix(f)
        e0 = (1, 0, 0, 0, 0)
        for p in geom.point_array[:40].tolist():
            assert _bilinear(geom.field, b, e0, p) == 0  # no cross terms with x0
            assert _bilinear(geom.field, b, p, p) == 0  # alternating
            assert _bilinear(geom.field, b, e0, p) == _polar_by_definition(f, e0, p)
        assert _bilinear(geom.field, b, (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)) == 1


def test_polar_bilinear(geom4):
    # the matrix nucleus() reads agrees with f(x+y) + f(x) + f(y), for the
    # canonical form and for random ones
    field = geom4.field
    rng = Random(11)
    forms = [canonical_q4(field)] + [
        QuadraticForm(field, [rng.randrange(4) for _ in range(15)]) for _ in range(3)
    ]
    pts = [tuple(rng.randrange(4) for _ in range(5)) for _ in range(12)]
    for f in forms:
        b = _polar_matrix(f)
        for x in pts[:4]:
            for y in pts[4:8]:
                assert _bilinear(field, b, x, y) == _polar_by_definition(f, x, y)
                for z in pts[8:]:
                    s = tuple(a ^ c for a, c in zip(y, z))
                    assert _polar_by_definition(f, x, s) == (
                        _polar_by_definition(f, x, y) ^ _polar_by_definition(f, x, z)
                    )


def test_nucleus_canonical(geoms):
    for geom in geoms.values():
        assert nucleus(canonical_q4(geom.field)) == (1, 0, 0, 0, 0)


def test_nucleus_rejects_degenerate(geom2):
    # no x0^2 term: the radical point (1,0,0,0,0) lies on the zero set
    bad = _form_from_pairs(geom2.field, {(1, 2): 1, (3, 4): 1})
    with pytest.raises(NotParabolicError):
        nucleus(bad)
    with pytest.raises(NotParabolicError):
        classify_all_solids(geom2, bad)


def test_nucleus_maps_under_collineation(geom4, reference_space):
    # f2(x) = f(Mx) has nucleus N2 with M N2 on the nucleus of f
    ref = reference_space(4)
    f = canonical_q4(geom4.field)
    rng = Random(3)
    for _ in range(5):
        m = random_invertible_matrix(geom4.field, rng)
        n2 = np.array([nucleus(apply_collineation(f, m))], dtype=np.uint8)
        assert tuple(ref.normalize(ref.matvec(m, n2))[0].tolist()) == nucleus(f)


def test_section_types_q2(geom2):
    f = canonical_q4(geom2.field)
    c = classify_all_solids(geom2, f)
    counts = geom2.incidence_counts_per_solid(zero_set(geom2, f))
    # solid x0 = 0 sections x1 x2 + x3 x4: 9 projective zeros by hand count
    s = geom2.solid_index[(1, 0, 0, 0, 0)]
    assert s in c.hyperbolic and counts[s] == 9
    # solid x1 = 0 sections x0^2 + x3 x4: 7 zeros, and contains the nucleus
    s = geom2.solid_index[(0, 1, 0, 0, 0)]
    assert s in c.tangent and counts[s] == 7
    assert s in geom2.solids_through_point(geom2.point_index[nucleus(f)])


def test_classify_counts(geoms):
    expected = {2: (10, 6, 15), 4: (136, 120, 85), 8: (2080, 2016, 585)}
    for q, geom in geoms.items():
        c = classify_all_solids(geom, canonical_q4(geom.field))
        assert (len(c.hyperbolic), len(c.elliptic), len(c.tangent)) == expected[q]
        assert len(c.hyperbolic) == q * q * (q * q + 1) // 2
        assert len(c.elliptic) == q * q * (q * q - 1) // 2
        assert len(c.tangent) == q**3 + q**2 + q + 1


def test_tangency_criterion(geom2, geom4):
    for geom in (geom2, geom4):
        f = canonical_q4(geom.field)
        c = classify_all_solids(geom, f)
        n_idx = geom.point_index[nucleus(f)]
        through = set(int(s) for s in geom.solids_through_point(n_idx))
        assert set(c.tangent) == through


def test_nucleus_lines_meet_once(geom2, geom4):
    for geom in (geom2, geom4):
        f = canonical_q4(geom.field)
        z = set(zero_set(geom, f))
        n_idx = geom.point_index[nucleus(f)]
        for line in geom.nline_partition(n_idx):
            assert sum(1 for p in line if p in z) == 1


def test_section_size_sum(geom2, geom4):
    for geom in (geom2, geom4):
        q = geom.field.q
        f = canonical_q4(geom.field)
        counts = geom.incidence_counts_per_solid(zero_set(geom, f))
        assert counts.sum() == (q**3 + q**2 + q + 1) ** 2


def test_apply_collineation_identity(geom2):
    f = canonical_q4(geom2.field)
    ident = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    assert apply_collineation(f, ident) == f


def test_apply_collineation_preserves_size(geom4):
    f = canonical_q4(geom4.field)
    rng = Random(5)
    for _ in range(5):
        m = random_invertible_matrix(geom4.field, rng)
        f2 = apply_collineation(f, m)
        assert len(zero_set(geom4, f2)) == len(zero_set(geom4, f))


def test_apply_collineation_rejects_singular(geom2):
    f = canonical_q4(geom2.field)
    with pytest.raises(ValueError):
        apply_collineation(f, ((1, 0, 0, 0, 0),) * 5)


def test_hyperbolic_family_transforms_as_preimage(geom2):
    # H(f o M) = {normalised c.M : c in H(f)} since x -> Mx maps the
    # solid with covector c.M onto the solid with covector c
    f = canonical_q4(geom2.field)
    rng = Random(9)
    m = random_invertible_matrix(geom2.field, rng)
    f2 = apply_collineation(f, m)
    c1 = classify_all_solids(geom2, f)
    c2 = classify_all_solids(geom2, f2)
    field = geom2.field
    mapped = sorted(
        geom2.solid_index[
            normalize(field, tuple(
                __import__("functools").reduce(
                    lambda a, b: a ^ b,
                    (field.mul_table[geom2.solids[s][r], m[r][col]] for r in range(5)),
                )
                for col in range(5)
            ))
        ]
        for s in c1.hyperbolic
    )
    assert tuple(mapped) == c2.hyperbolic


def test_line_profile(geom2):
    f = canonical_q4(geom2.field)
    prof = line_profile(geom2, zero_set(geom2, f))
    assert set(prof) <= {0, 1, 2, 3}
    single = line_profile(geom2, [0])
    assert set(single) == {0, 1}


def test_form_validation(geom2):
    with pytest.raises(ValueError):
        QuadraticForm(geom2.field, [0] * 14)
    with pytest.raises(ValueError):
        QuadraticForm(geom2.field, [2] * 15)  # out of range for q=2
