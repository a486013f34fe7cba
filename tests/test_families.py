"""Solid-family analysis: colouring, identities, spectra, characterisation."""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from pg4q.families import (
    QUADRIC_VERDICT,
    VIOLATES_I,
    characterize,
    check_condition_I,
    check_condition_II,
    fit_quadratic_form,
    partition_solids,
    plane_spectrum,
    point_incidence_counts,
    solid_spectrum,
    structure_counts,
    verify_hyperbolic_spectra,
)
from pg4q.pg import InconsistencyError, null_space
from pg4q.quadric import (
    MONOMIALS,
    apply_collineation,
    canonical_q4,
    classify_all_solids,
    nucleus,
    random_invertible_matrix,
    zero_set,
)


@pytest.fixture(scope="module")
def hyp2(geom2):
    return classify_all_solids(geom2, canonical_q4(geom2.field))


@pytest.fixture(scope="module")
def hyp4(geom4):
    return classify_all_solids(geom4, canonical_q4(geom4.field))


def test_point_incidence_counts_q2(geom2, hyp2):
    f = canonical_q4(geom2.field)
    counts = point_incidence_counts(geom2, hyp2.hyperbolic)
    n_idx = geom2.point_index[nucleus(f)]
    on_q = set(zero_set(geom2, f))
    assert counts[n_idx] == 0
    for p in range(geom2.n):
        if p == n_idx:
            continue
        assert counts[p] == (6 if p in on_q else 4)
    assert counts.sum() == 10 * 15


def test_point_incidence_counts_edge_cases(geom2):
    assert point_incidence_counts(geom2, []).sum() == 0
    full = point_incidence_counts(geom2, range(geom2.n))
    assert set(full.tolist()) == {15}


def test_condition_I_hyperbolic(geom2, hyp2):
    colors = check_condition_I(geom2, hyp2.hyperbolic)
    assert (colors.r, colors.w, colors.b) == (1, 15, 15)
    assert not colors.violations


def test_condition_I_single_solid(geom2):
    colors = check_condition_I(geom2, [0])
    assert len(colors.violations) == 15
    assert all(c == 1 for _, c in colors.violations)


def test_condition_I_family_minus_one(geom2, hyp2):
    dropped = hyp2.hyperbolic[3]
    colors = check_condition_I(geom2, tuple(s for s in hyp2.hyperbolic if s != dropped))
    # counts drop by one exactly on the removed solid's points
    violating = {p for p, _ in colors.violations}
    on_dropped = {p for p in range(geom2.n) if geom2.point_in_solid(p, dropped)}
    assert violating == on_dropped


def test_condition_II(geom2, geom4, hyp2, hyp4):
    ok, bad = check_condition_II(geom2, hyp2.hyperbolic)
    assert ok and not bad
    ok4, bad4 = check_condition_II(geom4, hyp4.hyperbolic)
    assert ok4 and not bad4
    # a single solid at q=4: each of its planes lies in 1 < 2 family solids
    ok1, bad1 = check_condition_II(geom4, [hyp4.hyperbolic[0]])
    assert not ok1
    assert len(bad1) == 85  # planes of one solid
    assert check_condition_II(geom4, []) == (True, ())


def test_plane_counts_menu(geom2, hyp2):
    from pg4q.families import _family_counts_over_table

    counts = _family_counts_over_table(geom2, tuple(hyp2.hyperbolic), 2)
    assert set(counts.tolist()) <= {0, 1, 2}  # {0, q/2, q} at q=2


def test_partition(geom2, geom4, hyp2, hyp4):
    colors2 = check_condition_I(geom2, hyp2.hyperbolic)
    t2, e2 = partition_solids(geom2, hyp2.hyperbolic, colors2)
    assert (len(t2), len(e2)) == (15, 6)
    colors4 = check_condition_I(geom4, hyp4.hyperbolic)
    t4, e4 = partition_solids(geom4, hyp4.hyperbolic, colors4)
    assert (len(t4), len(e4)) == (85, 120)
    assert set(t2) == set(hyp2.tangent)
    assert set(e2) == set(hyp2.elliptic)


def test_partition_rejects_red_in_family(geom2, hyp2):
    colors = check_condition_I(geom2, hyp2.hyperbolic)
    family = hyp2.hyperbolic[:-1] + (hyp2.tangent[0],)
    with pytest.raises((InconsistencyError, ValueError)):
        partition_solids(geom2, family, check_condition_I(geom2, family))


def test_structure_counts_q2(geom2, hyp2):
    colors = check_condition_I(geom2, hyp2.hyperbolic)
    sc = structure_counts(geom2, hyp2.hyperbolic, colors)
    assert sc.h == Fraction(5)
    assert all(i.holds for i in sc.identities)
    names = {i.name for i in sc.identities}
    assert "incidence-double-count" in names
    assert "plane-black-sum-per-family-solid" in names
    assert sc.black_hist["hyperbolic"] == Counter({9: 10})
    assert sc.black_hist["elliptic"] == Counter({5: 6})
    assert sc.black_hist["tangent"] == Counter({7: 15})


def test_structure_counts_chain(geoms):
    expected_black = {
        2: ((9, 10), (5, 6), (7, 15)),
        4: ((25, 136), (17, 120), (21, 85)),
        8: ((81, 2080), (65, 2016), (73, 585)),
    }
    for q, geom in geoms.items():
        classes = classify_all_solids(geom, canonical_q4(geom.field))
        colors = check_condition_I(geom, classes.hyperbolic)
        sc = structure_counts(geom, classes.hyperbolic, colors)
        assert sc.h == q * q + 1
        assert int(sc.h) % q == 1
        assert int(sc.h) * (int(sc.h) - 2) % (q + 1) == 0
        assert all(i.holds for i in sc.identities), [
            i for i in sc.identities if not i.holds
        ]
        (hb, hn), (eb, en), (tb, tn) = expected_black[q]
        assert sc.black_hist["hyperbolic"] == Counter({hb: hn})
        assert sc.black_hist["elliptic"] == Counter({eb: en})
        assert sc.black_hist["tangent"] == Counter({tb: tn})


def test_spectra_of_quadric(geom2):
    f = canonical_q4(geom2.field)
    z = zero_set(geom2, f)
    assert set(plane_spectrum(geom2, z)) == {1, 3, 5}
    assert set(solid_spectrum(geom2, z)) == {5, 7, 9}
    assert plane_spectrum(geom2, []) == Counter({0: 155})
    assert solid_spectrum(geom2, [z[0]]) == Counter({0: 16, 1: 15})


def test_solid_spectrum_multiplicities(geom2):
    f = canonical_q4(geom2.field)
    spec = solid_spectrum(geom2, zero_set(geom2, f))
    assert spec == Counter({5: 6, 7: 15, 9: 10})


def test_red_point_plane_counts(geom2, hyp2):
    # every plane through the red point carries q+1 black points
    f = canonical_q4(geom2.field)
    rep = characterize(geom2, hyp2.hyperbolic)
    by_name = {i.name: i for i in rep.identities}
    assert by_name["red-plane-black-counts"].holds
    assert by_name["red-line-black-counts"].holds


def test_fit_recovers_canonical(geom2):
    f = canonical_q4(geom2.field)
    fitted = fit_quadratic_form(geom2, zero_set(geom2, f))
    assert fitted is not None
    assert zero_set(geom2, fitted) == zero_set(geom2, f)


def test_fit_after_collineation(geom4):
    f = canonical_q4(geom4.field)
    rng = Random(21)
    m = random_invertible_matrix(geom4.field, rng)
    f2 = apply_collineation(f, m)
    fitted = fit_quadratic_form(geom4, zero_set(geom4, f2))
    assert fitted is not None
    assert zero_set(geom4, fitted) == zero_set(geom4, f2)


def test_fit_solution_space_is_one_dimensional(geoms):
    # Q(4,q) lies on exactly one quadric, so fit_quadratic_form only ever
    # needs the one basis form of the solution space
    for q, geom in geoms.items():
        field = geom.field
        rng = Random(q)
        f = canonical_q4(field)
        forms = [f] + [apply_collineation(f, random_invertible_matrix(field, rng)) for _ in range(3)]
        for form in forms:
            zeros = zero_set(geom, form)
            rows = [
                [field.mul(p[i], p[j]) for i, j in MONOMIALS]
                for p in (geom.points[t] for t in zeros)
            ]
            assert len(null_space(field, rows, width=15)) == 1
            assert fit_quadratic_form(geom, zeros[1:]) is None


def test_fit_random_points_fails(geom2):
    rng = Random(2024)
    for _ in range(5):
        sample = rng.sample(range(geom2.n), 15)
        assert fit_quadratic_form(geom2, sample) is None


def test_characterize_round_trip_q2(geom2, hyp2):
    f = canonical_q4(geom2.field)
    rep = characterize(geom2, hyp2.hyperbolic)
    assert rep.verdict.kind == QUADRIC_VERDICT
    assert rep.verdict.nucleus == nucleus(f)
    assert tuple(sorted(rep.colors.black)) == zero_set(geom2, f)
    assert rep.partition == {"h": 10, "e": 6, "t": 15}
    assert all(i.holds for i in rep.identities)


def test_characterize_single_solid(geom2):
    rep = characterize(geom2, [5])
    assert rep.verdict.kind == VIOLATES_I
    assert len(rep.verdict.witnesses) == 15


def test_characterize_rejects_empty(geom2):
    with pytest.raises(ValueError):
        characterize(geom2, [])


def test_characterize_perturbations(geom2, hyp2):
    # family minus one solid
    rep = characterize(geom2, hyp2.hyperbolic[1:])
    assert rep.verdict.kind == VIOLATES_I and rep.verdict.witnesses
    # family plus one elliptic solid
    rep = characterize(geom2, hyp2.hyperbolic + (hyp2.elliptic[0],))
    assert rep.verdict.kind == VIOLATES_I and rep.verdict.witnesses


def test_verify_hyperbolic_spectra_multiplicities(geom2):
    spectra = verify_hyperbolic_spectra(geom2, canonical_q4(geom2.field))
    assert dict(spectra["points"]) == {0: 1, 4: 15, 6: 15}
    assert set(spectra["lines"]) <= {0, 1, 2, 3, 4}
    assert set(spectra["planes"]) <= {0, 1, 2}


def test_verify_hyperbolic_spectra_q4(geom4):
    spectra = verify_hyperbolic_spectra(geom4, canonical_q4(geom4.field))
    assert dict(spectra["points"]) == {0: 1, 32: 255, 40: 85}
    assert set(spectra["planes"]) <= {0, 2, 4}
