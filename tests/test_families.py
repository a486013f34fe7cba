"""Solid-family analysis: colouring, identities, spectra, characterisation."""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import pg4q.families as families_mod
import pg4q.quasi as quasi_mod
from conftest import random_invertible_matrix
from pg4q.cli import report_json
from pg4q.families import (
    INCONSISTENT,
    QUADRIC_VERDICT,
    VIOLATES_I,
    characterize,
    check_condition_I,
    check_condition_II,
    fit_quadratic_form,
    partition_solids,
    point_incidence_counts,
    solid_spectrum,
    structure_counts,
    verify_hyperbolic_spectra,
)
from pg4q.gf import GF
from pg4q.pg import Geometry, InconsistencyError, histogram, null_space
from pg4q.quadric import (
    MONOMIALS,
    apply_collineation,
    canonical_q4,
    classify_all_solids,
    nucleus,
    SolidClasses,
    zero_set,
)
from pg4q.quasi import search_quasi, solids_meeting_in

INCONSISTENT_EXITS = Path(__file__).resolve().parent / "inconsistent_exits.json"


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
    on_dropped = set(geom2.solids_through_point(dropped).tolist())  # points of a solid, by duality
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
    counts = geom2.pencil_members(tuple(hyp2.hyperbolic)).sum(axis=1)
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
    assert set(histogram(geom2.pencil_sums(z))) == {1, 3, 5}
    assert set(solid_spectrum(geom2, z)) == {5, 7, 9}
    assert histogram(geom2.pencil_sums([])) == Counter({0: 155})
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
                [int(field.mul_table[p[i], p[j]]) for i, j in MONOMIALS]
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


def test_characterize_pencil_inconsistency_propagates(hyp2, monkeypatch):
    # a failed pencil divisibility check is an error (CLI exit 3), not a verdict
    geom = Geometry(GF(1))

    def broken(indices):
        raise InconsistencyError("pencil sum of plane 0 is not divisible by q")

    monkeypatch.setattr(geom, "pencil_sums", broken)
    with pytest.raises(InconsistencyError, match="pencil sum"):
        characterize(geom, hyp2.hyperbolic)


def test_characterize_pencil_gathers(hyp2, monkeypatch):
    # one pencil sum and one indicator gather each for the black set, the
    # red point and the family
    geom = Geometry(GF(1))
    calls = Counter()
    for name in ("pencil_sums", "pencil_members"):
        method = getattr(geom, name)
        monkeypatch.setattr(geom, name, lambda idx, m=method, n=name: calls.update([n]) or m(idx))
    assert characterize(geom, hyp2.hyperbolic).verdict.kind == QUADRIC_VERDICT
    assert calls == Counter(pencil_sums=3, pencil_members=3)


# -- the InternalInconsistency exits of characterize ---------------------------


@pytest.fixture(scope="module")
def census_family4(geom4):
    """The secant family of the first non-quadric find of the q=4 switching census."""
    hit = next(h for h in search_quasi(geom4, "switching", budget=4**9 + 1) if h.form is None)
    return solids_meeting_in(geom4, hit.candidate.points, 25)


def _raise_inconsistency(*args, **kwargs):
    raise InconsistencyError("red point inside family solid(s) [0]")


def _flip_first_identity(structure_counts):
    def wrapped(*args, **kwargs):
        sc = structure_counts(*args, **kwargs)
        sc.identities = (replace(sc.identities[0], holds=False),) + sc.identities[1:]
        return sc

    return wrapped


def _fail_call(func, n):
    """func, except that its n-th call returns False."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        return len(calls) != n and func(*args)

    return wrapped


def _rotated_classes(classify):
    """classify, with each section class moved to the next one."""

    def wrapped(geom, form):
        c = classify(geom, form)
        return SolidClasses(hyperbolic=c.elliptic, elliptic=c.tangent, tangent=c.hyperbolic)

    return wrapped


def _patch_sections(mp):
    mp.setattr(families_mod, "classify_all_solids", _rotated_classes(classify_all_solids))
    mp.setattr(families_mod, "nucleus", lambda form: (0, 0, 0, 0, 1))


# exit name -> (q of the input family, patch forcing the exit); q=2 runs the
# canonical hyperbolic family, q=4 the census find, whose verdict is quasi
_EXITS = {
    "partition": (2, lambda mp: mp.setattr(families_mod, "partition_solids", _raise_inconsistency)),
    "identities": (
        2,
        lambda mp: mp.setattr(
            families_mod, "structure_counts", _flip_first_identity(families_mod.structure_counts)
        ),
    ),
    "quasi-conditions": (
        4,
        lambda mp: mp.setattr(quasi_mod, "is_quasi_quadric", lambda g, c: (False, ("solid", 7, 3))),
    ),
    "secant-family": (4, lambda mp: mp.setattr(quasi_mod, "solids_meeting_in", lambda g, p, s: ())),
    "plane-spectrum": (
        2,
        lambda mp: mp.setattr(
            families_mod, "_support_within", _fail_call(families_mod._support_within, 1)
        ),
    ),
    "solid-spectrum": (
        2,
        lambda mp: mp.setattr(
            families_mod, "_support_within", _fail_call(families_mod._support_within, 2)
        ),
    ),
    "form-fit": (2, lambda mp: mp.setattr(families_mod, "fit_quadratic_form", lambda g, p: None)),
    "section-classes": (2, _patch_sections),
}


def _exit_report(name, geom, family, monkeypatch):
    """The whole report of one forced exit, as JSON, with the black histograms."""
    _EXITS[name][1](monkeypatch)
    rep = characterize(geom, family)
    hist = None
    if rep.black_hist is not None:
        hist = {k: sorted(v.items()) for k, v in rep.black_hist.items()}
    return json.loads(json.dumps({"report": report_json(rep), "black_hist": hist}))


@pytest.mark.parametrize("name", sorted(_EXITS))
def test_characterize_inconsistent_exits(name, geom2, geom4, hyp2, census_family4, monkeypatch):
    # tests/inconsistent_exits.json was captured before characterize was
    # restructured into stages; any difference is a change of behaviour
    q, _ = _EXITS[name]
    geom, family = (geom2, hyp2.hyperbolic) if q == 2 else (geom4, census_family4)
    got = _exit_report(name, geom, family, monkeypatch)
    assert got["report"]["verdict"]["kind"] == INCONSISTENT
    assert got == json.loads(INCONSISTENT_EXITS.read_text())[name]
