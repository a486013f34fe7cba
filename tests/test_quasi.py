"""Quasi-quadric predicate, converse count, and the switching search."""

import hashlib
import json
from random import Random

import numpy as np
import pytest

import pg4q.quasi as quasi_mod
from pg4q.cli import main
from pg4q.pg import InconsistencyError, dots
from pg4q.quadric import canonical_q4, nucleus, zero_set
from pg4q.quasi import (
    SEARCH_NUCLEUS,
    QuasiCandidate,
    _Quotient,
    _switching_stream,
    exhaustive_search_q2,
    is_quasi_quadric,
    search_quasi,
    solids_meeting_in,
    verify_converse_lemma,
)


@pytest.fixture(scope="module")
def quad2(geom2):
    f = canonical_q4(geom2.field)
    return QuasiCandidate(points=frozenset(zero_set(geom2, f)), nucleus=nucleus(f))


@pytest.fixture(scope="module")
def quad4(geom4):
    f = canonical_q4(geom4.field)
    return QuasiCandidate(points=frozenset(zero_set(geom4, f)), nucleus=nucleus(f))


def test_quadric_is_quasi_quadric(geom2, geom4, quad2, quad4):
    assert is_quasi_quadric(geom2, quad2) == (True, None)
    assert is_quasi_quadric(geom4, quad4) == (True, None)


def test_wrong_nucleus_fails_with_line_witness(geom2, quad2):
    wrong = QuasiCandidate(points=quad2.points, nucleus=(0, 0, 0, 0, 1))
    ok, witness = is_quasi_quadric(geom2, wrong)
    assert not ok
    assert witness[0] in ("nucleus-in-set", "line")


def test_nucleus_in_set_detected(geom2, quad2):
    n_idx = geom2.point_index[(1, 0, 0, 0, 0)]
    bad = QuasiCandidate(points=quad2.points | {n_idx}, nucleus=(1, 0, 0, 0, 0))
    ok, witness = is_quasi_quadric(geom2, bad)
    assert not ok and witness == ("nucleus-in-set", n_idx)


@pytest.mark.parametrize("nuc", [(0, 0, 0, 0, 0), (1, 9, 0, 0, 0), (7, 0, 0, 0, 0)])
def test_bad_nucleus_raises_value_error(geom4, quad4, nuc):
    cand = QuasiCandidate(points=quad4.points, nucleus=nuc)
    for check in (is_quasi_quadric, verify_converse_lemma):
        with pytest.raises(ValueError, match="not a nonzero vector"):
            check(geom4, cand)


def test_random_sets_fail(geom2):
    rng = Random(77)
    for _ in range(5):
        pts = frozenset(rng.sample([i for i in range(geom2.n) if i != 15], 15))
        ok, witness = is_quasi_quadric(
            geom2, QuasiCandidate(points=pts, nucleus=(1, 0, 0, 0, 0))
        )
        assert not ok and witness is not None


def test_perturbed_transversal_fails_solid_condition(geom2, quad2):
    # swap one point across its nucleus line: the line condition still
    # holds, so a solid witness must appear
    n_idx = geom2.point_index[(1, 0, 0, 0, 0)]
    line = next(
        l for l in geom2.nline_partition(n_idx) if any(p in quad2.points for p in l)
    )
    inside = next(p for p in line if p in quad2.points)
    outside = next(p for p in line if p not in quad2.points)
    pts = (quad2.points - {inside}) | {outside}
    ok, witness = is_quasi_quadric(
        geom2, QuasiCandidate(points=pts, nucleus=(1, 0, 0, 0, 0))
    )
    # brute force: the first solid off the nucleus not meeting in 5 or 9
    incident = dots(geom2.field, geom2.point_array, geom2.point_array) == 0
    expected = next(
        ("solid", s, size)
        for s in range(geom2.n)
        if not incident[n_idx, s]
        for size in [sum(incident[p, s] for p in pts)]
        if size not in (5, 9)
    )
    assert not ok and witness == expected


def test_solids_meeting_in(geom2, quad2):
    k = sorted(quad2.points)
    assert len(solids_meeting_in(geom2, k, 9)) == 10
    tangent = solids_meeting_in(geom2, k, 7)
    assert len(tangent) == 15
    n_idx = geom2.point_index[(1, 0, 0, 0, 0)]
    assert set(tangent) == set(int(s) for s in geom2.solids_through_point(n_idx))
    assert solids_meeting_in(geom2, k, 4) == ()


def test_converse_lemma_counts(geom2, geom4, quad2, quad4):
    c2 = verify_converse_lemma(geom2, quad2)
    assert (c2.member_count, c2.nonmember_count, c2.nucleus_count) == (6, 4, 0)
    assert c2.family_size == 10
    c4 = verify_converse_lemma(geom4, quad4)
    assert (c4.member_count, c4.nonmember_count, c4.nucleus_count) == (40, 32, 0)
    assert c4.family_size == 136


def test_converse_lemma_rejects_non_quasi(geom2, quad2):
    bad = QuasiCandidate(points=frozenset(list(quad2.points)[:14]), nucleus=(1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        verify_converse_lemma(geom2, bad)


def test_converse_lemma_names_first_bad_point(geom2, quad2, monkeypatch):
    # drop one secant solid: each of its points is then covered once too few
    secant = solids_meeting_in(geom2, quad2.points, 9)
    monkeypatch.setattr(quasi_mod, "solids_meeting_in", lambda *args: secant[1:])
    first = int(geom2.solids_through_point(secant[0])[0])  # points of a solid, by duality
    with pytest.raises(InconsistencyError, match=rf"point {first} lies in"):
        verify_converse_lemma(geom2, quad2)


def _switched(geom, quad, tangent, replacement):
    """The quadric's points off the tangent solid, plus the replacement."""
    section = set(geom.solids_through_point(tangent).tolist())  # points of a solid, by duality
    kept = frozenset(p for p in quad.points if p not in section)
    return QuasiCandidate(points=kept | frozenset(replacement), nucleus=quad.nucleus)


def test_switch_identity(geom2, quad2):
    tangent = solids_meeting_in(geom2, sorted(quad2.points), 7)[0]
    section = quad2.points & set(geom2.solids_through_point(tangent).tolist())
    cand = _switched(geom2, quad2, tangent, section)
    assert cand.points == quad2.points
    assert is_quasi_quadric(geom2, cand) == (True, None)


def test_switch_empty_replacement_invalid(geom2, quad2):
    tangent = solids_meeting_in(geom2, sorted(quad2.points), 7)[0]
    cand = _switched(geom2, quad2, tangent, [])
    ok, witness = is_quasi_quadric(geom2, cand)
    assert not ok and witness[0] == "line"


def test_exhaustive_q2_requires_q2(geom4):
    with pytest.raises(ValueError):
        exhaustive_search_q2(geom4)


def test_exhaustive_q2_survivors(geom2):
    hits = exhaustive_search_q2(geom2)
    # every survivor is a quadric: its point set admits a parabolic fit
    assert all(h.form is not None for h in hits)
    # all point sets distinct
    assert len({h.candidate.points for h in hits}) == len(hits)
    # oracle: enumerate all 2^15 quadratic forms over GF(2), keep the
    # non-singular parabolic ones with nucleus (1,0,0,0,0), and count
    # their distinct zero sets
    from pg4q.quadric import NotParabolicError, QuadraticForm
    from pg4q.quadric import nucleus as nucleus_of

    distinct = set()
    for bits in range(1 << 15):
        coeffs = [(bits >> t) & 1 for t in range(15)]
        form = QuadraticForm(geom2.field, coeffs)
        try:
            n = nucleus_of(form)
        except NotParabolicError:
            continue
        if n == (1, 0, 0, 0, 0):
            distinct.add(frozenset(zero_set(geom2, form)))
    assert {h.candidate.points for h in hits} == distinct
    assert len(hits) == len(distinct)


def test_exhaustive_q2_codes_ascending(geom2):
    # bit i of a survivor's choice code picks the larger point on line i
    lines = geom2.nline_partition(geom2.point_index[SEARCH_NUCLEUS])
    codes = [
        sum(1 << i for i, line in enumerate(lines) if line[1] in h.candidate.points)
        for h in exhaustive_search_q2(geom2)
    ]
    assert len(codes) == 448
    assert all(a < b for a, b in zip(codes, codes[1:]))


def test_quasi_solids_through_nucleus_forced(geom2):
    # every solid through N meets a quasi-quadric in q^2+q+1 points
    hits = exhaustive_search_q2(geom2)
    n_idx = geom2.point_index[(1, 0, 0, 0, 0)]
    through = [int(s) for s in geom2.solids_through_point(n_idx)]
    sm = geom2.solid_masks
    for h in hits[:25]:
        kmask = 0
        for p in h.candidate.points:
            kmask |= 1 << p
        assert all((kmask & sm[s]).bit_count() == 7 for s in through)


def test_search_rejects_bad_q(geom2):
    with pytest.raises(ValueError):
        search_quasi(geom2, "switching")


def test_search_rejects_bad_strategy(geom4):
    with pytest.raises(ValueError):
        search_quasi(geom4, "anneal")


def test_search_switching_returns_quadric(geom4, quad4):
    hits = search_quasi(geom4, "switching", seed=0, budget=1)
    assert len(hits) == 1
    assert hits[0].candidate.points == quad4.points
    assert hits[0].form is not None


def test_search_deterministic(geom4):
    # the result depends on the budget alone: the seed has no effect
    a = search_quasi(geom4, "switching", seed=42, budget=400)
    b = search_quasi(geom4, "switching", seed=7, budget=400)
    assert [h.candidate.points for h in a] == [h.candidate.points for h in b]


def test_search_finds_non_quadric_q4(geom4):
    q = 4
    hits = search_quasi(geom4, "switching", seed=0, budget=300000)
    non_quadric = [h for h in hits if h.form is None]
    # the full scan: (q-1)q^2 distinct finds, all but the quadric non-quadric
    assert (len(hits), len(non_quadric)) == ((q - 1) * q * q, (q - 1) * q * q - 1)
    assert len({h.candidate.points for h in hits}) == len(hits)
    # each returned candidate was re-verified by the raw predicate; spot
    # check one again here and run the converse count on it
    cand = non_quadric[0].candidate
    assert is_quasi_quadric(geom4, cand) == (True, None)
    counts = verify_converse_lemma(geom4, cand)
    assert (counts.member_count, counts.nonmember_count) == (40, 32)


@pytest.mark.parametrize("budget, expected", [(0, 0), (1, 1), (65, 1), (66, 1)])
def test_search_budget_truncates_stream(geom4, budget, expected):
    assert len(search_quasi(geom4, "switching", budget=budget)) == expected


@pytest.mark.parametrize(
    "q, budget, verified, non_quadric, find_sha256",
    [
        (4, 262145, 48, 47, "65835d98a93903acb1eef72f9788292c096d750643fb9b95cf6abcdca7093afa"),
        (4, 300000, 48, 47, "65835d98a93903acb1eef72f9788292c096d750643fb9b95cf6abcdca7093afa"),
        (8, 20000, 1, 0, "08e68a58f281dabde81aca4a5000246b7ac307f2aa067632a3c1070fe71a4792"),
    ],
)
def test_search_cli_pinned(tmp_path, q, budget, verified, non_quadric, find_sha256):
    rep, find = tmp_path / "search.json", tmp_path / "find.txt"
    argv = ["quasi", "search", "--q", q, "--budget", budget, "--json", rep, "--out", find]
    assert main([str(a) for a in argv]) == 0
    report = json.loads(rep.read_text())
    assert (report["verified"], report["non_quadric"]) == (verified, non_quadric)
    assert hashlib.sha256(find.read_bytes()).hexdigest() == find_sha256


def test_search_q8_finds_canonical_quadric(geom8):
    hits = search_quasi(geom8, "switching", budget=20000)
    form = canonical_q4(geom8.field)
    assert len(hits) == 1
    assert hits[0].candidate.points == frozenset(zero_set(geom8, form))
    assert hits[0].candidate.nucleus == nucleus(form) == SEARCH_NUCLEUS


def _stream_rows(quot, budget):
    """Every stream candidate below the budget as a row, with its mask entry."""
    lin = quot.w_linear_values
    rows, mask = [], []
    for bases, shifts in _switching_stream(quot, budget):
        rows.append((bases[:, None, :] ^ lin[None, :shifts, :]).reshape(-1, lin.shape[1]))
        mask.append(quot.passing_shifts(bases, shifts).reshape(-1))
    return np.concatenate(rows)[:budget], np.concatenate(mask)[:budget]


def _assert_filter_is_definition(ref, quot, rows, mask):
    single = quot.passing_shifts(rows, 1)[:, 0]
    for row, passed, alone in zip(rows, mask, single):
        values = quot.base.copy()
        values[quot.w_ids] = row
        points = sorted(quot.candidate_points(values))
        expected = ref.quasi_quadric_problem(points, SEARCH_NUCLEUS) is None
        assert passed == alone == expected


def test_passing_shifts_matches_definition_q4(geom4, reference_space):
    quot = _Quotient(geom4)
    rows, mask = _stream_rows(quot, 4**9 + 1)
    assert len(rows) == 262145 and mask.sum() == 3073
    passing = np.unique(rows[mask], axis=0)
    assert len(passing) == 48
    ref = reference_space(4)
    sample = np.random.default_rng(12).choice(len(rows), 512, replace=False)
    _assert_filter_is_definition(ref, quot, rows[sample], mask[sample])
    _assert_filter_is_definition(ref, quot, passing, np.ones(len(passing), dtype=bool))


def test_passing_shifts_matches_definition_q8(geom8, reference_space):
    quot = _Quotient(geom8)
    rows, mask = _stream_rows(quot, 513)
    _assert_filter_is_definition(reference_space(8), quot, rows, mask)
