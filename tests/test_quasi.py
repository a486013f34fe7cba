"""Quasi-quadric predicate, converse count, and the switching search."""

import hashlib
import json
from random import Random

import numpy as np
import pytest

import pg4q.quasi as quasi_mod
from pg4q.cli import main
from pg4q.gf import GF
from pg4q.pg import Geometry, InconsistencyError, dots
from pg4q.quadric import canonical_q4, nucleus, zero_set
from pg4q.quasi import (
    SEARCH_NUCLEUS,
    QuasiCandidate,
    _digits,
    _Quotient,
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


def test_quadric_is_quasi_quadric_q16(geom16):
    form = canonical_q4(geom16.field)
    quad = QuasiCandidate(points=frozenset(zero_set(geom16, form)), nucleus=nucleus(form))
    assert is_quasi_quadric(geom16, quad) == (True, None)
    # drop the quadric's point on one line through N: that line alone fails
    line = geom16.nline_partition(geom16.index_of(quad.nucleus))[1000]
    (p,) = quad.points.intersection(line.tolist())
    ok, witness = is_quasi_quadric(geom16, QuasiCandidate(quad.points - {p}, quad.nucleus))
    assert not ok and witness == ("line", tuple(sorted(line.tolist())), 0)


def test_wrong_nucleus_fails_with_line_witness(geom2, quad2):
    wrong = QuasiCandidate(points=quad2.points, nucleus=(0, 0, 0, 0, 1))
    ok, witness = is_quasi_quadric(geom2, wrong)
    assert not ok
    assert witness[0] in ("nucleus-in-set", "line")


def test_nucleus_in_set_detected(geom2, quad2):
    n_idx = geom2.index_of((1, 0, 0, 0, 0))
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
    n_idx = geom2.index_of((1, 0, 0, 0, 0))
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


def _first_bad_line(ref, points, nucleus):
    """
    The line witness of the quasi-quadric definition, from the reference
    space alone.  The lines through N are the sets normalize(P + tN); the
    first by least point index that does not meet K once is named by its
    q points other than N, sorted, with its number of points of K.  None
    when every line through N meets K once.
    """
    q = ref.q
    nuc = np.array(nucleus, dtype=np.uint8)
    others = np.delete(np.arange(ref.n), int(ref.index(nuc)))
    shifted = ref.points[others, None, :] ^ ref.mul[np.arange(q)[:, None], nuc][None]
    lines = {tuple(sorted(row)) for row in ref.index(ref.normalize(shifted)).tolist()}
    for line in sorted(lines):
        hits = len(points.intersection(line))
        if hits != 1:
            return ("line", line, hits)
    return None


@pytest.mark.parametrize("q", [2, 4, 8])
def test_line_witness_matches_oracle(geoms, reference_space, q):
    geom, ref = geoms[q], reference_space(q)
    form = canonical_q4(geom.field)
    quad = frozenset(zero_set(geom, form))
    true_nuc = np.array(nucleus(form), dtype=np.uint8)
    rng = Random(q)
    nuclei = [nucleus(form)] + [tuple(ref.points[rng.randrange(ref.n)].tolist()) for _ in range(3)]
    line_witnesses = 0
    for nuc in nuclei:
        n_idx = geom.index_of(nuc)
        for kind in ("drop", "add", "flip") * 3:
            pts = set(quad)
            if kind == "drop":
                pts -= set(rng.sample(sorted(pts), rng.randint(1, 3)))
            elif kind == "add":
                pts |= set(rng.sample(range(ref.n), rng.randint(1, 3)))
            else:
                # move a point along its line through the quadric's nucleus
                p = rng.choice(sorted(pts))
                moved = ref.points[p] ^ ref.mul[rng.randrange(1, q), true_nuc]
                pts = (pts - {p}) | {int(ref.index(ref.normalize(moved)))}
            ok, witness = is_quasi_quadric(geom, QuasiCandidate(frozenset(pts), nuc))
            if n_idx in pts:
                assert witness == ("nucleus-in-set", n_idx)
                continue
            expected = _first_bad_line(ref, pts, nuc)
            if expected is None:
                assert witness is None or witness[0] == "solid"
                continue
            assert not ok and witness == expected
            assert all(type(p) is int for p in witness[1]) and type(witness[2]) is int
            line_witnesses += 1
    assert line_witnesses >= 20


def test_solids_meeting_in(geom2, quad2):
    k = sorted(quad2.points)
    assert len(solids_meeting_in(geom2, k, 9)) == 10
    tangent = solids_meeting_in(geom2, k, 7)
    assert len(tangent) == 15
    n_idx = geom2.index_of((1, 0, 0, 0, 0))
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
    lines = geom2.nline_partition(geom2.index_of(SEARCH_NUCLEUS))
    codes = [
        sum(1 << i for i, line in enumerate(lines) if line[1] in h.candidate.points)
        for h in exhaustive_search_q2(geom2)
    ]
    assert len(codes) == 448
    assert all(a < b for a, b in zip(codes, codes[1:]))
    # the survivors are exactly the transversals meeting every solid (1, a)
    # in 5 or 9 points, by agreement counts against the forms a.u
    quot = _Quotient(geom2)
    rows = (np.arange(1 << 15)[:, None] >> np.arange(15)) & 1
    forms = dots(geom2.field, (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1, quot.us)
    agree = (rows[:, None, :] == forms[None, :, :]).sum(axis=2)
    passing = ((agree == 5) | (agree == 9)).all(axis=1)
    assert codes == np.flatnonzero(passing).tolist()
    bent = (np.abs(quot.spectrum(rows.astype(np.uint8), quot.us)) == 4).all(axis=1)
    assert np.array_equal(bent, passing)


def test_quasi_solids_through_nucleus_forced(geom2, reference_space):
    # every solid through N meets a quasi-quadric in q^2+q+1 points
    hits = exhaustive_search_q2(geom2)
    ref = reference_space(2)
    n_idx = geom2.index_of((1, 0, 0, 0, 0))
    through = np.flatnonzero(ref.dots(ref.points, ref.points[[n_idx]])[:, 0] == 0)
    assert through.tolist() == geom2.solids_through_point(n_idx).tolist()
    for h in hits:
        on_solid = ref.dots(ref.points[through], ref.points[sorted(h.candidate.points)]) == 0
        assert (on_solid.sum(axis=1) == 7).all()


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


def test_search_rejects_negative_budget(geom4):
    with pytest.raises(ValueError, match="non-negative"):
        search_quasi(geom4, "switching", budget=-5)


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


def _linear_values(quot):
    """l_r on W for every r < q^3, as a (q^3, |W|) array."""
    q = quot.field.q
    return dots(quot.field, _digits(np.arange(q**3), q, 3), quot.w_pts)


def _switching_stream(quot, budget):
    """
    The switching stream in (bases, shifts) blocks standing for the value
    vectors bases[b] + l_s on W, s < shifts, in row-major order: first
    the quadric's own section, then sqrt(ternary quadratic) plus each of
    the q^3 linear forms, forms in ascending coefficient order, until the
    budget is covered.
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


def _stream_rows(quot, budget):
    """Every stream candidate below the budget as a row, with its mask entry."""
    lin = _linear_values(quot)
    rows, mask = [], []
    for bases, shifts in _switching_stream(quot, budget):
        rows.append((bases[:, None, :] ^ lin[None, :shifts, :]).reshape(-1, lin.shape[1]))
        mask.append(quot.passing_shifts(bases, shifts).reshape(-1))
    return np.concatenate(rows)[:budget], np.concatenate(mask)[:budget]


def _quasi_definition(ref, nucleus):
    """
    A predicate on sorted point index lists: the quasi-quadric definition
    with the given nucleus N, from the reference space alone.  Every line
    through N meets the set once, and every solid off N meets it in q^2+1
    or (q+1)^2 points.  The incidence of the points with the solids off N
    is built once, point-major, so a set costs one gather of its rows.
    """
    q = ref.q
    nuc = np.array(nucleus, dtype=np.uint8)
    n_idx = int(ref.index(nuc))
    others = np.delete(np.arange(ref.n), n_idx)
    # each point's line through N, keyed by its smallest point index
    shifted = ref.points[others, None, :] ^ ref.mul[np.arange(q)[None, :, None], nuc]
    line = np.full(ref.n, -1)
    line[others] = ref.index(ref.normalize(shifted)).min(axis=1)
    off = np.flatnonzero(ref.dots(ref.points, nuc[None, :])[:, 0])
    on_solid = ref.dots(ref.points, ref.points[off]) == 0

    def holds(points) -> bool:
        if n_idx in points or len(points) != q**3 + q**2 + q + 1:
            return False
        if len(np.unique(line[points])) != len(points):
            return False
        sizes = np.count_nonzero(on_solid[points], axis=0)
        return set(sizes.tolist()) <= {q * q + 1, (q + 1) ** 2}

    return holds


def _assert_filter_is_definition(is_quasi, quot, rows, mask):
    single = quot.passing_shifts(rows, 1)[:, 0]
    for row, passed, alone in zip(rows, mask, single):
        values = quot.base.copy()
        values[quot.w_ids] = row
        points = sorted(quot.candidate_points(values))
        assert passed == alone == is_quasi(points)


def test_passing_shifts_matches_definition_q4(geom4, reference_space):
    quot = _Quotient(geom4)
    rows, mask = _stream_rows(quot, 4**9 + 1)
    assert len(rows) == 262145 and mask.sum() == 3073
    passing = np.unique(rows[mask], axis=0)
    assert len(passing) == 48
    ref = reference_space(4)
    holds = _quasi_definition(ref, SEARCH_NUCLEUS)

    def is_quasi(points):
        # the reference's own check, which the q=8 test's predicate must match
        expected = ref.quasi_quadric_problem(points, SEARCH_NUCLEUS) is None
        assert holds(points) == expected
        return expected

    sample = np.random.default_rng(12).choice(len(rows), 512, replace=False)
    _assert_filter_is_definition(is_quasi, quot, rows[sample], mask[sample])
    _assert_filter_is_definition(is_quasi, quot, passing, np.ones(len(passing), dtype=bool))


def test_passing_shifts_matches_definition_q8(geom8, reference_space):
    quot = _Quotient(geom8)
    rows, mask = _stream_rows(quot, 513)
    holds = _quasi_definition(reference_space(8), SEARCH_NUCLEUS)
    _assert_filter_is_definition(holds, quot, rows, mask)


def _agreement_mask(quot, bases, shifts):
    """
    The count filter by agreement compares, q^3 * |W| per base: bases[b] + l_s
    passes iff its agreement with l_r on W is 1 or 2q+1 for r in R0 and q+1
    for every other r.  As A_(g,s)(r) = A_g(r ^ s), class s % q of A_g
    plays R0's part.
    """
    q, lin = quot.field.q, _linear_values(quot)
    chunk = max(1, (1 << 20) // lin.size)
    out = []
    for lo in range(0, len(bases), chunk):
        block = bases[lo : lo + chunk]
        agree = (block[:, None, :] == lin[None, :, :]).sum(axis=2).reshape(len(block), -1, q)
        on_r0 = ((agree == 1) | (agree == 2 * q + 1)).all(axis=1)
        ok = on_r0 & ((agree == q + 1).all(axis=1).sum(axis=1, keepdims=True) == q - 1)
        out.append(ok[:, np.arange(shifts) % q])
    return np.concatenate(out)


@pytest.mark.parametrize("q, budget, passes", [(4, 4**9 + 1, 3073), (8, 20000, 1)])
def test_passing_shifts_matches_agreement_oracle(geoms, q, budget, passes):
    quot = _Quotient(geoms[q])
    seen = passed = 0
    for bases, shifts in _switching_stream(quot, budget):
        mask = quot.passing_shifts(bases, shifts)
        assert np.array_equal(mask, _agreement_mask(quot, bases, shifts))
        passed += int(mask.reshape(-1)[: budget - seen].sum())
        seen += mask.size
    assert (min(seen, budget), passed) == (budget, passes)


def test_passing_shifts_matches_agreement_oracle_q16(geom16):
    q = 16
    quot = _Quotient(geom16)
    field, w = geom16.field, quot.w_pts
    monomials = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    mono = np.stack([field.mul_table[w[:, i], w[:, j]] for i, j in monomials], axis=1)
    # the 15 conic forms c*w0*w1, the same with a random diagonal, and random forms
    rng = np.random.default_rng(1616)
    diag = rng.integers(0, q, size=(15, 3))
    conics = np.zeros((30, 6), dtype=np.int64)
    conics[:, 1] = np.tile(np.arange(1, q), 2)
    conics[15:, [0, 3, 5]] = diag
    coeffs = np.concatenate([conics, rng.integers(0, q, size=(34, 6))]).astype(np.uint8)
    bases = field.sqrt_table[dots(field, coeffs, mono)]
    mask = quot.passing_shifts(bases, q**3)
    assert np.array_equal(mask, _agreement_mask(quot, bases, q**3))
    # a conic form passes on exactly one class: the w2 coefficient sqrt(c22) of its shift
    classes = [np.flatnonzero(row[:q]).tolist() for row in mask[:30]]
    assert classes == [[0]] * 15 + [[int(field.sqrt_table[c])] for c in diag[:, 2]]


@pytest.mark.parametrize("q", [4, 8])
def test_passing_shifts_empty_batch(geoms, q):
    quot = _Quotient(geoms[q])
    mask = quot.passing_shifts(np.zeros((0, len(quot.w_ids)), dtype=np.uint8), q**3)
    assert mask.shape == (0, q**3) and mask.dtype == bool


@pytest.mark.parametrize(
    "q, budget",
    [(4, b) for b in (0, 1, 2, 65, 66, 4097, 4098, 16385, 16389, 16390, 65537, 65538)]
    + [(4, 4**9), (4, 4**9 + 1), (4, 300000)]
    + [(8, b) for b in (0, 1, 2, 513, 4097, 4098, 20000, 20481, 40000)],
)
def test_search_matches_stream_oracle(geoms, q, budget):
    # the hits are the stream's distinct passing rows below the budget, in stream order
    quot = _Quotient(geoms[q])
    rows, mask = _stream_rows(quot, budget)
    passing = rows[mask]
    _, first = np.unique(passing, axis=0, return_index=True)
    expected = []
    for row in passing[np.sort(first)]:
        values = quot.base.copy()
        values[quot.w_ids] = row
        expected.append(quot.candidate_points(values))
    hits = search_quasi(geoms[q], "switching", budget=budget)
    assert [h.candidate.points for h in hits] == expected


@pytest.mark.parametrize("q, budget, most", [(4, 4**9 + 1, 64), (8, 20000, 6)])
def test_search_decides_each_candidate_once(geoms, monkeypatch, q, budget, most):
    # one transformed row per distinct base sqrt(b), not one per stream form
    spectrum, rows = _Quotient.spectrum, []

    def counted(self, values, points):
        rows.append(len(values))
        return spectrum(self, values, points)

    monkeypatch.setattr(_Quotient, "spectrum", counted)
    search_quasi(geoms[q], "switching", budget=budget)
    assert rows[0] == 1  # the quotient's own row, for the two-column law
    assert sum(rows[1:]) <= most


def _irreducible_fields(e):
    """GF(2^e) under each irreducible modulus of degree e."""
    fields = []
    for modulus in range(1 << e, 2 << e):
        try:
            fields.append(GF(e, modulus))
        except ValueError:  # reducible
            pass
    return fields


@pytest.mark.parametrize("e, count", [(1, 2), (2, 1), (3, 2)])
def test_quotient_two_column_law_every_modulus(e, count):
    # each build checks the law against the quadric's solid counts
    fields = _irreducible_fields(e)
    assert len(fields) == count
    for field in fields:
        _Quotient(Geometry(field))


def test_quotient_two_column_law_q16(geom16):
    _Quotient(geom16)


@pytest.fixture
def shifted_r0_column(monkeypatch):
    """Add 1 to every solid count on the solids (1, a) with a // q == 0: the R0 form l_0."""
    counts = Geometry.incidence_counts_per_solid

    def shifted(self, point_indices):
        out = counts(self, point_indices).copy()
        first = self.n - self.field.q**4
        out[first : first + self.field.q] += 1
        return out

    monkeypatch.setattr(Geometry, "incidence_counts_per_solid", shifted)


def test_quotient_rejects_broken_law(shifted_r0_column, capsys):
    with pytest.raises(InconsistencyError, match="two-column law at l_0$"):
        _Quotient(Geometry(GF(2)))
    for argv in (["--q", "4"], ["--q", "2", "--exhaustive"]):
        assert main(["quasi", "search", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "two-column law at l_0" in err
