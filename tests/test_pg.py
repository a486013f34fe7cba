"""Geometry of PG(4,q): enumeration, canonical forms, incidence."""

from collections import Counter
from itertools import product

import numpy as np
import pytest

from pg4q.gf import GF
from pg4q.pg import (
    Geometry,
    InconsistencyError,
    enumerate_points,
    dots,
    gaussian_binomial,
    histogram,
    normalize,
    projective_span_points,
    rref,
)
from pg4q.families import characterize
from pg4q.quadric import canonical_q4, classify_all_solids, line_profile, nucleus, zero_set
from pg4q.quasi import QuasiCandidate, is_quasi_quadric


def test_point_counts():
    assert len(enumerate_points(GF(1))) == 31  # 2^5 - 1 nonzero binary vectors
    assert len(enumerate_points(GF(2))) == (4**5 - 1) // 3  # 341


def test_first_point_and_order(geom2):
    assert geom2.points[0] == (0, 0, 0, 0, 1)
    assert list(geom2.points) == sorted(geom2.points)


def test_points_canonical_and_unique(geom4):
    seen = set()
    for p in geom4.points:
        lead = next(x for x in p if x)
        assert lead == 1
        assert p not in seen
        seen.add(p)


def test_point_indices_of_every_vector(geom4):
    # all 4^5 - 1 nonzero vectors map to the index of their normalised point
    vecs = np.array(list(product(range(4), repeat=5))[1:], dtype=np.uint8)
    expected = [geom4.point_index[normalize(geom4.field, v)] for v in vecs.tolist()]
    assert geom4.point_indices(vecs).tolist() == expected
    assert [geom4.index_of(v) for v in vecs.tolist()] == expected


@pytest.mark.parametrize(
    "vec", [(0, 0, 0, 0, 0), (1, 9, 0, 0, 0), (7, 0, 0, 0, 0), (0, 0, 0, 1, -1), (1, 0, 0, 0)]
)
def test_index_of_rejects_bad_vectors(geom4, vec):
    # point_indices would read a wrong table entry or none for these
    with pytest.raises(ValueError, match="not a nonzero vector"):
        geom4.index_of(vec)


def test_program_paths_leave_the_views_unbuilt():
    geom = Geometry(GF(2))
    form = canonical_q4(geom.field)
    characterize(geom, classify_all_solids(geom, form).hyperbolic)
    assert is_quasi_quadric(geom, QuasiCandidate(frozenset(zero_set(geom, form)), nucleus(form)))[0]
    assert "points" not in vars(geom) and "point_index" not in vars(geom)


def test_subspace_counts(geom2, geom4):
    # Gaussian binomials are the independent oracle for enumeration sizes
    assert geom2.subspace_table(1).size == gaussian_binomial(5, 2, 2) == 155
    assert geom2.subspace_table(2).size == gaussian_binomial(5, 3, 2) == 155
    assert geom4.subspace_table(1).size == gaussian_binomial(5, 2, 4) == 5797
    assert geom4.subspace_table(2).size == gaussian_binomial(5, 3, 4) == 5797


def test_q8_plane_count(geom8):
    expected = (8**5 - 1) * (8**4 - 1) // ((8**2 - 1) * (8 - 1))
    assert expected == 304265
    assert geom8.subspace_table(2).size == expected
    assert geom8.subspace_table(1).size == expected  # duality


def test_subspace_table_canonical(geom2, geom4):
    # canonical, unique and as many as the Gaussian binomial: every
    # subspace appears exactly once
    for geom in (geom2, geom4):
        for k in (1, 2):
            tab = geom.subspace_table(k)
            for m in tab.rref.tolist():
                assert rref(geom.field, m)[0] == tuple(map(tuple, m))
            keys = [tuple(m.ravel().tolist()) for m in tab.rref]
            assert keys == sorted(set(keys))
            assert len(keys) == gaussian_binomial(5, k + 1, geom.field.q)


def test_enumeration_deterministic():
    a = Geometry(GF(2))
    b = Geometry(GF(2))
    assert a.points == b.points
    assert np.array_equal(a.subspace_table(1).rref, b.subspace_table(1).rref)


def test_rref_and_normalize():
    f = GF(2)
    assert normalize(f, (0, 2, 0, 0, 2)) == (0, 1, 0, 0, 1)
    assert normalize(f, (0, 0, 0, 0, 0)) is None
    red, piv = rref(f, [(2, 0, 0, 2, 0), (0, 0, 0, 0, 3)])
    assert red == ((1, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    assert piv == (0, 4)


def test_solid_point_counts(geom2):
    # every solid carries q^3+q^2+q+1 points
    for s in range(geom2.n):
        assert geom2.solid_masks[s].bit_count() == 15


def test_duality_and_double_count(geom2, geom4):
    for geom in (geom2, geom4):
        q = geom.field.q
        assert len(geom.solids) == geom.n == q**4 + q**3 + q**2 + q + 1
        # sum of per-solid point counts = points * solids-through-a-point
        total = sum(m.bit_count() for m in geom.solid_masks)
        assert total == geom.n * (q**3 + q**2 + q + 1)


def test_incidence_count_kernels(geoms, reference_space):
    geom2 = geoms[2]
    all_solids = range(geom2.n)
    per_point = geom2.incidence_counts_per_point(all_solids)
    assert set(per_point.tolist()) == {15}  # solids through a point
    per_solid = geom2.incidence_counts_per_solid(range(geom2.n))
    assert set(per_solid.tolist()) == {15}
    # random subsets, the empty set and the whole space against the
    # brute-force count from the definition
    for q, geom in geoms.items():
        ref = reference_space(q)
        assert np.array_equal(ref.points, geom.point_array)
        rng = np.random.default_rng(q)
        n = geom.n
        for size in (0, 1, 2, 7, n // 5, n // 2, n):
            idx = np.sort(rng.choice(n, size, replace=False))
            expected = ref.incidences(ref.points, ref.points[idx])
            per_solid = geom.incidence_counts_per_solid(idx.tolist())
            assert per_solid.dtype == np.int64
            assert np.array_equal(per_solid, expected)
            assert np.array_equal(geom.incidence_counts_per_point(idx), expected)


def test_point_enumeration_q16(geom16, reference_space):
    assert np.array_equal(geom16.point_array, reference_space(16).points)
    assert geom16.n == 69905
    for i, p in enumerate(geom16.points):
        assert p == tuple(geom16.point_array[i])
        assert geom16.point_index[p] == i
    assert len(geom16.point_index) == geom16.n


def test_incidence_counts_whole_space_q16(geom16):
    # (q-1)|K| = 1,048,575: the largest value any caller passes
    counts = geom16.incidence_counts_per_solid(range(geom16.n))
    assert counts.dtype == np.int64
    assert set(counts.tolist()) == {16**3 + 16**2 + 16 + 1}


def test_incidence_counts_duplicates(geoms, reference_space):
    for q in (4, 8):
        geom, ref = geoms[q], reference_space(q)
        rng = np.random.default_rng(100 + q)
        idx = rng.choice(geom.n, geom.n // 3, replace=False)
        twice = np.concatenate([idx, idx])
        expected = ref.incidences(ref.points, ref.points[idx])
        assert np.array_equal(geom.incidence_counts_per_solid(twice), 2 * expected)
        some = np.concatenate([idx, idx[: len(idx) // 2]])
        assert np.array_equal(
            geom.incidence_counts_per_solid(some), ref.incidences(ref.points, ref.points[some])
        )


def test_incidence_counts_float32_range(geom16):
    # 16 copies of the whole space and one more point: (q-1)|K| = 2^24 - 1,
    # the largest multiplicity the float32 transform accepts
    extra = 12345
    idx = np.concatenate([np.tile(np.arange(geom16.n), 16), [extra]])
    assert 15 * len(idx) == 2**24 - 1
    counts = geom16.incidence_counts_per_solid(idx)
    expected = np.full(geom16.n, 16 * 4369)
    expected[geom16.solids_through_point(extra)] += 1
    assert np.array_equal(counts, expected)
    # one index more, (q-1)|K| = 2^24 + 14, is refused before any transform runs
    with pytest.raises(ValueError):
        geom16.incidence_counts_per_solid(np.append(idx, extra))


def test_incidence_counts_q16_quadric(geom16, reference_space):
    geom = geom16
    q = 16
    zeros = zero_set(geom, canonical_q4(geom.field))
    counts = geom.incidence_counts_per_solid(zeros)
    assert Counter(counts.tolist()) == {
        (q + 1) ** 2: 32896,
        q * q + 1: 32640,
        q * q + q + 1: 4369,
    }
    ref = reference_space(q)
    zero_pts = ref.points[list(zeros)]
    sample = np.random.default_rng(16).choice(geom.n, 64, replace=False)
    assert np.array_equal(counts[sample], ref.incidences(ref.points[sample], zero_pts))


def test_incidence_counts_divisibility_check():
    geom = Geometry(GF(2))
    chi, _ = geom._characters()
    geom._chi = chi.copy()
    geom._chi[1, 1] = 0  # a corrupted character table breaks exactness
    with pytest.raises(InconsistencyError):
        geom.incidence_counts_per_solid([0, 1, 2])


# -- big-int oracle for the pencil gathers -------------------------------------


def _family_point_masks(geom, solid_indices):
    """Per point, a bitmask over the solid sequence: bit j iff the point lies in solid j."""
    inc = dots(geom.field, geom.point_array, geom.point_array[list(solid_indices)]) == 0
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in inc]


def _indices(geom, matrices):
    """Per matrix, the point (by duality, solid) indices of its canonical rows."""
    return [[geom.point_index[tuple(r)] for r in m] for m in matrices.tolist()]


def _mask(indices):
    return sum(1 << int(i) for i in set(indices))


def _oracle_family_counts(geom, fam, k):
    """Per k-subspace in table order, the family solids containing all its generators."""
    fm = _family_point_masks(geom, fam)
    out = []
    for gens in _indices(geom, geom.subspace_table(k).rref):
        m = fm[gens[0]]
        for g in gens[1:]:
            m &= fm[g]
        out.append(m.bit_count())
    return np.array(out)


def _oracle_black(geom, black, red, k):
    """Per k-subspace in table order, its black count and red flag from the solid masks."""
    bmask, red_mask = _mask(black), _mask(red)
    sm = geom.solid_masks
    blacks, hasred = [], []
    for row in _indices(geom, geom.subspace_table(k).ann_rows):
        m = sm[row[0]]
        for s in row[1:]:
            m &= sm[s]
        blacks.append((m & bmask).bit_count())
        hasred.append(bool(m & red_mask))
    return np.array(blacks), np.array(hasred)


def _line_of_pencil_row(geom):
    """Line-table index of each pencil row read as a point set; a bijection."""
    sm = geom.solid_masks
    index = {}
    for t, (a, b, c) in enumerate(_indices(geom, geom.subspace_table(1).ann_rows)):
        m = sm[a] & sm[b] & sm[c]
        index[tuple(i for i in range(geom.n) if (m >> i) & 1)] = t
    rows = np.array([index[tuple(r)] for r in geom.plane_pencils().tolist()])
    assert sorted(rows.tolist()) == list(range(geom.subspace_table(1).size))
    return rows


def test_family_point_masks(geom2, geom4):
    from pg4q.families import check_condition_I
    from pg4q.quadric import classify_all_solids

    fam = (0, 5, 17)
    masks = _family_point_masks(geom2, fam)
    incident = dots(geom2.field, geom2.point_array, geom2.point_array[list(fam)]) == 0
    for p in range(geom2.n):
        for j in range(len(fam)):
            assert ((masks[p] >> j) & 1) == incident[p, j]

    # the six arrays of characterize against the oracle, plane by plane and
    # line by line, on the hyperbolic family, a one-solid perturbation and
    # random sets
    for geom in (geom2, geom4):
        rng = np.random.default_rng(geom.field.q)
        line = _line_of_pencil_row(geom)
        classes = classify_all_solids(geom, canonical_q4(geom.field))
        hyp = classes.hyperbolic
        random_fam = tuple(np.flatnonzero(rng.random(geom.n) < 0.3).tolist())
        families = [hyp, hyp[1:], tuple(sorted(hyp + classes.elliptic[:1])), random_fam]
        for fam in families:
            colors = check_condition_I(geom, fam)
            black, red = (np.flatnonzero(rng.random(geom.n) < p).tolist() for p in (0.4, 0.05))
            point_sets = [(colors.black, colors.red), (black, red)]
            assert np.array_equal(
                geom.pencil_members(fam).sum(axis=1), _oracle_family_counts(geom, fam, 2)
            )
            assert np.array_equal(geom.pencil_sums(fam), _oracle_family_counts(geom, fam, 1)[line])
            for black, red in point_sets:
                got_black, got_red = geom.pencil_sums(black), geom.pencil_sums(red) > 0
                want_black, want_red = _oracle_black(geom, black, red, 2)
                assert np.array_equal(got_black, want_black)
                assert np.array_equal(got_red, want_red)
                got_black = geom.pencil_members(black).sum(axis=1)
                got_red = geom.pencil_members(red).any(axis=1)
                want_black, want_red = _oracle_black(geom, black, red, 1)
                assert np.array_equal(got_black, want_black[line])
                assert np.array_equal(got_red, want_red[line])
                twice = list(black) * 2  # duplicates count once
                for k, spectrum in ((1, line_profile(geom, twice)),
                                    (2, histogram(geom.pencil_sums(twice)))):
                    assert spectrum == Counter(_oracle_black(geom, black, (), k)[0].tolist())


def test_pencil_sums_divisibility_check():
    geom = Geometry(GF(2))
    pencils = geom.plane_pencils().copy()
    stranger = next(s for s in range(geom.n) if s not in pencils[0])
    p = next(
        p for p in geom.solids_through_point(stranger)  # points of a solid, by duality
        if p not in geom.solids_through_point(pencils[0][0])
    )
    geom.pencil_sums([p])  # consistent before the corruption
    pencils[0][0] = stranger  # row 0 is no longer the pencil of a plane
    geom._pencils = pencils
    with pytest.raises(InconsistencyError):
        geom.pencil_sums([p])


def test_annihilator_table(geom2):
    tab = geom2.subspace_table(2)
    sm = geom2.solid_masks
    for rows, (a, b) in zip(tab.rref.tolist(), _indices(geom2, tab.ann_rows)):
        m = sm[a] & sm[b]
        pts = [geom2.point_index[p] for p in projective_span_points(geom2.field, rows)]
        assert m.bit_count() == 7  # q^2+q+1 points of a plane
        assert all((m >> p) & 1 for p in pts)


def test_plane_pencils(geom2, geom4, geom8, reference_space):
    # the pencil of a plane: the solids whose covector annihilates all
    # three of its RREF rows
    for geom in (geom2, geom4):
        ref = reference_space(geom.field.q)
        rows = geom.subspace_table(2).rref
        on = (ref.dots(ref.points, rows.reshape(-1, 5)) == 0).reshape(geom.n, len(rows), 3)
        expected = [np.flatnonzero(col).tolist() for col in on.all(axis=2).T]
        assert geom.plane_pencils().tolist() == expected
    # q=8, row by row: q+1 distinct ascending solids, each annihilating the
    # RREF rows of the plane in the same table row, and no row repeated
    ref = reference_space(8)
    pencils = geom8.plane_pencils()
    assert pencils.shape == (geom8.subspace_table(2).size, 9)
    assert (np.diff(pencils, axis=1) > 0).all()
    solids = ref.points[pencils][:, :, None, :]
    rows = geom8.subspace_table(2).rref[:, None, :, :]
    acc = ref.mul[solids[..., 0], rows[..., 0]]
    for i in range(1, 5):
        acc ^= ref.mul[solids[..., i], rows[..., i]]
    assert not acc.any()
    assert len(np.unique(pencils, axis=0)) == len(pencils)


def test_nline_partition(geom2, geom4):
    for geom in (geom2, geom4):
        q = geom.field.q
        n_idx = geom.point_index[(1, 0, 0, 0, 0)]
        part = geom.nline_partition(n_idx)
        assert len(part) == q**3 + q**2 + q + 1
        members = [p for line in part for p in line]
        assert len(members) == geom.n - 1
        assert len(set(members)) == geom.n - 1
        assert all(len(line) == q for line in part)


def _nline_partition_by_span(geom, point_idx):
    """The lines through a point, grouped by their canonical span."""
    npt = geom.points[point_idx]
    groups = {}
    for i, p in enumerate(geom.points):
        if i != point_idx:
            groups.setdefault(rref(geom.field, (npt, p))[0], []).append(i)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def test_nline_partition_matches_span_oracle(geom2, geom4):
    for geom in (geom2, geom4):
        for n_idx in range(geom.n):
            assert geom.nline_partition(n_idx) == _nline_partition_by_span(geom, n_idx)


def test_intersection_profile_solid_pointset(geom2):
    # lines meet a hyperplane in 1 or q+1 points, never 0
    k = geom2.solids_through_point(0)  # the points of solid 0, by duality
    prof = line_profile(geom2, k)
    assert set(prof) == {1, 3}
