"""
Acceptance suite: one test per criterion, every count exact (q = 2, 4, 8).

Each test prints a single PASS/FAIL line; run with ``pytest -s`` to see
them.  The paper-scale claims are theorems, so there are no tolerances
anywhere: a single off-by-one is a failure.
"""

import time
from collections import Counter
from contextlib import contextmanager
from itertools import product
from random import Random

import numpy as np
import pytest

from conftest import random_invertible_matrix
from pg4q.families import (
    QUADRIC_VERDICT,
    VIOLATES_I,
    characterize,
    check_condition_I,
    solid_spectrum,
    structure_counts,
    verify_hyperbolic_spectra,
)
from pg4q.gf import GF
from pg4q.pg import Geometry, gaussian_binomial, histogram
from pg4q.quadric import (
    apply_collineation,
    canonical_q4,
    classify_all_solids,
    line_profile,
    nucleus,
    zero_set,
)
from pg4q.quasi import (
    QuasiCandidate,
    exhaustive_search_q2,
    is_quasi_quadric,
    search_quasi,
    verify_converse_lemma,
)

QS = (2, 4, 8)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  ({label})")
        raise
    print(f"criterion {number}: PASS  ({label})")


def test_criterion_1_spectra_and_runtime(geoms):
    with criterion(1, "hyperbolic incidence spectra, q=8 under 60 s"):
        for q, geom in geoms.items():
            spectra = verify_hyperbolic_spectra(geom, canonical_q4(geom.field))
            assert dict(spectra["points"]) == {
                0: 1,
                q**3 // 2: q**4 - 1,
                (q**3 + q**2) // 2: q**3 + q**2 + q + 1,
            }
            assert set(spectra["lines"]) <= {
                0, q * (q - 1) // 2, q * q // 2, q * (q + 1) // 2, q * q,
            }
            assert set(spectra["planes"]) <= {0, q // 2, q}
        start = time.perf_counter()
        fresh = Geometry(GF(3))
        verify_hyperbolic_spectra(fresh, canonical_q4(fresh.field))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"q=8 run took {elapsed:.1f} s"


def test_criterion_2_family_census(geoms):
    with criterion(2, "solid census |H|, |E|, |T|"):
        expected = {2: (10, 6, 15), 4: (136, 120, 85), 8: (2080, 2016, 585)}
        for q, geom in geoms.items():
            c = classify_all_solids(geom, canonical_q4(geom.field))
            sizes = (len(c.hyperbolic), len(c.elliptic), len(c.tangent))
            assert sizes == expected[q]
            assert sizes == (
                q * q * (q * q + 1) // 2,
                q * q * (q * q - 1) // 2,
                q**3 + q**2 + q + 1,
            )


def test_criterion_3_lemma_chain(geoms):
    with criterion(3, "identity chain for the hyperbolic family"):
        for q, geom in geoms.items():
            classes = classify_all_solids(geom, canonical_q4(geom.field))
            colors = check_condition_I(geom, classes.hyperbolic)
            assert not colors.violations
            sc = structure_counts(geom, classes.hyperbolic, colors)
            h = sc.h
            assert h.denominator == 1 and int(h) == q * q + 1
            assert int(h) % q == 1
            assert int(h) * (int(h) - 2) % (q + 1) == 0
            failed = [i.name for i in sc.identities if not i.holds]
            assert not failed, failed
            assert sc.black_hist["hyperbolic"] == Counter({(q + 1) ** 2: len(classes.hyperbolic)})
            assert sc.black_hist["elliptic"] == Counter({q * q + 1: len(classes.elliptic)})
            assert sc.black_hist["tangent"] == Counter({q * q + q + 1: len(classes.tangent)})


def test_criterion_4_round_trip(geoms):
    with criterion(4, "characterise 20 random collineation images per q"):
        for q, geom in geoms.items():
            rng = Random(1000 + q)
            forms = [canonical_q4(geom.field)]
            while len(forms) < 21:
                m = random_invertible_matrix(geom.field, rng)
                forms.append(apply_collineation(forms[0], m))
            for form in forms:
                classes = classify_all_solids(geom, form)
                rep = characterize(geom, classes.hyperbolic)
                assert rep.verdict.kind == QUADRIC_VERDICT, rep.verdict
                assert tuple(sorted(rep.colors.black)) == zero_set(geom, form)
                assert rep.verdict.nucleus == nucleus(form)


def test_criterion_5_negative_controls(geom2, geom4):
    with criterion(5, "perturbed families are rejected with witnesses"):
        for geom in (geom2, geom4):
            classes = classify_all_solids(geom, canonical_q4(geom.field))
            fam = classes.hyperbolic
            for bad in (fam[1:], fam + (classes.elliptic[0],), fam[:1]):
                rep = characterize(geom, bad)
                assert rep.verdict.kind == VIOLATES_I
                assert len(rep.verdict.witnesses) > 0


def test_criterion_6_q2_rigidity(geom2):
    with criterion(6, "q=2 exhaustive search under 10 s, oracle-matched"):
        start = time.perf_counter()
        hits = exhaustive_search_q2(geom2)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"search took {elapsed:.1f} s"
        assert all(h.form is not None for h in hits)
        fast = {h.candidate.points for h in hits}

        # independent slow path: every transversal of the 15 nucleus
        # lines, tested one by one against the raw definition
        n_idx = geom2.point_index[(1, 0, 0, 0, 0)]
        lines = geom2.nline_partition(n_idx)
        slow = set()
        for choice in product(range(2), repeat=15):
            pts = frozenset(line[c] for line, c in zip(lines, choice))
            ok, _ = is_quasi_quadric(
                geom2, QuasiCandidate(points=pts, nucleus=(1, 0, 0, 0, 0))
            )
            if ok:
                slow.add(pts)
        assert fast == slow
        assert len(hits) == len(slow)


def test_criterion_7_converse_lemma(geom2, geom4):
    with criterion(7, "secant-family counts for every verified quasi-quadric"):
        q2_hits = exhaustive_search_q2(geom2)
        for h in q2_hits:
            counts = verify_converse_lemma(geom2, h.candidate)
            assert (counts.member_count, counts.nonmember_count, counts.nucleus_count) == (6, 4, 0)
        q4_hits = search_quasi(geom4, "switching", seed=0, budget=300000)
        assert q4_hits
        for h in q4_hits:
            counts = verify_converse_lemma(geom4, h.candidate)
            assert (counts.member_count, counts.nonmember_count, counts.nucleus_count) == (40, 32, 0)


def test_criterion_8_recognizer_spectra(geoms):
    with criterion(8, "line/plane/solid spectra of the quadric"):
        for q, geom in geoms.items():
            z = zero_set(geom, canonical_q4(geom.field))
            assert set(histogram(geom.pencil_sums(z))) == {1, q + 1, 2 * q + 1}
            assert set(solid_spectrum(geom, z)) == {
                q * q + 1, q * q + q + 1, (q + 1) ** 2,
            }
            assert set(line_profile(geom, z)) <= {0, 1, 2, q + 1}


def test_criterion_9_property_suites(geoms):
    with criterion(9, "field axioms, duality, determinism, invariance"):
        # exhaustive field axioms for q <= 16
        for e in (1, 2, 3, 4):
            f = GF(e)
            mt = f.mul_table
            els = np.arange(f.q)
            assert (mt == mt.T).all()
            a, b, c = np.meshgrid(els, els, els, indexing="ij")
            assert (mt[a, b ^ c] == mt[a, b] ^ mt[a, c]).all()
            assert (mt[a, mt[b, c]] == mt[mt[a, b], c]).all()
            assert (mt[els[1:], np.array(f._inv)[1:]] == 1).all()

        # duality: equal numbers of lines and planes
        for q, geom in geoms.items():
            n_lines = geom.subspace_table(1).size
            n_planes = geom.subspace_table(2).size
            assert n_lines == n_planes == gaussian_binomial(5, 2, q)

        # enumeration determinism: two fresh builds byte-identical
        for e in (1, 2):
            a = Geometry(GF(e))
            b = Geometry(GF(e))
            assert repr(a.points).encode() == repr(b.points).encode()
            assert a.subspace_table(2).rref.tobytes() == b.subspace_table(2).rref.tobytes()

        # collineation invariance of criteria 1-3 data
        for q, geom in geoms.items():
            base_form = canonical_q4(geom.field)
            base_spectra = verify_hyperbolic_spectra(geom, base_form)
            base_classes = classify_all_solids(geom, base_form)
            base_colors = check_condition_I(geom, base_classes.hyperbolic)
            base_sc = structure_counts(geom, base_classes.hyperbolic, base_colors)
            rng = Random(31 * q)
            n_matrices = 2 if q == 8 else 3
            for _ in range(n_matrices):
                m = random_invertible_matrix(geom.field, rng)
                form = apply_collineation(base_form, m)
                spectra = verify_hyperbolic_spectra(geom, form)
                assert spectra == base_spectra
                classes = classify_all_solids(geom, form)
                assert (
                    len(classes.hyperbolic),
                    len(classes.elliptic),
                    len(classes.tangent),
                ) == (
                    len(base_classes.hyperbolic),
                    len(base_classes.elliptic),
                    len(base_classes.tangent),
                )
                colors = check_condition_I(geom, classes.hyperbolic)
                sc = structure_counts(geom, classes.hyperbolic, colors)
                assert all(i.holds for i in sc.identities)
                assert sc.black_hist == base_sc.black_hist
