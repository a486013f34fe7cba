import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pg4q.gf import GF
from pg4q.pg import Geometry, rref


def random_invertible_matrix(field, rng):
    """A uniformly sampled invertible 5x5 matrix over the field (rejection sampling)."""
    q = field.q
    while True:
        m = tuple(tuple(rng.randrange(q) for _ in range(5)) for _ in range(5))
        red, _ = rref(field, m)
        if len(red) == 5:
            return m


@pytest.fixture(scope="session")
def geom2():
    return Geometry(GF(1))


@pytest.fixture(scope="session")
def geom4():
    return Geometry(GF(2))


@pytest.fixture(scope="session")
def geom8():
    return Geometry(GF(3))


@pytest.fixture(scope="session")
def geom16():
    return Geometry(GF(4))


@pytest.fixture(scope="session")
def geoms(geom2, geom4, geom8):
    return {2: geom2, 4: geom4, 8: geom8}


@pytest.fixture(scope="session")
def reference_space():
    """perfbench's definition-level PG(4,q), which does not import pg4q, by q."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "ref.py"
    spec = importlib.util.spec_from_file_location("perfbench_ref", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Space


@pytest.fixture
def no_mirror(monkeypatch):
    """Make any read of Geometry's tuple and dict views fail the test."""

    def read(self):
        raise AssertionError("a program path read a Geometry tuple/dict view")

    for name in ("points", "point_index", "solids", "solid_index"):
        monkeypatch.setattr(Geometry, name, property(read))


@pytest.fixture
def no_subspace_table(monkeypatch):
    """Make any build of a sorted subspace table fail the test."""

    def build(self, k):
        raise AssertionError("a program path built a subspace table")

    monkeypatch.setattr(Geometry, "subspace_table", build)


@pytest.fixture
def no_plane_pencils(monkeypatch):
    """Make any build of the (M, q+1) pencil matrix fail the test."""

    def build(self):
        raise AssertionError("a program path built the pencil matrix")

    monkeypatch.setattr(Geometry, "plane_pencils", build)


def corrupt_pencil_rows(geom, monkeypatch, strangers):
    """Make geom's pencil stream list solid strangers[r] in place of the first solid of row r."""
    runs = geom.pencil_runs

    def corrupted():
        start = 0
        for run in runs():
            run = run.copy()
            for r, s in strangers.items():
                if start <= r < start + len(run):
                    run[r - start, 0] = s
            start += len(run)
            yield run

    monkeypatch.setattr(geom, "pencil_runs", corrupted)


def pencil_sums(geom, indices):
    """
    Per pencil row, in pivot-block order, |X ∩ P| for a point set X and
    the row's plane P; by duality, for a solid set X, how many of its
    solids contain the row's line.  Duplicate indices count once.
    """
    idx = np.unique(np.asarray(list(indices), dtype=np.int64))
    counts = geom.incidence_counts_per_solid(idx)
    return np.concatenate([c for _, _, (c,) in geom.pencil_totals([counts], [len(idx)])])
