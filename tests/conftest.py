import importlib.util
from pathlib import Path

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
