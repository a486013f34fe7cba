"""Field arithmetic: worked examples, validation, and exhaustive axioms."""

import numpy as np
import pytest

from pg4q.gf import GF

ALL_E = (1, 2, 3, 4)


def test_default_moduli():
    f = GF(2)
    # x^2 + x + 1 is the unique irreducible quadratic over GF(2)
    assert f.q == 4 and f.modulus == 0b111
    assert GF(3).modulus == 0b1011
    assert GF(4).modulus == 0b10011


def test_explicit_modulus_accepted():
    f = GF(3, modulus=0b1011)
    assert f.q == 8


def test_wrong_degree_rejected():
    with pytest.raises(ValueError):
        GF(2, modulus=0b110)  # x^2 + x = x(x+1), and also tested as reducible


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        GF(3, modulus=0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)
    with pytest.raises(ValueError):
        GF(4, modulus=0b10101)  # x^4+x^2+1 = (x^2+x+1)^2


def test_unsupported_exponent():
    with pytest.raises(ValueError):
        GF(5)
    with pytest.raises(ValueError):
        GF(0)


def test_from_order():
    assert GF.from_order(8).q == 8
    with pytest.raises(ValueError):
        GF.from_order(6)


def test_add_is_xor():
    # elements are bit vectors, so addition is XOR and a + a = (1 + 1) a = 0
    assert 2 ^ 3 == 1
    assert 5 ^ 3 == 6
    for q in (2, 4, 8, 16):
        mt = GF.from_order(q).mul_table
        a = np.arange(q)
        assert (mt[a, 1] ^ mt[a, 1] == mt[a, 1 ^ 1]).all()


def test_mul_worked_examples():
    f4 = GF(2)
    # x * x = x^2 = x + 1 (mod x^2+x+1)
    assert f4.mul_table[2, 2] == 3
    f8 = GF(3)
    # x * x^2 = x^3 = x + 1 (mod x^3+x+1)
    assert f8.mul_table[2, 4] == 3
    for q in (2, 4, 8, 16):
        fq = GF.from_order(q)
        assert (fq.mul_table[:, 1] == np.arange(q)).all()


def test_inverse_worked_examples():
    f4 = GF(2)
    # 2 * 3 = x(x+1) = x^2 + x = 1 (mod x^2+x+1)
    assert f4.inv_table[2] == 3
    for q in (2, 4, 8, 16):
        fq = GF.from_order(q)
        assert fq.inv_table[1] == 1
        units = np.arange(1, q)
        assert (fq.mul_table[units, fq.inv_table[units]] == 1).all()


@pytest.mark.parametrize("e", ALL_E)
def test_field_axioms_exhaustive(e):
    f = GF(e)
    mt = f.mul_table
    els = np.arange(f.q)
    assert (els ^ 0 == els).all()
    assert (mt[els, 0] == 0).all()
    assert (mt == mt.T).all()
    a, b, c = np.meshgrid(els, els, els, indexing="ij")
    assert (mt[a, mt[b, c]] == mt[mt[a, b], c]).all()
    assert (a ^ (b ^ c) == (a ^ b) ^ c).all()
    assert (mt[a, b ^ c] == mt[a, b] ^ mt[a, c]).all()


@pytest.mark.parametrize("e", ALL_E)
def test_multiplicative_group_cyclic(e):
    f = GF(e)
    orders = []
    for a in range(1, f.q):
        x = a
        k = 1
        while x != 1:
            x = f.mul_table[x, a]
            k += 1
        orders.append(k)
    assert max(orders) == f.q - 1


@pytest.mark.parametrize("e", ALL_E)
def test_squaring_is_bijection(e):
    f = GF(e)
    els = np.arange(f.q)
    assert len(set(f.mul_table[els, els].tolist())) == f.q
    s = f.sqrt_table
    assert (f.mul_table[s, s] == els).all()


def test_context_equality():
    assert GF(2) == GF(2)
    assert GF(2) != GF(3)
    assert hash(GF(2)) == hash(GF(2))
