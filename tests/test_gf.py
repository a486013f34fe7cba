"""Field arithmetic: worked examples, validation, and exhaustive axioms."""

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
    f = GF(2)
    assert f.add(2, 3) == 1
    f8 = GF(3)
    assert f8.add(5, 3) == 6
    for q in (2, 4, 8, 16):
        fq = GF.from_order(q)
        for a in fq.elements():
            assert fq.add(a, a) == 0  # characteristic 2


def test_mul_worked_examples():
    f4 = GF(2)
    # x * x = x^2 = x + 1 (mod x^2+x+1)
    assert f4.mul(2, 2) == 3
    f8 = GF(3)
    # x * x^2 = x^3 = x + 1 (mod x^3+x+1)
    assert f8.mul(2, 4) == 3
    for q in (2, 4, 8, 16):
        fq = GF.from_order(q)
        for a in fq.elements():
            assert fq.mul(a, 1) == a


def test_inverse_worked_examples():
    f4 = GF(2)
    # 2 * 3 = x(x+1) = x^2 + x = 1 (mod x^2+x+1)
    assert f4.inv(2) == 3
    for q in (2, 4, 8, 16):
        fq = GF.from_order(q)
        assert fq.inv(1) == 1
        for a in fq.units():
            assert fq.mul(a, fq.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            fq.inv(0)


@pytest.mark.parametrize("e", ALL_E)
def test_field_axioms_exhaustive(e):
    f = GF(e)
    q = f.q
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 0) == 0
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("e", ALL_E)
def test_multiplicative_group_cyclic(e):
    f = GF(e)
    orders = []
    for a in f.units():
        x = a
        k = 1
        while x != 1:
            x = f.mul(x, a)
            k += 1
        orders.append(k)
    assert max(orders) == f.q - 1


@pytest.mark.parametrize("e", ALL_E)
def test_squaring_is_bijection(e):
    f = GF(e)
    squares = {f.mul(a, a) for a in f.elements()}
    assert len(squares) == f.q
    for a in f.elements():
        s = f.sqrt(a)
        assert f.mul(s, s) == a


def test_context_equality():
    assert GF(2) == GF(2)
    assert GF(2) != GF(3)
    assert hash(GF(2)) == hash(GF(2))
