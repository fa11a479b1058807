import itertools

import pytest
from hypothesis import given, strategies as st

from selbroadcast.gf import DEFAULT_POLYNOMIALS, GF


@pytest.fixture(scope="module")
def gf8():
    return GF(3)  # x^3 + x + 1


def test_add_is_xor(gf8):
    assert gf8.add(3, 5) == 6  # 011 ^ 101


def test_add_self_inverse_and_identity(gf8):
    for a in range(8):
        assert gf8.add(a, a) == 0
        assert gf8.add(a, 0) == a


def test_mul_examples(gf8):
    assert gf8.mul(3, 5) == 4  # (x+1)(x^2+1) mod x^3+x+1
    assert gf8.mul(7, 4) == 1
    for a in range(8):
        assert gf8.mul(a, 1) == a


def test_inv_examples(gf8):
    assert gf8.inv(1) == 1
    assert gf8.inv(2) == 5
    assert gf8.inv(7) == 4


def test_inv_of_zero_raises(gf8):
    with pytest.raises(ZeroDivisionError):
        gf8.inv(0)


def test_out_of_range_element_rejected(gf8):
    with pytest.raises(ValueError):
        gf8.mul(8, 1)
    with pytest.raises(ValueError):
        gf8.add(3, 200)


def test_field_laws_exhaustive_gf8(gf8):
    elems = range(8)
    for a, b in itertools.product(elems, repeat=2):
        assert gf8.mul(a, b) == gf8.mul(b, a)
    for a, b, d in itertools.product(elems, repeat=3):
        assert gf8.mul(gf8.mul(a, b), d) == gf8.mul(a, gf8.mul(b, d))
        assert gf8.mul(a, gf8.add(b, d)) == gf8.add(gf8.mul(a, b), gf8.mul(a, d))


def test_inverse_law_exhaustive(gf8):
    for a in range(1, 8):
        assert gf8.mul(a, gf8.inv(a)) == 1


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_laws_gf256(a, b, d):
    f = GF(8)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), d) == f.mul(a, f.mul(b, d))
    assert f.mul(a, f.add(b, d)) == f.add(f.mul(a, b), f.mul(a, d))


def shift_xor_mul(a: int, b: int, c: int) -> int:
    """Carry-less product of a and b reduced bit by bit: the reference
    the table multiply must equal."""
    poly, size = DEFAULT_POLYNOMIALS[c], 1 << c
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & size:
            a ^= poly
    return result


@pytest.mark.parametrize("c", sorted(DEFAULT_POLYNOMIALS))
def test_mul_matches_shift_and_xor_exhaustive(c):
    f = GF(c)
    for a, b in itertools.product(range(f.size), repeat=2):
        assert f.mul(a, b) == shift_xor_mul(a, b, c), (a, b)


@pytest.mark.parametrize("c", sorted(DEFAULT_POLYNOMIALS))
def test_default_polynomials_are_irreducible(c):
    # Modulo a reducible polynomial two non-zero residues multiply to 0.
    nonzero = range(1, 1 << c)
    assert all(shift_xor_mul(a, b, c) for a in nonzero for b in nonzero)


@pytest.mark.parametrize("c", sorted(DEFAULT_POLYNOMIALS))
def test_multiplicative_group_is_cyclic(c):
    # Repeated multiplication by the generator visits all 2^c - 1 non-zero
    # elements before it returns to 1, so the pinned polynomial is
    # primitive, and pow(generator, k) is the k-th element of that walk.
    f = GF(c)
    powers, x = [], 1
    while True:
        powers.append(x)
        x = f.mul(x, f.generator)
        if x == 1:
            break
    assert sorted(powers) == list(range(1, f.size))
    assert [f.pow(f.generator, k) for k in range(f.order)] == powers


@pytest.mark.parametrize("c", [0, 9])
def test_width_without_pinned_polynomial_rejected(c):
    with pytest.raises(ValueError):
        GF(c)
