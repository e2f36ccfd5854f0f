"""Field axioms for both scalar representations, and the primality test
behind every characteristic."""

import dataclasses
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from regcert.scalars import (DEFAULT_PRIME, QQ, PrimeField, RationalField,
                             _is_prime, field_of_characteristic)

SMALL_PRIMES = [2, 3, 5, 7, 11]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_prime_field_axioms_exhaustive(p):
    K = PrimeField(p)
    els = list(range(p))
    for a in els:
        assert K(a + K(0)) == a
        assert K(a * K(1)) == a
        assert K(a + K(-a)) == K(0)
        for b in els:
            assert K(a + b) == K(b + a) and K(a + b) in els
            assert K(a * b) == K(b * a) and K(a * b) in els
            if b != K(0):
                assert K(K(a * b) * K.inv(b)) == a
            for c in els:
                assert K(a * K(b + c)) == K(K(a * b) + K(a * c))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_prime_field_inverse(p):
    K = PrimeField(p)
    for a in range(1, p):
        assert K(a * K.inv(a)) == K(1)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


rationals = st.fractions(min_value=-1000, max_value=1000,
                         max_denominator=10 ** 4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert QQ(a + b) == QQ(b + a)
    assert QQ(a * QQ(b + c)) == QQ(QQ(a * b) + QQ(a * c))
    assert QQ(a + QQ(-a)) == QQ(0)
    if b != 0:
        assert QQ(QQ(a * b) * QQ.inv(b)) == a


def test_fields_are_frozen_values():
    assert PrimeField(7) == PrimeField(7) != PrimeField(11)
    assert hash(PrimeField(7)) == hash(PrimeField(7))
    assert RationalField() == QQ != PrimeField(7)
    assert hash(RationalField()) == hash(QQ)
    assert (repr(PrimeField(7)), repr(QQ)) == ("GF(7)", "QQ")
    with pytest.raises(dataclasses.FrozenInstanceError):
        PrimeField(7).p = 11


def test_field_of_characteristic():
    assert field_of_characteristic(0) is QQ
    assert field_of_characteristic(7) == PrimeField(7)
    assert field_of_characteristic(DEFAULT_PRIME).char == DEFAULT_PRIME


def test_coercion_wraps():
    K = PrimeField(7)
    assert K(-1) == 6
    assert K(-5) == 2
    assert K(14) == 0
    assert K(2 ** 70) == 2  # 2^3 = 1 in GF(7) and 70 = 3 * 23 + 1
    assert type(QQ(3)) is Fraction and QQ(3) == 3
    assert QQ(Fraction(-5, 3)) == Fraction(-5, 3)


def is_prime_by_trial_division(n):
    """Oracle: divide by every odd number up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if is_prime_by_trial_division(n)]


def test_61_bit_prime_accepted_within_a_second():
    start = time.perf_counter()
    K = PrimeField(2305843009213693951)  # 2^61 - 1
    assert time.perf_counter() - start < 1.0
    assert K(K.inv(12345) * 12345) == K(1)


@pytest.mark.parametrize("n", [
    561,         # Carmichael number 3*11*17
    3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    1000000007 * 1000000009,
    # strong pseudoprime to the first 12 primes; base 41 exposes it
    318665857834031151167461,
])
def test_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


@pytest.mark.parametrize("n", [
    3317044064679887385961981,  # strong pseudoprime to the first 13 primes
    2 ** 89 - 1,                # a Mersenne prime above the proven range
])
def test_characteristic_above_the_proven_range_is_not_supported(n):
    with pytest.raises(ValueError, match="not supported"):
        _is_prime(n)
    with pytest.raises(ValueError, match="not supported"):
        field_of_characteristic(n)
