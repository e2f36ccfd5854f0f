"""Term orders, polynomial arithmetic, and power maps."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from regcert.rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial, PowerMap, apply_power_map,
                           is_homogeneous, make_ring,
                           mono_div, mono_divides, mono_lcm, mono_mul,
                           mono_one, s_polynomial)

from oracles import (mono_div_by_zip, mono_divides_by_zip, mono_lcm_by_zip,
                     mono_mul_by_zip, order_key_by_genexpr)

ORDERS = [LexOrder(), DegRevLexOrder(), BlockOrder(2)]


def variable(ring, order, index):
    """The variable with the given index, as a polynomial."""
    e = tuple(int(k == index) for k in range(ring.nvars))
    return Polynomial.from_terms(ring, order, [(ring.field.one, e)])

monos3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@pytest.mark.parametrize("order", ORDERS)
@given(a=monos3, b=monos3, c=monos3)
def test_order_is_total_and_multiplicative(order, a, b, c):
    key = order.key
    # totality: distinct monomials get distinct keys
    assert (key(a) == key(b)) == (a == b)
    # transitivity through the key
    if key(a) < key(b) and key(b) < key(c):
        assert key(a) < key(c)
    # multiplicativity
    assert (key(a) < key(b)) == (key(mono_mul(a, c)) < key(mono_mul(b, c)))
    # 1 is minimal
    one = mono_one(3)
    if a != one:
        assert key(one) < key(a)


def test_lex_precedence():
    # x3 > x2 > x1: x3 beats any power of smaller variables
    lex = LexOrder()
    assert lex.key((0, 0, 1)) > lex.key((5, 5, 0))
    assert lex.key((1, 0, 0)) < lex.key((0, 1, 0))


def test_degrevlex_classic_comparison():
    # x1*x3 < x2^2 in degrevlex with x3 > x2 > x1
    drl = DegRevLexOrder()
    assert drl.key((1, 0, 1)) < drl.key((0, 2, 0))


def test_block_order_eliminates():
    b = BlockOrder(2)
    assert b.eliminates(2, 4)
    assert not b.eliminates(1, 4)
    # any monomial with an eliminated variable beats any kept monomial
    assert b.key((0, 0, 1, 0)) > b.key((9, 9, 0, 0))
    assert LexOrder().eliminates(1, 3)
    assert not DegRevLexOrder().eliminates(1, 3)


def test_orders_are_frozen_values():
    assert BlockOrder(2) == BlockOrder(2) != BlockOrder(3)
    assert LexOrder() == LexOrder() != DegRevLexOrder()
    assert DegRevLexOrder() != BlockOrder(3)
    assert hash(BlockOrder(2)) == hash(BlockOrder(2))
    assert len({LexOrder(), LexOrder(), DegRevLexOrder(), DegRevLexOrder(),
                BlockOrder(2), BlockOrder(2), BlockOrder(3)}) == 4
    assert [repr(o) for o in ORDERS] == ["lex", "degrevlex", "elim(2)"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        BlockOrder(2).keep = 3


def test_monomial_helpers():
    assert mono_mul((1, 2), (3, 0)) == (4, 2)
    assert mono_lcm((1, 2), (3, 0)) == (3, 2)
    assert mono_divides((1, 0), (2, 5))
    assert not mono_divides((3, 0), (2, 5))
    assert mono_div((4, 2), (1, 2)) == (3, 0)
    with pytest.raises(ValueError):
        mono_div((1, 0), (2, 0))


@st.composite
def monomial_pairs(draw):
    """Two exponent tuples of one length 1-8, zeros included; the second
    is often a multiple of the first, so both sides of divisibility
    come up."""
    mono = st.tuples(*[st.integers(0, 4)] * draw(st.integers(1, 8)))
    a, b = draw(mono), draw(mono)
    return a, draw(st.sampled_from([b, mono_mul_by_zip(a, b)]))


@given(monomial_pairs(), st.integers(0, 8))
def test_monomial_helpers_and_keys_match_the_generator_forms(pair, keep):
    a, b = pair
    assert mono_mul(a, b) == mono_mul_by_zip(a, b)
    assert mono_lcm(a, b) == mono_lcm_by_zip(a, b)
    assert mono_divides(a, b) == mono_divides_by_zip(a, b)
    assert mono_divides(b, a) == mono_divides_by_zip(b, a)
    for x, y in [(a, b), (b, a)]:
        if mono_divides_by_zip(y, x):
            assert mono_div(x, y) == mono_div_by_zip(x, y)
        else:
            with pytest.raises(ValueError):
                mono_div(x, y)
    assert all(type(f(a, b)) is tuple for f in (mono_mul, mono_lcm))
    for order in (LexOrder(), DegRevLexOrder(), BlockOrder(min(keep, len(a)))):
        for m in (a, b):
            key = order.key(m)
            assert type(key) is tuple
            assert all(type(part) in (int, tuple) for part in key)
            assert key == order_key_by_genexpr(order, m)


@pytest.fixture
def ring():
    return make_ring(["x1", "x2", "x3"], char=0)


def test_polynomial_normalization(ring):
    o = LexOrder()
    f = Polynomial.from_terms(ring, o, [(ring.field.one, (1, 0, 0)),
                                        (ring.field.one, (1, 0, 0)),
                                        (ring.field(-1),
                                         (0, 1, 0)),
                                        (ring.field.one, (0, 1, 0))])
    assert f.coeff_dict() == {(1, 0, 0): 2}
    # terms strictly decreasing under the order
    keys = [o.key(m) for _, m in f.terms]
    assert keys == sorted(keys, reverse=True)


def test_arithmetic_ring_laws(ring):
    o = DegRevLexOrder()
    x1, x2, x3 = (variable(ring, o, i) for i in range(3))
    f = x1 * x2 + x3
    g = x2 - Polynomial.from_terms(ring, o,
                                   [(ring.field(3), mono_one(3))])
    h = x1 + x3 * x3
    assert (f + g) * h == f * h + g * h
    assert f - f == Polynomial.zero(ring, o)
    assert -(-f) == f
    assert f * g == g * f


def test_monic_and_leading(ring):
    o = LexOrder()
    x1, x2, _ = (variable(ring, o, i) for i in range(3))
    f = (x2 * x2).scale(ring.field(4)) + x1
    assert f.leading_monomial() == (0, 2, 0)
    assert f.monic().leading_coefficient() == ring.field.one
    assert f.degree() == 2


def test_with_order_is_identity_on_coefficients(ring):
    o1, o2 = LexOrder(), DegRevLexOrder()
    x1, x2, x3 = (variable(ring, o1, i) for i in range(3))
    f = x1 * x3 + x2 * x2
    assert f.with_order(o2).coeff_dict() == f.coeff_dict()
    assert f.with_order(o2).leading_monomial() == (0, 2, 0)
    assert f.leading_monomial() == (1, 0, 1)


def test_is_homogeneous(ring):
    o = LexOrder()
    x1, x2, _ = (variable(ring, o, i) for i in range(3))
    assert is_homogeneous(x1 * x1 + x2 * x2) == (True, 2)
    assert is_homogeneous(x1 + x2 * x2) == (False, None)
    assert is_homogeneous(Polynomial.zero(ring, o)) == (True, None)


def test_power_map(ring):
    phi = PowerMap.uniform(3, 2)
    assert phi.apply_mono((1, 2, 0)) == (2, 4, 0)
    o = LexOrder()
    x1, x2, _ = (variable(ring, o, i) for i in range(3))
    f = x1 * x2 + x2
    img = apply_power_map(phi, f)
    assert img.coeff_dict() == {(2, 2, 0): 1, (0, 2, 0): 1}
    with pytest.raises(ValueError):
        PowerMap((0, 1, 1))


@given(a=monos3, b=monos3)
def test_power_map_respects_lex_leading_term(a, b):
    """phi is order-preserving for lex, so phi(lm(f)) = lm(phi(f))."""
    lex = LexOrder()
    phi = PowerMap((2, 3, 2))
    if a != b:
        assert (lex.key(a) < lex.key(b)) == \
            (lex.key(phi.apply_mono(a)) < lex.key(phi.apply_mono(b)))


def test_s_polynomial_cancels_leading_terms(ring):
    o = DegRevLexOrder()
    x1, x2, x3 = (variable(ring, o, i) for i in range(3))
    f = x1 * x2 + x3
    g = x2 * x3 + x1
    s = s_polynomial(f, g, o)
    lcm = mono_lcm(f.leading_monomial(), g.leading_monomial())
    assert all(m != lcm for _, m in s.terms)


def test_phi_of_s_polynomial_is_s_polynomial_of_phi(ring):
    # the identity behind the power-substitution lemma, on a sample
    o = LexOrder()
    x1, x2, x3 = (variable(ring, o, i) for i in range(3))
    f = x3 * x1 + x2 * x2
    g = x3 * x2 + x1
    phi = PowerMap.uniform(3, 2)
    lhs = apply_power_map(phi, s_polynomial(f, g, o))
    rhs = s_polynomial(apply_power_map(phi, f), apply_power_map(phi, g), o)
    assert lhs == rhs


def test_restrict_and_kept():
    from regcert.groebner import IdealPresentation, eliminate, groebner_basis
    ring = make_ring(["x1", "x2", "x3", "x4"])
    assert ring.nvars == 4
    x1, _, x3, _ = (variable(ring, LexOrder(), i) for i in range(4))
    # elimination restricts to the subring of the kept variables
    R = eliminate(groebner_basis(IdealPresentation(ring, (x1 * x3,)),
                                 LexOrder()), 2).ring
    assert R.names == ("x1", "x2")
    assert R.nvars == 2
    assert make_ring(["x1"], char=0).char == 0
