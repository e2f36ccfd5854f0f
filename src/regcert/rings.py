"""Polynomial rings, monomials, term orders, and power-substitution maps.

Monomials are dense exponent tuples.  Variable precedence is fixed
ring-wide as x_l > x_{l-1} > ... > x_1 (index l-1 down to index 0), and
a kept subring R consists of the first (smallest) variables, so
eliminating the large variables is "drop every element with a large
variable".
"""

import operator
from dataclasses import dataclass

from .scalars import DEFAULT_PRIME, field_of_characteristic


# ---------------------------------------------------------------------------
# monomial helpers

def mono_deg(m):
    return sum(m)


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_divides(a, b):
    """True iff monomial a divides monomial b."""
    return all(map(operator.le, a, b))


def mono_div(a, b):
    """Quotient a / b; b must divide a."""
    if not all(map(operator.le, b, a)):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(map(operator.sub, a, b))


def mono_one(nvars):
    return (0,) * nvars


# ---------------------------------------------------------------------------
# term orders: frozen values; key(m), a flat tuple of ints, sorts monomials
# increasing with the order, and eliminates(keep, nvars) is true iff the
# order eliminates the last nvars-keep variables

@dataclass(frozen=True)
class LexOrder:
    """Lexicographic order with x_l > ... > x_1."""

    def key(self, m):
        return m[::-1]

    def eliminates(self, keep, nvars):
        return True

    def __repr__(self):
        return "lex"


@dataclass(frozen=True)
class DegRevLexOrder:
    """Degree reverse lexicographic order with x_l > ... > x_1."""

    def key(self, m):
        return (sum(m), *map(operator.neg, m))

    def eliminates(self, keep, nvars):
        return keep == nvars

    def __repr__(self):
        return "degrevlex"


@dataclass(frozen=True)
class BlockOrder:
    """Elimination block order: degrevlex on the last nvars-keep variables,
    ties broken by degrevlex on the first keep variables."""

    keep: int

    def key(self, m):
        hi, lo = m[self.keep:], m[:self.keep]
        return (sum(hi), *map(operator.neg, hi),
                sum(lo), *map(operator.neg, lo))

    def eliminates(self, keep, nvars):
        return keep == self.keep

    def __repr__(self):
        return f"elim({self.keep})"


# ---------------------------------------------------------------------------
# rings

@dataclass(frozen=True)
class PolyRing:
    """K[x_1, ..., x_l]."""

    names: tuple
    field: object

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")

    @property
    def nvars(self):
        return len(self.names)

    @property
    def char(self):
        return self.field.char


def make_ring(names, char=DEFAULT_PRIME):
    return PolyRing(tuple(names), field_of_characteristic(char))


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable multivariate polynomial with terms sorted strictly decreasing
    under a designated term order."""

    __slots__ = ("ring", "order", "terms")

    def __init__(self, ring, order, terms):
        # terms assumed normalized; use from_terms for raw input
        self.ring = ring
        self.order = order
        self.terms = tuple(terms)

    @classmethod
    def from_terms(cls, ring, order, raw_terms):
        """Merge equal monomials, drop zero coefficients, sort descending."""
        acc = {}
        K = ring.field
        for c, m in raw_terms:
            m = tuple(m)
            if len(m) != ring.nvars:
                raise ValueError("monomial dimension does not match ring")
            acc[m] = K(acc.get(m, 0) + c)
        terms = [(c, m) for m, c in acc.items() if c]
        terms.sort(key=lambda t: order.key(t[1]), reverse=True)
        return cls(ring, order, terms)

    @classmethod
    def zero(cls, ring, order):
        return cls(ring, order, ())

    def is_zero(self):
        return not self.terms

    def leading_coefficient(self):
        return self.terms[0][0]

    def leading_monomial(self):
        return self.terms[0][1]

    def degree(self):
        if not self.terms:
            return -1
        return max(mono_deg(m) for _, m in self.terms)

    def coeff_dict(self):
        return {m: c for c, m in self.terms}

    def __add__(self, other):
        return Polynomial.from_terms(self.ring, self.order,
                                     list(self.terms) + list(other.terms))

    def __sub__(self, other):
        return Polynomial.from_terms(
            self.ring, self.order,
            list(self.terms) + [(-c, m) for c, m in other.terms])

    def __neg__(self):
        K = self.ring.field
        return Polynomial(self.ring, self.order,
                          [(K(-c), m) for c, m in self.terms])

    def __mul__(self, other):
        raw = [(c1 * c2, mono_mul(m1, m2))
               for c1, m1 in self.terms for c2, m2 in other.terms]
        return Polynomial.from_terms(self.ring, self.order, raw)

    def mul_term(self, coeff, mono):
        K = self.ring.field
        if not coeff:
            return Polynomial.zero(self.ring, self.order)
        return Polynomial(self.ring, self.order,
                          [(K(c * coeff), mono_mul(m, mono))
                           for c, m in self.terms])

    def scale(self, coeff):
        return self.mul_term(coeff, mono_one(self.ring.nvars))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.ring.field.inv(self.leading_coefficient()))

    def with_order(self, order):
        if order == self.order:
            return self
        return Polynomial.from_terms(self.ring, order,
                                     [(c, m) for c, m in self.terms])

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.coeff_dict() == other.coeff_dict())

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeff_dict().items())))

    def __repr__(self):
        from .parser import format_polynomial
        return format_polynomial(self)


def is_homogeneous(f):
    """(flag, degree): zero reports (True, None)."""
    if f.is_zero():
        return True, None
    degs = {mono_deg(m) for _, m in f.terms}
    if len(degs) == 1:
        return True, degs.pop()
    return False, None


# ---------------------------------------------------------------------------
# power maps

@dataclass(frozen=True)
class PowerMap:
    """The substitution x_i -> x_i^{d_i}."""

    exponents: tuple

    def __post_init__(self):
        if any(d < 1 for d in self.exponents):
            raise ValueError("power map exponents must be positive")

    @classmethod
    def uniform(cls, nvars, d):
        return cls((d,) * nvars)

    def apply_mono(self, m):
        return tuple(d * e for d, e in zip(self.exponents, m))


def apply_power_map(phi, f):
    """Image of f under x_i -> x_i^{d_i}; coefficients unchanged."""
    if len(phi.exponents) != f.ring.nvars:
        raise ValueError("power map dimension does not match ring")
    return Polynomial.from_terms(
        f.ring, f.order, [(c, phi.apply_mono(m)) for c, m in f.terms])


def s_polynomial(f, h, order=None):
    """S-polynomial of two nonzero polynomials, merged from shifted tails."""
    if f.is_zero() or h.is_zero():
        raise ValueError("S-polynomial of zero polynomial")
    if order is not None:
        f, h = f.with_order(order), h.with_order(order)
    K = f.ring.field
    lcm = mono_lcm(f.leading_monomial(), h.leading_monomial())
    raw = []
    for g, sign in ((f, 1), (h, -1)):
        a = sign * K.inv(g.leading_coefficient())
        q = mono_div(lcm, g.leading_monomial())
        raw += [(a * c, mono_mul(m, q)) for c, m in g.terms[1:]]
    return Polynomial.from_terms(f.ring, f.order, raw)
