"""Seeded random instance generators for the verification harness.

All draws go through random.Random(seed), so every instance regenerates
identically from its seed.  Coefficients are uniform over the nonzero
field elements (GF(p)) or uniform nonzero small integers (rationals);
zero is excluded to keep leading structure stable.
"""

import random
from fractions import Fraction

from .groebner import IdealPresentation, Parametrisation
from .monomials import monomials_of_degree
from .rings import DegRevLexOrder, Polynomial, make_ring
from .scalars import DEFAULT_PRIME, PrimeField


def _random_coeff(K, rng):
    """Uniform nonzero field element."""
    if isinstance(K, PrimeField):
        return rng.randrange(1, K.p)
    return Fraction(rng.choice([c for c in range(-9, 10) if c]))


def random_form(ring, order, degree, rng):
    """Dense nonzero homogeneous form of the given degree."""
    K = ring.field
    terms = [(_random_coeff(K, rng), m)
             for m in monomials_of_degree(ring.nvars, degree)]
    return Polynomial.from_terms(ring, order, terms)


def random_polynomial(ring, order, max_degree, rng, nterms=3):
    """Nonzero sparse polynomial: nterms monomials of degree <= max_degree
    (with repetition merged), uniform nonzero coefficients."""
    K = ring.field
    pool = [m for t in range(max_degree + 1)
            for m in monomials_of_degree(ring.nvars, t)]
    while True:
        terms = [(_random_coeff(K, rng), rng.choice(pool))
                 for _ in range(nterms)]
        f = Polynomial.from_terms(ring, order, terms)
        if not f.is_zero():
            return f


def random_parametrisation(n, m, d, seed, char=DEFAULT_PRIME):
    """Seeded dense parametrisation: n forms of degree d in y_1..y_m."""
    if n < 1 or m < 1 or d < 1:
        raise ValueError("need n, m, d >= 1")
    rng = random.Random(("param", n, m, d, seed, char).__repr__())
    ring = make_ring([f"y{i + 1}" for i in range(m)], char=char)
    order = DegRevLexOrder()
    forms = tuple(random_form(ring, order, d, rng) for _ in range(n))
    return Parametrisation(n, m, d, forms, ring)


def random_ideal(nvars, seed, ngens=3, max_degree=3, char=DEFAULT_PRIME,
                 homogeneous=False):
    """Seeded random ideal presentation in nvars variables."""
    rng = random.Random(("ideal", nvars, seed, ngens, max_degree, char,
                         homogeneous).__repr__())
    ring = make_ring([f"x{i + 1}" for i in range(nvars)], char=char)
    order = DegRevLexOrder()
    gens = []
    for _ in range(ngens):
        if homogeneous:
            deg = rng.randint(2, max_degree)
            gens.append(random_form(ring, order, deg, rng))
        else:
            gens.append(random_polynomial(ring, order, max_degree, rng))
    return IdealPresentation.from_polynomials(ring, gens)
