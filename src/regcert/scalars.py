"""Exact coefficient fields: GF(p) for a prime p and the rationals.

A field K is a coercion: K(x) reduces a Python number into the field, and
callers do arithmetic with Python's operators plus one K(...).  With
K.inv, K.zero, K.one and K.char that is the whole field protocol."""

from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin to the first 13 prime bases decides primality for every n
# below the smallest strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality test, exact for p < 3.317e24.  Larger p
    raise ValueError: no probabilistic answer is ever given."""
    if p >= _MR_BOUND:
        raise ValueError(
            f"characteristic {p} is not supported: primality is proven "
            f"only below {_MR_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_characteristic(char):
    """char itself if it is 0 or a prime; ValueError otherwise, and for
    primes too large for _is_prime to prove."""
    if char != 0 and not _is_prime(char):
        raise ValueError(f"characteristic must be 0 or prime, not {char}")
    return char


@dataclass(frozen=True)
class PrimeField:
    """GF(p); elements are ints in [0, p), and K(x) reduces an int into
    the field."""

    p: int

    zero = 0
    one = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def char(self):
        return self.p

    def __call__(self, x):
        return x % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class RationalField:
    """The rationals; elements are fractions.Fraction, and K(x) is
    Fraction(x)."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, x):
        return Fraction(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"


QQ = RationalField()

#: Default prime for fast exact runs; large enough to dodge accidental
#: characteristic collisions at desk scale.
DEFAULT_PRIME = 32003


def field_of_characteristic(char):
    """Return QQ for char 0, GF(char) for a prime char."""
    if char == 0:
        return QQ
    return PrimeField(char)
