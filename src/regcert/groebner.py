"""The ideal types (a presentation, a Groebner basis, which is one, and a
parametrisation), division with remainder, Buchberger's algorithm,
elimination, kernels of polynomial maps, and images under power
substitutions.

Division keeps the live terms in a heap keyed by the negated order key
(order keys are flat tuples of ints, so one map of neg reverses them); a
term that cancels stays in the heap with coefficient zero and is skipped
when popped.  A Divisors holds one divisor list, which may grow at its
end, and memoises each monomial's heap entry and reducer for as long as
the call that made it, so Buchberger, reduce_basis and the normal-form
tables of a Koszul rank find each monomial's reducer once.

The pair queue uses the normal strategy (smallest lcm degree, ties broken
by the term order on lcms, then by the pair's indices): a heap of
(deg lcm, order key of lcm, i, j, lcm), each entry computed once when its
pair is made.  The coprime and chain criteria are applied as skips.
"""

import heapq
from dataclasses import dataclass
from operator import add, le, neg, sub

from .monomials import MonomialIdeal
from .rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial,
                    PolyRing, apply_power_map, is_homogeneous, mono_deg,
                    mono_divides, mono_lcm, mono_mul, s_polynomial)


@dataclass(frozen=True)
class IdealPresentation:
    """An ideal given by a finite list of nonzero generators."""

    ring: object
    generators: tuple

    @classmethod
    def from_polynomials(cls, ring, polys):
        gens = tuple(p for p in polys if not p.is_zero())
        return cls(ring, gens)

    @property
    def homogeneous(self):
        return all(is_homogeneous(g)[0] for g in self.generators)

    def is_zero(self):
        return not self.generators


@dataclass(frozen=True)
class GroebnerBasis(IdealPresentation):
    """A presentation whose generators are a Groebner basis for order."""

    order: object
    reduced: bool = False

    def __len__(self):
        return len(self.generators)


@dataclass(frozen=True)
class Parametrisation:
    """n forms f in ring = K[y_1..y_m], each homogeneous of degree d; the
    one check of a parametrisation's images is made here."""

    n: int
    m: int
    d: int
    f: tuple
    ring: object

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.d < 1:
            raise ValueError("n, m, d must be positive")
        if len(self.f) != self.n:
            raise ValueError("expected n image polynomials")
        if self.ring.nvars != self.m or any(g.ring != self.ring
                                            for g in self.f):
            raise ValueError("images must lie in the ring of m variables")
        if all(g.is_zero() for g in self.f):
            raise ValueError("parametrisation must not be identically zero")
        if any(is_homogeneous(g) != (True, self.d) for g in self.f):
            raise ValueError("each image must be homogeneous of degree d")


class Divisors(dict):
    """A divisor list that may grow at its end, with each divisor's lead,
    inverse leading coefficient and tail.  As a dict it maps each monomial
    m met to its heap entry (negated order key, m).  found[m] is m's
    reducer (j, q, heap entries of q * tail(g_j)) for the first g_j in
    list order whose lead divides m = q lm(g_j), or else the number of
    divisors checked, so that after an append only the new ones are."""

    def __init__(self, polys, order):
        self.order, self.found = order, {}
        self.leads, self.invs, self.tails = [], [], []
        for g in polys:
            self.append(g)

    def __missing__(self, m):
        entry = self[m] = (tuple(map(neg, self.order.key(m))), m)
        return entry

    def append(self, g):
        g = g.with_order(self.order)
        self.leads.append(g.leading_monomial())
        self.invs.append(g.ring.field.inv(g.leading_coefficient()))
        self.tails.append(g.terms[1:])

    def reducer(self, m):
        found = self.found.get(m, 0)
        if type(found) is not int:
            return found
        for j in range(found, len(self.leads)):
            if all(map(le, self.leads[j], m)):
                q = tuple(map(sub, m, self.leads[j]))
                found = self.found[m] = (j, q, tuple(
                    [self[tuple(map(add, gm, q))] for _, gm in self.tails[j]]))
                return found
        self.found[m] = len(self.leads)
        return None


def normal_form(f, G, order=None):
    """Divide f by G, a list or a Divisors: returns (remainder, quotients)
    with f = sum q_g * g + remainder and no remainder term divisible by a
    leading monomial of G.  Deterministic: always reduces the largest
    reducible term by the first eligible divisor in list order."""
    if order is None:
        order = f.order
    f = f.with_order(order)
    K = f.ring.field
    if not isinstance(G, Divisors):
        G = Divisors(G, order)
    invs, tails, reducer = G.invs, G.tails, G.reducer
    quotients = [[] for _ in invs]
    remainder = []
    # work maps each monomial still in the heap to its coefficient, zero
    # once it has cancelled; a popped monomial is the largest left and
    # never comes back, so the remainder and every quotient come out with
    # nonzero terms in strictly decreasing order
    work = f.coeff_dict()
    heap = [G[m] for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        found = reducer(m)
        if found is None:
            remainder.append((c, m))
            continue
        j, q, shifted = found
        coeff = K(c * invs[j])
        quotients[j].append((coeff, q))
        for (gc, _), entry in zip(tails[j], shifted):
            mm = entry[1]
            old = work.get(mm)
            if old is None:
                heapq.heappush(heap, entry)
                old = 0
            work[mm] = K(old - coeff * gc)
    return (Polynomial(f.ring, order, remainder),
            [Polynomial(f.ring, order, q) for q in quotients])


def _chain_criterion(i, j, lms, pairs_done, lcm_ij):
    """Buchberger's chain criterion: skip (i, j) if some k has lm_k | lcm_ij
    and both (i, k) and (j, k) are already handled."""
    for k in range(len(lms)):
        if k in (i, j):
            continue
        if mono_divides(lms[k], lcm_ij):
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in pairs_done and b in pairs_done:
                return True
    return False


def buchberger(I, order):
    """Buchberger's algorithm on an ideal's generators; returns an
    (unreduced) Groebner basis."""
    if I.is_zero():
        raise ValueError("need at least one nonzero generator")
    G = [p.with_order(order).monic() for p in I.generators]
    divisors = Divisors(G, order)
    lms = divisors.leads
    pairs = []
    done = set()

    def add_pairs(k):
        for i in range(k):
            lcm = mono_lcm(lms[i], lms[k])
            heapq.heappush(pairs, (mono_deg(lcm), order.key(lcm), i, k, lcm))

    for k in range(1, len(G)):
        add_pairs(k)
    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        if lcm == mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        if _chain_criterion(i, j, lms, done, lcm):
            continue
        s = s_polynomial(G[i], G[j], order)
        rem, _ = normal_form(s, divisors, order)
        if not rem.is_zero():
            G.append(rem.monic())
            divisors.append(G[-1])
            add_pairs(len(G) - 1)
    return GroebnerBasis(I.ring, tuple(G), order)


def reduce_basis(G):
    """Minimal, interreduced, monic Groebner basis; unique for (ideal, order)."""
    order = G.order
    divisors, reduced = Divisors([], order), []
    for g in sorted(G.generators,
                    key=lambda g: order.key(g.leading_monomial())):
        # g is minimal iff no lead before it divides lm(g); no lead divides
        # a smaller monomial, so the minimal ones before g are all others
        if divisors.reducer(g.leading_monomial()) is None:
            reduced.append(normal_form(g, divisors, order)[0].monic())
            divisors.append(g)
    reduced.sort(key=lambda g: order.key(g.leading_monomial()), reverse=True)
    return GroebnerBasis(G.ring, tuple(reduced), order, reduced=True)


def groebner_basis(I, order):
    """Reduced Groebner basis of an ideal.  A basis that is already the
    reduced one for this order is returned as it is."""
    if isinstance(I, GroebnerBasis) and I.reduced and I.order == order:
        return I
    return reduce_basis(buchberger(I, order))


def passes_buchberger_criterion(polys, order):
    """True iff every S-polynomial of the list reduces to zero against it."""
    polys = list(polys)
    divisors = Divisors(polys, order)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j], order)
            if s.is_zero():
                continue
            rem, _ = normal_form(s, divisors, order)
            if not rem.is_zero():
                return False, (i, j)
    return True, None


def initial_ideal(G):
    """Monomial ideal of leading monomials of a Groebner basis."""
    return MonomialIdeal.from_monomials(
        G.ring, [g.leading_monomial() for g in G.generators])


def eliminate(G, keep):
    """Elements of G lying in the kept subring, as a Groebner basis of the
    elimination ideal over R.  Requires an elimination order."""
    if not G.order.eliminates(keep, G.ring.nvars):
        raise ValueError(f"{G.order!r} does not eliminate the last "
                         f"{G.ring.nvars - keep} variables")
    if keep == G.ring.nvars:
        return G
    R = PolyRing(G.ring.names[:keep], G.ring.field)
    sub_order = _restrict_order(G.order, keep)
    kept = []
    for g in G.generators:
        if all(all(e == 0 for e in m[keep:]) for _, m in g.terms):
            kept.append(Polynomial.from_terms(
                R, sub_order, [(c, m[:keep]) for c, m in g.terms]))
    return GroebnerBasis(R, tuple(kept), sub_order, reduced=G.reduced)


def _restrict_order(order, keep):
    if isinstance(order, LexOrder):
        return order
    if isinstance(order, BlockOrder) and order.keep == keep:
        return DegRevLexOrder()
    raise ValueError("cannot restrict order to the kept subring")


def image_ideal(phi, I):
    """The ideal generated by the phi-images of the generators."""
    gens = tuple(apply_power_map(phi, g) for g in I.generators)
    return IdealPresentation(I.ring, gens)


def ideal_equal(A, B, order):
    """True iff A and B generate the same ideal (reduced Groebner bases
    coincide)."""
    if A.ring != B.ring:
        raise ValueError("presentations live in different rings")
    if A.is_zero() or B.is_zero():
        return A.is_zero() and B.is_zero()
    GA = groebner_basis(A, order)
    GB = groebner_basis(B, order)
    return GA.generators == GB.generators


def graph_ideal(param, power, order):
    """The ideal (x_i^power - f_i) in K[x_1..x_n, y_1..y_m] of a
    parametrisation; the x variables are the kept ones."""
    n, yring = param.n, param.ring
    S = PolyRing(tuple(f"x{i + 1}" for i in range(n)) + yring.names,
                 yring.field)
    gens = []
    for i, f in enumerate(param.f):
        xi = tuple(power if k == i else 0 for k in range(n))
        gens.append(Polynomial.from_terms(
            S, order, [(1, xi + (0,) * yring.nvars)]
            + [(-c, (0,) * n + m) for c, m in f.terms]))
    return IdealPresentation(S, tuple(gens))


def kernel_of_map(param, order=None):
    """Defining ideal of the image of the map y -> (f_1(y), ..., f_n(y)) of
    a parametrisation: eliminates the y variables from the graph ideal
    (x_i - f_i).

    Returns a Groebner basis over R = K[x_1..x_n].  Pure lex by default;
    pass BlockOrder(n) for the faster block elimination variant."""
    if order is None:
        order = LexOrder()
    return eliminate(groebner_basis(graph_ideal(param, 1, order), order),
                     param.n)
