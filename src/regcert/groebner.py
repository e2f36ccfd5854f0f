"""The ideal types (a presentation, a Groebner basis, which is one, and a
parametrisation), division with remainder, Buchberger's algorithm,
elimination, kernels of polynomial maps, and images under power
substitutions.

Division keeps the live terms in a heap keyed by the negated order key
(order keys are flat tuples of ints, so one map of neg reverses them); a
term that cancels stays in the heap with coefficient zero and is skipped
when popped.  A Divisors holds one divisor list, which may grow at its
end, with each divisor's tail coefficients stored once as -c / lc, and
memoises each monomial's heap entry and reducer for as long as the call
that made it, so Buchberger, reduce_basis and the normal-form tables of a
Koszul rank find each monomial's reducer once.  An S-pair's terms come
straight from the two shifted tails in the Divisors, with no
S-polynomial built and sorted first.

A term's coefficient is summed exactly as Python ints or Fractions while
it waits in the heap and reduced into the field once, when it is popped
(as in Monagan and Pearce's heap division, CASC 2007): reducing a sum
gives the same field element as summing reduced terms, so the remainder
and the quotients are those of reducing after every update.

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
                    mono_divides, mono_lcm, mono_mul)


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
    inverse leading coefficient and tail, kept as (-c / lc, m) for each
    tail term c m, and the ring of the divisors (None while there are
    none).  As a dict it maps each monomial m met to its heap entry
    (negated order key, m).  found[m] is m's reducer (j, q, heap entries
    of q * tail(g_j)) for the first g_j in list order whose lead divides
    m = q lm(g_j), or else the number of divisors checked, so that after
    an append only the new ones are."""

    ring = None

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
        self.ring = g.ring
        K = g.ring.field
        inv = K.inv(g.leading_coefficient())
        self.leads.append(g.leading_monomial())
        self.invs.append(inv)
        self.tails.append(tuple([(K(-c * inv), m) for c, m in g.terms[1:]]))

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

    def s_pair(self, i, j):
        """The S-polynomial (l / lm_i) g_i / lc_i - (l / lm_j) g_j / lc_j of
        divisors i and j, l the lcm of their leads, as {monomial:
        coefficient} without the terms that cancel.  The coefficients are
        exact but not reduced into the field: over GF(p) each lies in
        (-p, p), so a term cancels iff its sum is 0."""
        leads, tails = self.leads, self.tails
        lcm = mono_lcm(leads[i], leads[j])
        q = tuple(map(sub, lcm, leads[i]))
        work = {tuple(map(add, m, q)): -t for t, m in tails[i]}
        q = tuple(map(sub, lcm, leads[j]))
        for t, m in tails[j]:
            mm = tuple(map(add, m, q))
            c = work.pop(mm, 0) + t
            if c:
                work[mm] = c
        return work


def normal_form(f, divisors):
    """Divide f by divisors, a Divisors G, under G's order: returns
    (remainder, quotients) with f = sum q_g * g + remainder and no
    remainder term divisible by a leading monomial of G.  f is a
    Polynomial, or a dict {monomial: exact coefficient} such as
    Divisors.s_pair makes, which the division consumes; the results of a
    dict are in the ring of G, which must then be nonempty.
    Deterministic: always reduces the largest reducible term by the first
    eligible divisor in list order.

    Updates add c * (-g / lc) term by term without reducing; a coefficient
    is reduced into the field once, when its term is popped.  The sum of
    Python ints or Fractions is exact, and reducing it gives the field
    element that reducing after every update would, so the remainder and
    quotients are the same over every field."""
    if isinstance(f, Polynomial):
        ring, work = f.ring, f.coeff_dict()
    else:
        ring, work = divisors.ring, f
    K, order = ring.field, divisors.order
    invs, tails, reducer = divisors.invs, divisors.tails, divisors.reducer
    quotients = [[] for _ in invs]
    remainder = []
    # work maps each monomial still in the heap to its unreduced
    # coefficient, zero in the field once it has cancelled; a popped
    # monomial is the largest left and never comes back, so the remainder
    # and every quotient come out with nonzero terms in strictly
    # decreasing order
    heap = [divisors[m] for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = K(work.pop(m))
        if not c:
            continue
        found = reducer(m)
        if found is None:
            remainder.append((c, m))
            continue
        j, q, shifted = found
        quotients[j].append((K(c * invs[j]), q))
        for (t, _), entry in zip(tails[j], shifted):
            mm = entry[1]
            old = work.get(mm)
            if old is None:
                heapq.heappush(heap, entry)
                old = 0
            work[mm] = old + c * t
    return (Polynomial(ring, order, remainder),
            [Polynomial(ring, order, q) for q in quotients])


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
        rem, _ = normal_form(divisors.s_pair(i, j), divisors)
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
            reduced.append(normal_form(g, divisors)[0].monic())
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
    """(True, None) iff every S-polynomial of the list reduces to zero
    against it, else (False, (i, j)) for the first pair (i, j), i < j,
    whose does not.  An S-polynomial whose terms all cancel is skipped."""
    divisors = Divisors(polys, order)
    n = len(divisors.leads)
    for i in range(n):
        for j in range(i + 1, n):
            s = divisors.s_pair(i, j)
            if s and not normal_form(s, divisors)[0].is_zero():
                return False, (i, j)
    return True, None


def initial_ideal(G):
    """Monomial ideal of leading monomials of a Groebner basis."""
    return MonomialIdeal.from_monomials(
        G.ring, [g.leading_monomial() for g in G.generators])


def eliminate(G, keep):
    """Elements of G lying in the kept subring R of the first keep
    variables, as a Groebner basis of the elimination ideal over R.  With
    keep = nvars that is G; otherwise lex restricts to lex on R and
    BlockOrder(keep) to degrevlex, and no other order eliminates."""
    if keep == G.ring.nvars:
        return G
    if isinstance(G.order, LexOrder):
        sub_order = G.order
    elif G.order == BlockOrder(keep):
        sub_order = DegRevLexOrder()
    else:
        raise ValueError(f"{G.order!r} does not eliminate the last "
                         f"{G.ring.nvars - keep} variables")
    R = PolyRing(G.ring.names[:keep], G.ring.field)
    kept = []
    for g in G.generators:
        if all(all(e == 0 for e in m[keep:]) for _, m in g.terms):
            kept.append(Polynomial.from_terms(
                R, sub_order, [(c, m[:keep]) for c, m in g.terms]))
    return GroebnerBasis(R, tuple(kept), sub_order, reduced=G.reduced)


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


def kernel_of_map(param, order):
    """Defining ideal of the image of the map y -> (f_1(y), ..., f_n(y)) of
    a parametrisation: eliminates the y variables from the graph ideal
    (x_i - f_i) under order, LexOrder() or the faster BlockOrder(n).

    Returns a Groebner basis over R = K[x_1..x_n]."""
    return eliminate(groebner_basis(graph_ideal(param, 1, order), order),
                     param.n)
