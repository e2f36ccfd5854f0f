"""Monomial ideals, Hilbert series, Macaulay lex segments, and the
regularity constant of complete-intersection lex ideals.

A Hilbert series streams its quotient dimensions, the numerator summed
once per variable.  Macaulay representations are at most nvars runs of
equal offset a_i - i, each sized by bisection on a hockey-stick sum.
One walk of that stream gives each degree's segment and, by Macaulay's
bound on the dimension below, its shadow: the lex ideal unranks the new
generators between them, and G_{n,d,m} only counts the degrees where the
two differ.  A scan is complete once it reaches the Gotzmann bound of
its series.  Strong stability is decided by one table of the
generators' Eliahou-Kervaire heads.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat, zip_longest

from .rings import LexOrder, make_ring, mono_deg, mono_divides

_LEX = LexOrder()


def minimalize_monomials(monos):
    """Minimal generators among a set of monomials."""
    out = []
    for m in sorted(set(monos), key=mono_deg):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators, sorted descending lex."""

    ring: object
    gens: tuple

    @classmethod
    def from_monomials(cls, ring, monos):
        mins = minimalize_monomials(tuple(m) for m in monos)
        mins.sort(key=_LEX.key, reverse=True)
        return cls(ring, tuple(mins))

    @property
    def nvars(self):
        return self.ring.nvars

    def is_zero(self):
        return not self.gens

    def max_gen_degree(self):
        return max((mono_deg(g) for g in self.gens), default=0)


# ---------------------------------------------------------------------------
# Hilbert series

def num_monomials(nvars, t):
    """Number of degree-t monomials in nvars variables."""
    if t < 0:
        return 0
    return math.comb(t + nvars - 1, nvars - 1)


def _pick_pivot(gens, nvars):
    """Variable occurring in the most mixed generators."""
    counts = [0] * nvars
    for g in gens:
        if sum(1 for e in g if e > 0) > 1:
            for k, e in enumerate(g):
                if e > 0:
                    counts[k] += 1
    return max(range(nvars), key=lambda i: counts[i])


@lru_cache(maxsize=None)
def _k_polynomial(gens, nvars):
    """Numerator of the Hilbert series of R/I over (1-t)^nvars, as a
    coefficient tuple.  Pivot-variable recursion on the generator set."""
    gens = minimalize_monomials(gens)
    if not gens:
        return (1,)
    if any(mono_deg(g) == 0 for g in gens):
        return (0,)
    supports = [frozenset(k for k, e in enumerate(g) if e > 0) for g in gens]
    disjoint = all(not (supports[i] & supports[j])
                   for i in range(len(gens)) for j in range(i + 1, len(gens)))
    if disjoint:
        out = [1]
        for g in gens:  # times 1 - t^deg(g)
            pad = [0] * mono_deg(g)
            out = [a - b for a, b in zip(out + pad, pad + out)]
        return tuple(out)
    k = _pick_pivot(gens, nvars)
    ek = tuple(1 if i == k else 0 for i in range(nvars))
    plus = tuple(sorted({ek} | {g for g in gens if g[k] == 0}))
    colon = tuple(sorted(tuple(e - 1 if i == k and e > 0 else e
                               for i, e in enumerate(g)) for g in gens))
    plus, colon = _k_polynomial(plus, nvars), _k_polynomial(colon, nvars)
    return tuple(map(sum, zip_longest(plus, (0,) + colon, fillvalue=0)))


def quotient_k_polynomial(M):
    """Hilbert series numerator of R/M as a coefficient tuple."""
    return _k_polynomial(tuple(sorted(M.gens)), M.nvars)


@dataclass(frozen=True)
class HilbertSeries:
    """The Hilbert series numerator(t) / (1 - t)^nvars of a graded quotient
    R/I.  The numerator is stored without trailing zeros, so two series
    over one ring compare equal exactly when they agree in every degree."""

    numerator: tuple
    nvars: int

    def __post_init__(self):
        num = tuple(self.numerator)
        while num and not num[-1]:
            num = num[:-1]
        object.__setattr__(self, "numerator", num)

    def quotient_dims(self):
        """The quotient dimensions q_0, q_1, ... as an endless stream: a
        division by 1 - t is a running sum, nvars additions a degree."""
        q = chain(self.numerator, repeat(0))
        for _ in range(self.nvars):
            q = accumulate(q)
        return q

    def dims(self, D):
        """Quotient dimensions in degrees 0..D."""
        return tuple(islice(self.quotient_dims(), D + 1))

    def scan_bound(self):
        """The degree B = max(r, t0) above which the lex ideal of this
        series has no generator.

        From t0 = deg(numerator) - nvars + 1 (at least 0) on, the Hilbert
        function is the Hilbert polynomial P.  Write P in Gotzmann's form
        P(t) = sum_{i=1..r} C(t + a_i - (i-1), a_i), a_1 >= ... >= a_r >= 0.
        For t >= r this is the t-th Macaulay representation of P(t), so
        h(t+1) = h(t)^<t> for t >= B: the growth is maximal and no lex
        generator appears (Gotzmann's regularity theorem; Green, Generic
        initial ideals, 1998).

        P is held by its coefficients c_k on the basis C(t + k, k), read
        off the numerator expanded at t = 1.  The c_e terms with a_i = e,
        the degree of P, sum to C(t+e+1, e+1) - C(t-c_e+e+1, e+1) (hockey
        stick), and what is left is a Gotzmann form in s = t - c_e.  So r
        is summed over at most nvars runs of equal a_i."""
        l, num = self.nvars, self.numerator
        c = [(-1) ** (l - 1 - k) * sum(q * math.comb(i, l - 1 - k)
                                       for i, q in enumerate(num))
             for k in range(l)]
        r = 0
        while any(c):
            e = max(k for k in range(l) if c[k])
            run = c[e]
            if run < 0:
                raise ValueError("not the Hilbert series of a graded quotient")
            # C(s + run + k, k) = sum_j C(run-1 + k-j, k-j) C(s + j, j)
            c = [sum(c[k] * math.comb(run - 1 + k - j, k - j)
                     for k in range(j, e + 1))
                 - math.comb(run + e - j, e + 1 - j) for j in range(e)]
            c += [0] * (l - e)
            r += run
        return max(r, len(num) - l)


def hilbert_function(M):
    """Hilbert series of R/M."""
    return HilbertSeries(quotient_k_polynomial(M), M.nvars)


def ci_hilbert_function(n, d, m):
    """Hilbert series (1-t^d)^n / (1-t)^(n+m) of a complete intersection of
    n degree-d forms in n+m variables."""
    if n < 1 or d < 1 or m < 0:
        raise ValueError("need n, d >= 1 and m >= 0")
    num = [0] * (n * d + 1)
    for k in range(n + 1):
        num[k * d] = (-1) ** k * math.comb(n, k)
    return HilbertSeries(tuple(num), n + m)


# ---------------------------------------------------------------------------
# Macaulay representations and lex segment arithmetic

def _least(lo, hi, a, b, N):
    """Least x in [lo, hi] with C(x + a, b) > N, by bisection; C(hi + a, b)
    must exceed N."""
    while lo < hi:
        mid = (lo + hi) // 2
        if math.comb(mid + a, b) > N:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _macaulay_runs(N, t):
    """The t-th Macaulay representation of N as runs (c, s, e): a_i = i + c
    for e >= i >= s.  The offset c = a_i - i never grows as i falls, and a
    run sums to C(e+c+1, c+1) - C(s+c, c+1) (hockey stick), so each run's
    c and s are found by bisection."""
    if N < 0:
        raise ValueError("negative value")
    if N and t < 1:
        raise ValueError(f"no Macaulay representation of {N} at index {t}")
    runs, e, c = [], t, 1
    while math.comb(t + c, c) <= N:  # c > the offset of the first run
        c *= 2
    while N:
        c = _least(0, c, e, e, N) - 1
        top = math.comb(e + c + 1, c + 1)
        s = _least(1, e, c, c + 1, top - N - 1)
        N -= top - math.comb(s + c, c + 1)
        runs.append((c, s, e))
        e = s - 1
    return runs


def macaulay_growth(q, t):
    """Macaulay bound q^<t> = sum C(a_i + 1, i + 1) on the next quotient
    dimension (t >= 1), summed run by run in closed form."""
    return sum(math.comb(e + c + 2, c + 1) - math.comb(s + c + 1, c + 1)
               for c, s, e in _macaulay_runs(q, t))


def lex_unrank(nvars, t, rank):
    """The monomial of given 0-based rank among degree-t monomials in
    descending lex order (x_l largest)."""
    if not 0 <= rank < num_monomials(nvars, t):
        raise ValueError("rank out of range")
    exps = [0] * nvars
    for pos in range(nvars - 1, 0, -1):
        # C(k - 1 + pos, pos) monomials have x_pos-exponent above t - k
        k = _least(0, t, pos, pos, rank)
        rank -= math.comb(k - 1 + pos, pos)
        exps[pos] = t - k
        t = k
    exps[0] = t
    return tuple(exps)


def _lex_run(nvars, t, start, stop):
    """The degree-t monomials of ranks start..stop-1, descending lex: unrank
    start, then step.  The successor lowers the first positive exponent
    after x_1 by one and moves x_1's exponent, plus one, just below it."""
    out = []
    if start < stop:
        exps = list(lex_unrank(nvars, t, start))
        out.append(tuple(exps))
    for _ in range(start + 1, stop):
        pos = 1
        while not exps[pos]:
            pos += 1
        exps[0], exps[pos - 1] = 0, exps[0] + 1
        exps[pos] -= 1
        out.append(tuple(exps))
    return out


def monomials_of_degree(nvars, t):
    """All degree-t monomials in descending lex order; enumerates the full
    degree piece."""
    return _lex_run(nvars, t, 0, num_monomials(nvars, t))


# ---------------------------------------------------------------------------
# lex segment ideals

class MacaulayViolation(ValueError):
    """The requested dimensions are not achievable by any homogeneous ideal."""

    def __init__(self, degree, needed, got):
        self.degree = degree
        super().__init__(
            f"segment of size {got} at degree {degree} cannot contain the "
            f"{needed} multiples of the previous segment")


def _segment_sizes(h, D):
    """Yield (degree t, shadow, N) for t = 0..D for the lex ideal L of the
    series h, reading its quotient dimensions q_t as they stream.  L's
    degree-t part is the first N = full_t - q_t monomials.  The shadow of
    its degree-(t-1) part is the first full_t - q_{t-1}^<t-1> of them, as
    a lex quotient grows by exactly Macaulay's bound (nvars q_0 at t = 1).
    So L has degree-t generators, the ranks shadow..N-1, iff q_t <
    q_{t-1}^<t-1>; q_t > q_{t-1}^<t-1> raises MacaulayViolation."""
    l, prev = h.nvars, 0
    for t, q in enumerate(islice(h.quotient_dims(), D + 1)):
        full = num_monomials(l, t)
        N = full - q
        if not 0 <= N <= full:
            raise MacaulayViolation(t, 0, N)
        sh = 0 if t == 0 else full - (
            l * prev if t == 1 else macaulay_growth(prev, t - 1))
        if N < sh:
            raise MacaulayViolation(t, sh, N)
        yield t, sh, N
        prev = q


def lex_segment_ideal(h, ring, D):
    """Lex-segment ideal of the Hilbert series h, scanned once through
    degree D.  This is regcert's one lex scan; each lex ideal is built by
    a single call.

    Returns (MonomialIdeal, complete).  The generators are the minimal
    generators, sorted descending lex.  complete says D >= h.scan_bound(),
    so no generator lies above D.
    """
    if ring.nvars != h.nvars:
        raise ValueError("ring does not match Hilbert series")
    gens = []
    for t, sh, N in _segment_sizes(h, D):
        gens.extend(_lex_run(h.nvars, t, sh, N))
    # Minimal by construction: the degree-(t-1) part of the ideal is the
    # degree-(t-1) segment, and a degree-t generator lies outside its
    # shadow, so no element of lower degree divides it.
    gens.sort(key=_LEX.key, reverse=True)
    return MonomialIdeal(ring, tuple(gens)), D >= h.scan_bound()


# ---------------------------------------------------------------------------
# stability and regularity of stable ideals

def is_strongly_stable(M):
    """True iff M is strongly stable: for every monomial w of M and every
    i < j with x_i | w, the move x_i -> x_j keeps w·x_j/x_i in M.

    Only the adjacent moves x_k -> x_{k+1} on the generators are tested.
    That suffices.  First, if the generators are closed under adjacent
    moves, so is every monomial w = u·v of M with u a generator: when
    x_k | u, the moved w is v times the moved u, which lies in M; and
    otherwise x_k | v, so the moved w is still a multiple of u.  Second,
    a move x_i -> x_j is the chain of adjacent moves x_i -> x_{i+1} ->
    ... -> x_j, and each intermediate monomial contains the variable it
    is about to give up, since the previous step just multiplied by it.
    So every intermediate monomial, and w·x_j/x_i, lies in M.

    Each moved w is looked up by its heads (0, ..., 0, e, w_{j+1}, ...,
    w_l), 1 <= e <= w_j.  least maps the tail (g_{j+1}, ..., g_l) of each
    generator g with first nonzero exponent g_j (the tail's length fixes
    j) to the least such g_j, so a generator is a head of w iff
    least[w_{j+1..l}] <= w_j for some j.  A head found divides w, so w is
    in M.  Conversely, if M is strongly stable, each w of M is u·v with u
    a minimal generator and v in x_1, ..., x_j, x_j the first variable of
    u (Eliahou and Kervaire, J. Algebra 129, 1990, variables reversed):
    u is a head of w, and any generating set holds the minimal ones.  So
    the test is exact for any generating set: a miss proves M not
    strongly stable, and no miss proves every adjacent move stays in M.
    A generator 1 makes M the unit ideal, which is strongly stable.
    """
    least = {}
    for g in M.gens:
        j = next((k for k, e in enumerate(g) if e), None)
        if j is None:
            return True
        tail = g[j + 1:]
        if least.get(tail, g[j] + 1) > g[j]:
            least[tail] = g[j]
    l = M.nvars
    for u in M.gens:
        for k in range(l - 1):
            if u[k]:
                w = u[:k] + (u[k] - 1, u[k + 1] + 1) + u[k + 2:]
                if not any(w[j] and least.get(w[j + 1:], w[j] + 1) <= w[j]
                           for j in range(l)):
                    return False
    return True


def stable_regularity(M):
    """Regularity of a strongly stable ideal: its maximal generator degree."""
    if M.is_zero():
        raise ValueError("regularity of the zero ideal is undefined")
    if not is_strongly_stable(M):
        raise ValueError("ideal is not strongly stable")
    return M.max_gen_degree()


# ---------------------------------------------------------------------------
# the constant G_{n,d,m}

def g_cap(n, d, m):
    """Guaranteed degree cap for the lex ideal of the (n, d, m) complete
    intersection: d^(n 2^(m-1)) for m >= 1, socle bound for m = 0."""
    if m >= 1:
        return d ** (n * 2 ** (m - 1))
    return n * (d - 1) + 2


def ci_lex_ideal(n, d, m):
    """Lex-segment ideal of a complete intersection of n degree-d forms in
    n+m variables, scanned through the scan bound of its series: the
    enumerated route, kept for the benchmark set-up and the tests."""
    h = ci_hilbert_function(n, d, m)
    ring = make_ring([f"z{i + 1}" for i in range(n + m)])
    M, _ = lex_segment_ideal(h, ring, h.scan_bound())
    return M


@lru_cache(maxsize=None)
def compute_G(n, d, m):
    """reg(Lex(J')) for J' a complete intersection of n degree-d forms in
    n+m variables, counted without building the lex ideal L: the largest
    t <= B = scan_bound() at which the quotient dimension falls below
    Macaulay's bound, q_t < q_{t-1}^<t-1>, that is N > shadow in the
    segment-size walk.  The walk holds O(nvars) values, whatever B is.  It
    depends only on (n, d, m), so it is computed once.  Whether G stays
    within g_cap is checked by its callers.

    The count is reg(L).  (1) L's degree-t part is the first N = full_t -
    q_t degree-t monomials.  The shadow of its degree-(t-1) part is a lex
    segment too, and a lex quotient grows by exactly Macaulay's bound, so
    it is the first full_t - q_{t-1}^<t-1> of them.  So L's
    degree-t minimal generators are exactly the ranks shadow..N-1, as
    lex_segment_ideal builds them: they lie outside that shadow, so
    nothing of lower degree divides them, and there are some iff q_t <
    q_{t-1}^<t-1>.  (2) A lex ideal is strongly stable, so its regularity
    is its largest generator degree (Eliahou and Kervaire, J. Algebra
    129, 1990).  (3) No generator of L lies above B (Gotzmann's
    regularity theorem; see scan_bound)."""
    h = ci_hilbert_function(n, d, m)
    return max(t for t, sh, N in _segment_sizes(h, h.scan_bound())
               if N > sh)
