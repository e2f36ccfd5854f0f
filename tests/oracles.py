"""Slow, direct implementations that the tests compare regcert against.

Nothing in src/ uses these; each one is the plain textbook route to a
quantity the package computes another way.
"""

import math
from fractions import Fraction
from itertools import combinations

from regcert.groebner import (GroebnerBasis, IdealPresentation,
                              Parametrisation, initial_ideal, normal_form)
from regcert.monomials import (HilbertSeries, MacaulayViolation,
                               monomials_of_degree, num_monomials)
from regcert.parser import _TOKEN_RE, ParseError
from regcert.resolution import (_koszul_ranks, _reduced_homology, matrix_rank,
                                monomial_quotient_betti)
from regcert.rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial,
                           make_ring, mono_deg, mono_div, mono_divides,
                           mono_lcm, mono_mul, s_polynomial)
from regcert.scalars import DEFAULT_PRIME, check_characteristic


def mono_mul_by_zip(a, b):
    """rings.mono_mul as a generator expression over zip."""
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm_by_zip(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_divides_by_zip(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div_by_zip(a, b):
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ValueError(f"{b} does not divide {a}")
    return q


def order_key_by_genexpr(order, m):
    """The flat key of m under a LexOrder, DegRevLexOrder or BlockOrder,
    its negated parts built by generator expressions."""
    if isinstance(order, LexOrder):
        return tuple(reversed(m))
    if isinstance(order, DegRevLexOrder):
        return (sum(m), *(-e for e in m))
    hi, lo = m[order.keep:], m[:order.keep]
    return (sum(hi), *(-e for e in hi), sum(lo), *(-e for e in lo))


def hilbert_function_incl_excl(M, D):
    """Quotient Hilbert function of R/M through degree D by
    inclusion-exclusion over generator lcms; exponential in len(M.gens)."""
    l = M.nvars
    gens = M.gens
    if len(gens) > 16:
        raise ValueError("inclusion-exclusion oracle limited to small ideals")
    dims = [num_monomials(l, t) for t in range(D + 1)]
    for r in range(1, len(gens) + 1):
        sign = (-1) ** r
        for sub in combinations(gens, r):
            m = sub[0]
            for g in sub[1:]:
                m = mono_lcm(m, g)
            d = mono_deg(m)
            for t in range(d, D + 1):
                dims[t] += sign * num_monomials(l, t - d)
    return tuple(dims)


def lex_rank(m):
    """Inverse of monomials.lex_unrank."""
    nvars = len(m)
    t = mono_deg(m)
    rank = 0
    for pos in range(nvars - 1, 0, -1):
        for e in range(t, m[pos], -1):
            rank += num_monomials(pos, t - e)
        t -= m[pos]
    return rank


def monomials_of_degree_recursive(nvars, t):
    """monomials.monomials_of_degree by recursion on the last variable's
    exponent, largest first."""
    def gen(rem, parts):
        if parts == 1:
            yield (rem,)
            return
        for e in range(rem, -1, -1):
            for rest in gen(rem - e, parts - 1):
                yield rest + (e,)
    return list(gen(t, nvars))


def macaulay_rep_linear(N, t):
    """The t-th Macaulay representation [(a_i, i)] of N, a_t > ... >= i >= 1,
    by a linear search for each a_i."""
    if N < 0:
        raise ValueError("negative value")
    rep = []
    i = t
    while N > 0:
        if i < 1:
            raise ValueError(f"no Macaulay representation of {N} at index {t}")
        a = i - 1
        while math.comb(a + 1, i) <= N:
            a += 1
        rep.append((a, i))
        N -= math.comb(a, i)
        i -= 1
    return rep


def macaulay_growth_linear(q, t):
    """monomials.macaulay_growth, term by term over macaulay_rep_linear."""
    return sum(math.comb(a + 1, i + 1) for a, i in macaulay_rep_linear(q, t))


def lex_shadow_size_linear(N, t, nvars):
    """The size of the shadow of the degree-t lex segment of size N, which
    the segment walk of monomials._segment_sizes yields in degree t + 1,
    through macaulay_growth_linear."""
    full_t = num_monomials(nvars, t)
    if not 0 <= N <= full_t:
        raise ValueError("segment size out of range")
    if t == 0:
        return num_monomials(nvars, 1) if N == 1 else 0
    return num_monomials(nvars, t + 1) - macaulay_growth_linear(full_t - N, t)


def lex_unrank_linear(nvars, t, rank):
    """monomials.lex_unrank by walking each exponent down one step at a
    time, counting the monomials it skips."""
    if not 0 <= rank < num_monomials(nvars, t):
        raise ValueError("rank out of range")
    exps = [0] * nvars
    for pos in range(nvars - 1, 0, -1):
        for e in range(t, -1, -1):
            cnt = num_monomials(pos, t - e)
            if rank < cnt:
                exps[pos] = e
                t -= e
                break
            rank -= cnt
    exps[0] = t
    return tuple(exps)


def segment_generators_by_unrank(ideal_dims, nvars):
    """The lex scan's (degree, new generators) pairs, each generator
    unranked on its own by lex_unrank_linear."""
    prev = 0
    for t, N in enumerate(ideal_dims):
        full = num_monomials(nvars, t)
        if not 0 <= N <= full:
            raise MacaulayViolation(t, 0, N)
        sh = lex_shadow_size_linear(prev, t - 1, nvars) if t > 0 else 0
        if N < sh:
            raise MacaulayViolation(t, sh, N)
        yield t, [lex_unrank_linear(nvars, t, r) for r in range(sh, N)]
        prev = N


def lex_scan_by_unrank(ideal_dims, nvars):
    """The lex_segment_ideal generators, sorted descending lex, for
    ideal-side dims scanned through their last degree."""
    gens = []
    for _, new in segment_generators_by_unrank(ideal_dims, nvars):
        gens.extend(new)
    return tuple(sorted(gens, key=LexOrder().key, reverse=True))


def dims_by_binomials(h, D):
    """HilbertSeries.dims as a sum over the numerator's terms: c_j t^j
    over (1 - t)^nvars gives c_j times the degree-(t - j) monomials."""
    kp, l = h.numerator, h.nvars
    return tuple(sum(c * num_monomials(l, t - j)
                     for j, c in enumerate(kp[:t + 1]))
                 for t in range(D + 1))


def series_of_dims(dims, nvars):
    """The Hilbert series whose quotient dimensions are dims through degree
    len(dims) - 1 and 0 above: sum_t dims[t] t^t times (1 - t)^nvars."""
    num = list(dims)
    for _ in range(nvars):
        num = [a - b for a, b in zip(num + [0], [0] + num)]
    return HilbertSeries(tuple(num), nvars)


def _binom(x, k):
    """C(x, k) as a polynomial in x, at any integer x."""
    out = 1
    for i in range(k):
        out *= x - i
    return out // math.factorial(k)


def _differences(values):
    """Forward differences f(T), Delta f(T), ... of f(T), f(T+1), ...."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def scan_bound_by_terms(dims, nvars):
    """HilbertSeries.scan_bound from quotient dims whose last nvars values
    already follow the Hilbert polynomial P.  P is fitted through those
    values; t0 is one past the last degree where dims and P differ; and
    Gotzmann's form sum_i C(t + a_i - (i-1), a_i) of P is peeled one term
    at a time, each a_i the degree of what is left."""
    T = len(dims) - nvars
    delta = _differences(list(dims[T:]))

    def P(t):
        return sum(dk * _binom(t - T, k) for k, dk in enumerate(delta))

    t0 = max((t + 1 for t, q in enumerate(dims) if q != P(t)), default=0)
    rest = [P(T + x) for x in range(nvars)]
    r = 0
    while any(rest):
        diffs = _differences(rest)
        a = max(k for k, v in enumerate(diffs) if v)
        if diffs[a] < 0:
            raise ValueError("not a Hilbert polynomial")
        r += 1
        rest = [v - _binom(T + x + a - (r - 1), a)
                for x, v in enumerate(rest)]
    return max(r, t0)


def substitute(g, images):
    """Evaluate g(f_1, ..., f_n) for polynomials f_i in another ring."""
    yring = images[0].ring
    order = images[0].order
    out = Polynomial.zero(yring, order)
    for c, mexp in g.terms:
        term = Polynomial.from_terms(yring, order,
                                     [(c, (0,) * yring.nvars)])
        for i, e in enumerate(mexp):
            for _ in range(e):
                term = term * images[i]
        out = out + term
    return out


def _standard_monomials_in_box(gens, maxexp):
    """Monomials u <= maxexp componentwise with x^u not in the ideal."""
    l = len(maxexp)
    out = []

    def rec(k, active, acc):
        if k < 0:
            out.append(tuple(reversed(acc)))
            return
        for e in range(maxexp[k] + 1):
            na = [g for g in active if g[k] <= e]
            if any(all(g[j] == 0 for j in range(k)) for g in na):
                continue
            acc.append(e)
            rec(k - 1, na, acc)
            acc.pop()

    rec(l - 1, list(gens), [])
    return out


def monomial_quotient_betti_by_monomial(M, field):
    """Quotient-side graded Betti numbers {(i, j): rank} of R/M, one
    standard monomial u of the generator box at a time: the Koszul block
    of multidegree u + sigma is the simplicial complex of the tau within
    sigma with x^(u + sigma - tau) in M."""
    gens = M.gens
    l = M.nvars
    if not gens:
        return {(0, 0): 1}
    if any(mono_deg(g) == 0 for g in gens):
        return {}
    maxexp = [max(g[k] for g in gens) for k in range(l)]
    radix = [1] * l
    for k in range(1, l):
        radix[k] = radix[k - 1] * (maxexp[k - 1] + 2)
    std = _standard_monomials_in_box(gens, maxexp)
    std_codes = {sum(u[k] * radix[k] for k in range(l)) for u in std}
    nmask = 1 << l
    delta = [sum(radix[k] for k in range(l) if msk >> k & 1)
             for msk in range(nmask)]
    bits_of = [[k for k in range(l) if msk >> k & 1] for msk in range(nmask)]
    entries = {(0, 0): 1}
    for u in std:
        ucode = sum(u[k] * radix[k] for k in range(l))
        supmask = 0
        okmask = 0
        for k in range(l):
            if u[k] > 0:
                supmask |= 1 << k
            if u[k] + 1 <= maxexp[k]:
                okmask |= 1 << k
        if supmask & ~okmask:
            continue  # some support coordinate already at the box edge
        # membership word: bit tau set iff x^(u + e_tau) lies in the ideal
        memb = 0
        sub = okmask
        while True:
            if (ucode + delta[sub]) not in std_codes:
                memb |= 1 << sub
            if sub == 0:
                break
            sub = (sub - 1) & okmask
        extra = okmask & ~supmask
        ex = extra
        while True:
            sigma = supmask | ex
            if sigma and (memb >> sigma) & 1:
                sv = bits_of[sigma]
                nv = len(sv)
                faces = []
                for tmask in range(1 << nv):
                    tau = sigma
                    for i in range(nv):
                        if tmask >> i & 1:
                            tau &= ~(1 << sv[i])
                    if (memb >> tau) & 1:
                        faces.append(tmask)
                if faces and faces[0] == 0:
                    hv = _reduced_homology(frozenset(faces), nv, field)
                    if hv:
                        j = sum(u) + nv
                        for hdim, rank in hv.items():
                            cell = (hdim + 2, j)
                            entries[cell] = entries.get(cell, 0) + rank
            if ex == 0:
                break
            ex = (ex - 1) & extra
    return entries


def contains_by_scan(M, m):
    """MonomialIdeal membership by a linear scan over the generators."""
    return any(mono_divides(g, m) for g in M.gens)


def koszul_betti_all_cells(G):
    """{(i, j): beta_{i,j}(R/I)} for i >= 1 over the cells of in(I)'s
    table, I the ideal of the reduced degrevlex basis G, with both Koszul
    ranks taken at every cell: beta_{i,j} = C(l, i) |std(j - i)| - rho_i -
    rho_{i+1}, rho_i the rank of resolution._koszul_ranks, rho_{l+1} = 0
    and std(t) counted by enumeration.  It ranks in G's full ring:
    resolution.betti_table's route before both the regular section and
    consecutive cancellation."""
    M = initial_ideal(G)
    l = M.nvars
    rank = _koszul_ranks(G)

    def std(t):
        return sum(not contains_by_scan(M, m)
                   for m in monomials_of_degree(l, t))

    def rho(i, j):
        return rank(i, j) if i <= l else 0
    return {(i, j): math.comb(l, i) * std(j - i) - rho(i, j) - rho(i + 1, j)
            for i, j in monomial_quotient_betti(M, G.ring.field) if i}


def normal_form_by_max(f, G, order):
    """groebner.normal_form with the largest live term found by max over
    the order key of every term at each step."""
    G = [g.with_order(order) for g in G]
    f = f.with_order(order)
    ring = f.ring
    K = ring.field
    lead = [(g.leading_monomial(), g.leading_coefficient()) for g in G]
    quotients = [[] for _ in G]
    remainder = []
    work = f.coeff_dict()
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for idx, (lm, lc) in enumerate(lead):
            if mono_divides(lm, m):
                q = mono_div(m, lm)
                coeff = K(c * K.inv(lc))
                quotients[idx].append((coeff, q))
                for gc, gm in G[idx].terms[1:]:
                    mm = mono_mul(gm, q)
                    work[mm] = K(work.get(mm, 0) - coeff * gc)
                    if not work[mm]:
                        del work[mm]
                break
        else:
            remainder.append((c, m))
    return (Polynomial(ring, order, remainder),
            [Polynomial(ring, order, q) for q in quotients])


def buchberger_without_criteria(I, order):
    """groebner.buchberger with neither the coprime nor the chain
    criterion: every S-pair is reduced, in the order the pairs are made.
    Returns an (unreduced) Groebner basis."""
    G = [p.with_order(order).monic() for p in I.generators]
    pairs = list(combinations(range(len(G)), 2))
    while pairs:
        i, j = pairs.pop(0)
        rem, _ = normal_form(s_polynomial(G[i], G[j], order), G, order)
        if not rem.is_zero():
            pairs += [(k, len(G)) for k in range(len(G))]
            G.append(rem.monic())
    return GroebnerBasis(I.ring, tuple(G), order)


def rank_by_fractions(rows):
    """resolution.rank_exact_rational by Gaussian elimination over
    fractions.Fraction."""
    A = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not A:
        return 0
    nc = len(A[0])
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, len(A)) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        pv = A[rank][col]
        for r in range(rank + 1, len(A)):
            if A[r][col]:
                f = A[r][col] / pv
                A[r] = [a - f * b for a, b in zip(A[r], A[rank])]
        rank += 1
        if rank == len(A):
            break
    return rank


def macaulay_rows(ring, gens, t):
    """Every row m g of the degree-t Macaulay matrix of gens, for every
    generator g and every monomial m of the degree that fits, dense over
    the degree-t monomials in the order of monomials_of_degree."""
    basis = monomials_of_degree(ring.nvars, t)
    idx = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        e = g.degree()
        if e > t:
            continue
        for m in monomials_of_degree(ring.nvars, t - e):
            row = [0] * len(basis)
            for c, gm in g.terms:
                row[idx[mono_mul(m, gm)]] = c
            rows.append(row)
    return rows


def hf_direct_all_rows(J, D):
    """verify.hf_direct with every row of each degree's Macaulay matrix
    (macaulay_rows)."""
    ring = J.ring
    dims = []
    for t in range(D + 1):
        rows = macaulay_rows(ring, J.generators, t)
        rank = matrix_rank(rows, ring.field) if rows else 0
        dims.append(num_monomials(ring.nvars, t) - rank)
    return tuple(dims)


# ---------------------------------------------------------------------------
# the file reader that tracks line and column character by character

def _tokenize_by_char(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            tokens.append((kind, val, line, col))
        for ch in val:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _ParserByCharPositions:
    def __init__(self, text, char=None):
        self.tokens = _tokenize_by_char(text)
        self.i = 0
        self.char = char  # overrides the file's char clause

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.tokens[min(self.i, len(self.tokens) - 1)]
        raise ParseError(msg, tok[2], tok[3])

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            self.error(f"expected {want!r}, found {tok[1] or 'end of input'!r}",
                       tok)
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.i += 1
            return tok
        return None

    def at_keyword(self, word):
        tok = self.peek()
        return tok[0] == "ident" and tok[1] == word

    def parse_char(self):
        """The 'char P ;' clause after its keyword."""
        tok = self.expect("nat")
        try:
            char = check_characteristic(int(tok[1]))
        except ValueError as exc:
            self.error(str(exc), tok)
        self.expect("sym", ";")
        return char

    def ring(self, names, char):
        return make_ring(names, char=char if self.char is None else self.char)

    def parse_file(self):
        if self.at_keyword("ring"):
            return self.parse_ideal()
        if self.at_keyword("param"):
            return self.parse_param()
        self.error("file must start with 'ring' or 'param'")

    def parse_ideal(self):
        self.expect("ident", "ring")
        names = []
        while self.peek()[0] == "ident":
            names.append(self.next()[1])
        if not names:
            self.error("expected at least one variable name")
        self.expect("sym", ";")
        char = DEFAULT_PRIME
        order = LexOrder()
        while True:
            if self.at_keyword("char"):
                self.next()
                char = self.parse_char()
            elif self.at_keyword("order"):
                self.next()
                tok = self.expect("ident")
                if tok[1] == "lex":
                    order = LexOrder()
                elif tok[1] == "degrevlex":
                    order = DegRevLexOrder()
                elif tok[1] == "elim":
                    k = int(self.expect("nat")[1])
                    if not 0 <= k <= len(names):
                        self.error("elimination split out of range", tok)
                    order = BlockOrder(k)
                else:
                    self.error(f"unknown order {tok[1]!r}", tok)
                self.expect("sym", ";")
            else:
                break
        self.expect("ident", "gens")
        self.expect("sym", ":")
        ring = self.ring(names, char)
        polys = [self.parse_poly(ring, order)]
        while self.accept("sym", ","):
            polys.append(self.parse_poly(ring, order))
        self.expect("eof")
        return ring, IdealPresentation.from_polynomials(ring, polys), order

    def parse_param(self):
        self.expect("ident", "param")
        vals = {}
        for key in ("n", "m", "d"):
            self.expect("ident", key)
            self.expect("sym", "=")
            vals[key] = int(self.expect("nat")[1])
        self.expect("sym", ";")
        char = DEFAULT_PRIME
        if self.at_keyword("char"):
            self.next()
            char = self.parse_char()
        self.expect("ident", "f")
        self.expect("sym", ":")
        ring = self.ring([f"y{i + 1}" for i in range(vals["m"])], char)
        order = LexOrder()
        polys = [self.parse_poly(ring, order)]
        while self.accept("sym", ","):
            polys.append(self.parse_poly(ring, order))
        self.expect("eof")
        if len(polys) != vals["n"]:
            self.error(f"expected {vals['n']} image polynomials, "
                       f"found {len(polys)}")
        param = Parametrisation(vals["n"], vals["m"], vals["d"],
                                tuple(polys), ring)
        return ring, param, order

    def parse_poly(self, ring, order):
        terms = []
        sign = 1
        if self.accept("sym", "-"):
            sign = -1
        terms.append(self.parse_term(ring, sign))
        while True:
            if self.accept("sym", "+"):
                sign = 1
            elif self.accept("sym", "-"):
                sign = -1
            else:
                break
            terms.append(self.parse_term(ring, sign))
        return Polynomial.from_terms(ring, order, terms)

    def parse_term(self, ring, sign):
        K = ring.field
        coeff = 1
        exps = [0] * ring.nvars
        tok = self.peek()
        if tok[0] == "nat":
            self.next()
            coeff = K(int(tok[1]))
            if self.accept("sym", "/"):
                den_tok = self.expect("nat")
                den = K(int(den_tok[1]))
                if not den:
                    self.error(f"zero denominator in characteristic "
                               f"{ring.char}", den_tok)
                coeff = K(coeff * K.inv(den))
            if not self.accept("sym", "*"):
                if self.peek()[0] == "ident":
                    self.error("missing '*' between coefficient and variable")
                return K(sign * coeff), tuple(exps)
        while True:
            tok = self.peek()
            if tok[0] != "ident":
                self.error(f"expected a term, found "
                           f"{tok[1] or 'end of input'!r}")
            self.next()
            if tok[1] not in ring.names:
                self.error(f"unknown variable {tok[1]!r}", tok)
            idx = ring.names.index(tok[1])
            power = 1
            if self.accept("sym", "^"):
                power = int(self.expect("nat")[1])
            exps[idx] += power
            if not self.accept("sym", "*"):
                break
        return K(sign * coeff), tuple(exps)


def parse_by_char_positions(text, char=None):
    """parser.parse_ideal_file with every token's line and column counted
    character by character as the text is tokenized."""
    return _ParserByCharPositions(text, char).parse_file()
