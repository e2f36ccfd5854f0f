"""Graded Betti tables via Koszul homology, regularity, t-invariants, and
the Betti relation under the power substitution.

Two engines, both exact linear algebra over the coefficient field:

* monomial ideals: the Koszul complex splits into multidegree blocks; only
  blocks b = u + supp(b) with u a standard monomial inside the generator
  exponent box can carry homology (blocks outside the box are cones), so
  each block is a simplicial chain complex on at most nvars vertices.
* general homogeneous ideals: ranks of the Koszul differentials on total
  degree pieces, expressed in the standard monomial basis of the initial
  ideal via division with remainder; cells are restricted by the termwise
  bound beta(I) <= beta(in I).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groebner import (GroebnerBasis, IdealPresentation, groebner_basis,
                       initial_ideal, normal_form)
from .monomials import MonomialIdeal
from .reports import VerificationReport, digest_of
from .rings import (DegRevLexOrder, Polynomial, PowerMap, mono_deg,
                    mono_divides)
from .scalars import PrimeField


# ---------------------------------------------------------------------------
# exact rank computation

# Columns per panel of the blocked elimination in rank_mod_p.  A block
# product sums at most PANEL products of entries below p, so float64
# computes it exactly while PANEL * (p - 1)^2 < 2^53: p below 2^23 here.
PANEL = 128
# Elements in one row chunk of the trailing update (2 MB of float64)
_CHUNK = 1 << 18


def rank_mod_p(rows, p):
    """Rank of an integer matrix over GF(p) by right-looking blocked LU
    (the FFLAS-FFPACK scheme: Dumas, Giorgi and Pernet, ACM TOMS 2008).

    The columns are split into panels of PANEL columns.  Within a panel
    each column is eliminated in turn: the first nonzero entry at or
    below the current rank is the pivot, its whole row is swapped into
    place, and the multipliers of the rows below are stored in the panel
    column.  After the panel, one triangular pass over the pivot rows
    gives their trailing part U12, and one matrix product per chunk of
    rows below gives A22 -= L21 @ U12 (mod p).

    Exact for every prime.  Pivots, multipliers and the operands of the
    block products are reduced to [0, p).  When PANEL * (p - 1)^2 < 2^53
    the matrix is int64 and the block products are float64, exact
    because every partial sum is an integer below 2^53; for larger p the
    matrix and the products are Python ints (dtype=object).  The dtype
    follows from p alone.  The kernel works on its own copy of rows,
    which it leaves unchanged."""
    if not rows:
        return 0
    in_float = PANEL * (p - 1) ** 2 < 2 ** 53
    A = np.array(rows, dtype=np.int64 if in_float else object)
    A %= p
    work = np.float64 if in_float else object
    nr, nc = A.shape
    rank = 0
    for c0 in range(0, nc, PANEL):
        c1 = min(c0 + PANEL, nc)
        top = rank
        pivots = []
        for j in range(c0, c1):
            # panel entries below the rank are reduced only here: each
            # earlier pivot of the panel subtracted less than (p - 1)^2,
            # so they stay below PANEL * (p - 1)^2 + p in magnitude
            A[rank:, j] %= p
            nz = np.flatnonzero(A[rank:, j])
            if not nz.size:
                continue
            if nz[0]:
                A[[rank, rank + nz[0]]] = A[[rank + nz[0], rank]]
            below = rank + np.flatnonzero(A[rank + 1:, j]) + 1
            if below.size:
                mult = A[below, j] * pow(int(A[rank, j]), -1, p) % p
                A[below, j] = mult
                A[below, j + 1:c1] -= np.outer(mult, A[rank, j + 1:c1] % p)
            pivots.append(j)
            rank += 1
            if rank == nr:
                return rank
        if not pivots or c1 == nc:
            continue
        L = A[top:, pivots].astype(work)
        U = A[top:rank, c1:].astype(work)
        for t in range(1, len(pivots)):
            # reduced in the matrix dtype: float64 remainder is slow
            U[t] = (U[t] - L[t, :t] @ U[:t]).astype(A.dtype) % p
        L21 = L[len(pivots):]
        step = max(1, _CHUNK // (nc - c1))
        for i in range(0, nr - rank, step):
            block = A[rank + i:rank + i + step, c1:]
            np.subtract(block, L21[i:i + step] @ U, out=block,
                        casting="unsafe")
            block %= p
    return rank


def rank_exact_rational(rows):
    """Rank over the rationals by fraction Gaussian elimination."""
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


def matrix_rank(rows, field):
    if isinstance(field, PrimeField):
        return rank_mod_p(rows, field.p)
    return rank_exact_rational(rows)


# ---------------------------------------------------------------------------
# simplicial homology of the multidegree Koszul blocks

_HOMOLOGY_MEMO = {}


def _reduced_homology(faces, nverts, field):
    """Reduced homology dimensions {dim: rank} of a simplicial complex given
    as a set of vertex bitmasks (the empty face is mask 0)."""
    key = (nverts, tuple(sorted(faces)), field.char)
    hit = _HOMOLOGY_MEMO.get(key)
    if hit is not None:
        return hit
    bydim = {}
    for f in faces:
        bydim.setdefault(bin(f).count("1") - 1, []).append(f)
    maxdim = max(bydim)
    ranks = {}
    for dim in range(0, maxdim + 1):
        lower = sorted(bydim.get(dim - 1, []))
        upper = sorted(bydim.get(dim, []))
        if not lower or not upper:
            ranks[dim] = 0
            continue
        idx = {f: i for i, f in enumerate(lower)}
        rows = []
        for f in upper:
            row = [0] * len(lower)
            verts = [v for v in range(nverts) if f >> v & 1]
            for pos, v in enumerate(verts):
                row[idx[f & ~(1 << v)]] = (-1) ** pos
            rows.append(row)
        ranks[dim] = matrix_rank(rows, field)
    hv = {}
    for dim in range(-1, maxdim + 1):
        d = len(bydim.get(dim, ())) - ranks.get(dim, 0) - ranks.get(dim + 1, 0)
        if d:
            hv[dim] = d
    _HOMOLOGY_MEMO[key] = hv
    return hv


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


def monomial_quotient_betti(M, field):
    """Quotient-side graded Betti numbers {(i, j): rank} of R/M for a
    monomial ideal M, from the multidegree blocks of the Koszul complex.
    M.gens need not be minimal: a redundant generator only widens the box."""
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


# ---------------------------------------------------------------------------
# total-degree Koszul engine for general homogeneous ideals

def standard_monomial_basis(M, t):
    """Degree-t monomials outside the monomial ideal, descending lex."""
    from .monomials import monomials_of_degree
    if t < 0:
        raise ValueError("degree must be nonnegative")
    return [m for m in monomials_of_degree(M.nvars, t)
            if not M.contains_monomial(m)]


class _KoszulWorkspace:
    """Shared state for Koszul ranks of one homogeneous ideal."""

    def __init__(self, G, inI):
        self.G = G
        self.inI = inI
        self.ring = G.ring
        self.order = G.order
        self.field = self.ring.field
        self._std = {}
        self._nf = {}
        self._rank = {}

    def std(self, t):
        if t not in self._std:
            self._std[t] = standard_monomial_basis(self.inI, t)
        return self._std[t]

    def nf_of_monomial(self, m):
        """Normal form of a monomial as {standard monomial: coefficient}."""
        hit = self._nf.get(m)
        if hit is None:
            if not self.inI.contains_monomial(m):
                hit = {m: self.field.one}
            else:
                poly = Polynomial.from_terms(self.ring, self.order,
                                             [(self.field.one, m)])
                rem, _ = normal_form(poly, list(self.G.elements), self.order)
                hit = rem.coeff_dict()
            self._nf[m] = hit
        return hit

    def diff_rank(self, i, j):
        """Rank of the Koszul differential (K_i tensor R/I)_j -> (K_{i-1})_j."""
        key = (i, j)
        hit = self._rank.get(key)
        if hit is not None:
            return hit
        l = self.ring.nvars
        if i < 1 or i > l or j < i:
            self._rank[key] = 0
            return 0
        src_std = self.std(j - i)
        tgt_std = self.std(j - i + 1)
        if not src_std or not tgt_std:
            self._rank[key] = 0
            return 0
        tgt_sets = list(itertools.combinations(range(l), i - 1))
        tgt_index = {}
        for si, T in enumerate(tgt_sets):
            for mi, v in enumerate(tgt_std):
                tgt_index[(T, v)] = si * len(tgt_std) + mi
        K = self.field
        is_p = isinstance(K, PrimeField)
        rows = []
        for T in itertools.combinations(range(l), i):
            for u in src_std:
                row = [0] * (len(tgt_sets) * len(tgt_std))
                for pos, k in enumerate(T):
                    sign = -1 if pos % 2 else 1
                    Tk = tuple(v for v in T if v != k)
                    xu = tuple(e + (1 if idx == k else 0)
                               for idx, e in enumerate(u))
                    for v, c in self.nf_of_monomial(xu).items():
                        col = tgt_index[(Tk, v)]
                        val = int(c) * sign if is_p else c * sign
                        row[col] = row[col] + val if row[col] else val
                rows.append(row)
        r = matrix_rank(rows, K)
        self._rank[key] = r
        return r

    def betti(self, i, j):
        """beta_{i,j}(R/I) as Koszul homology rank in total degree j."""
        l = self.ring.nvars
        if i < 0 or i > l or j < i:
            return 0
        import math
        dim = math.comb(l, i) * len(self.std(j - i))
        return dim - self.diff_rank(i, j) - self.diff_rank(i + 1, j)


# ---------------------------------------------------------------------------
# Betti tables

@dataclass
class BettiTable:
    """Ideal-side graded Betti numbers: entries (i, j) -> rank with
    beta_{i,j}(I) = beta_{i+1,j}(R/I)."""

    entries: dict
    subject: str
    certified_through: int
    characteristic: int

    def regularity(self):
        if not self.entries:
            raise ValueError("regularity of the zero ideal is undefined")
        return max(j - i for (i, j), v in self.entries.items() if v)

    def pdim(self):
        return max(i for (i, j), v in self.entries.items() if v)

    def t_sequence(self):
        pd = self.pdim()
        return tuple(max(j for (i2, j), v in self.entries.items()
                         if v and i2 == i) for i in range(pd + 1))

    def beta(self, i, j):
        return self.entries.get((i, j), 0)


def _ideal_side(quotient_entries):
    return {(i - 1, j): v for (i, j), v in quotient_entries.items()
            if i >= 1 and v}


def betti_table(I, order=None):
    """Certified ideal-side Betti table of a monomial ideal, a homogeneous
    ideal presentation, or a Groebner basis of one."""
    if isinstance(I, MonomialIdeal):
        q = monomial_quotient_betti(I, I.ring.field)
        ent = _ideal_side(q)
        cert = max((j for (_, j) in ent), default=0)
        return BettiTable(ent, "ideal", cert, I.ring.char)
    if not isinstance(I, (IdealPresentation, GroebnerBasis)):
        raise TypeError("expected MonomialIdeal, IdealPresentation or "
                        "GroebnerBasis")
    if not I.homogeneous:
        raise ValueError("Betti tables require a homogeneous ideal")
    if I.is_zero():
        return BettiTable({}, "ideal", 0, I.ring.char)
    G = groebner_basis(I, order or DegRevLexOrder())
    if G.is_unit_ideal():
        raise ValueError("Betti table of the unit ideal is not defined")
    inI = initial_ideal(G)
    mono_q = monomial_quotient_betti(inI, I.ring.field)
    ws = _KoszulWorkspace(G, inI)
    entries = {}
    # termwise beta(I) <= beta(in I): only cells in the support of in(I)
    for (i, j), bound in sorted(mono_q.items()):
        if i == 0:
            continue
        v = ws.betti(i, j)
        if v < 0 or v > bound:
            raise RuntimeError(f"Koszul rank inconsistency at cell {(i, j)}")
        if v:
            entries[(i - 1, j)] = v
    cert = max((j for (_, j) in mono_q), default=0)
    return BettiTable(entries, "ideal", cert, I.ring.char)


def regularity(I, order=None):
    """Castelnuovo-Mumford regularity, ideal side:
    max{j - i : beta_{i,j}(I) != 0}."""
    return betti_table(I, order).regularity()


def t_invariants(table):
    """(t_0, ..., t_pdim) with t_i = max{j : beta_{i,j} != 0}, and the
    largest index p with reg = t_p - p."""
    ts = table.t_sequence()
    r = table.regularity()
    p = max(i for i, t in enumerate(ts) if t - i == r)
    return ts, p


def check_flat_betti(I, d):
    """Verify the Betti relation under x_i -> x_i^d on all variables:
    beta_{i,jd}(I') = beta_{i,j}(I), vanishing off multiples of d,
    t_i(I') = d t_i(I), the regularity gap inequality
    reg(I')/d >= reg(I) + p(d-1)/d, and reg(I) <= reg(I')/d."""
    from .groebner import image_ideal
    if isinstance(I, MonomialIdeal):
        ring = I.ring
        Iprime = MonomialIdeal.from_monomials(
            ring, [tuple(d * e for e in g) for g in I.gens])
        desc = f"monomial:{I.gens}"
    else:
        ring = I.ring
        phi = PowerMap((d,) * ring.nvars)
        Iprime = image_ideal(phi, I)
        desc = f"ideal:{[str(g) for g in I.generators]}"
    report = VerificationReport("regflat-betti", ring.char)
    dig = digest_of(f"flat:{desc}:d={d}")

    T = betti_table(I)
    Tp = betti_table(Iprime)
    failures = []

    for (i, j), v in T.entries.items():
        if Tp.beta(i, j * d) != v:
            failures.append({"cell": [i, j], "expected": v,
                             "got": Tp.beta(i, j * d), "kind": "scaled-cell"})
    for (i, j), v in Tp.entries.items():
        if j % d != 0 and v:
            failures.append({"cell": [i, j], "got": v,
                             "kind": "off-multiple"})
        if j % d == 0 and v != T.beta(i, j // d):
            failures.append({"cell": [i, j], "got": v,
                             "expected": T.beta(i, j // d),
                             "kind": "scaled-cell"})

    ts, p = t_invariants(T)
    tsp, _ = t_invariants(Tp)
    if tuple(d * t for t in ts) != tsp:
        failures.append({"kind": "t-sequence", "t": list(ts),
                         "t_prime": list(tsp)})

    reg_I = T.regularity()
    reg_Ip = Tp.regularity()
    lhs = Fraction(reg_Ip, d)
    rhs = reg_I + Fraction(p * (d - 1), d)
    if lhs < rhs:
        failures.append({"kind": "eq1", "lhs": str(lhs), "rhs": str(rhs)})
    if reg_I > lhs:
        failures.append({"kind": "reg-bound", "reg": reg_I,
                         "reg_prime_over_d": str(lhs)})

    values = {
        "reg": reg_I,
        "reg_prime": reg_Ip,
        "p": p,
        "t_sequence": list(ts),
        "eq1_lhs": str(lhs),
        "eq1_rhs": str(rhs),
        "eq1_gap": str(lhs - rhs),
        "d": d,
    }
    if failures:
        report.add_fail(dig, values, {"failures": failures})
    else:
        report.add_pass(dig, values)
    return report
