"""Graded Betti tables via Koszul homology, regularity and t-invariants.

Two engines, both exact linear algebra over the coefficient field:

* monomial ideals: the Koszul complex splits into multidegree blocks; only
  blocks u + sigma with u a standard monomial inside the generator
  exponent box and supp(u) within sigma can carry homology (the others
  are cones), and each is a simplicial complex on the vertices of sigma.
  That complex depends only on u's pattern: the membership word (bit tau
  set iff x^(u + e_tau) is in the ideal), supp(u) and the coordinates
  below the box edge; |u| only shifts the degree.  So the homology runs
  once per pattern, weighted by a histogram of |u|.  Codes of u are int64
  while the box has fewer than 2^63 cells and Python ints beyond; words
  are kept in 64-bit chunks.
* general homogeneous ideals: ranks of the Koszul differentials on total
  degree pieces, expressed in the standard monomial basis of the initial
  ideal.  Normal forms come from one table per degree, filled in
  increasing term order from the reduced Groebner basis (the Macaulay
  matrix view of F4: Faugere, JPAA 139, 1999); each differential is
  assembled from blocks of the multiplication matrices x_k.  A rank is
  taken only where in(I)'s table leaves a choice: by consecutive
  cancellation, beta_{i,j}(I) is beta_{i,j}(in I) less the rank each of
  d_i and d_{i+1} gains over in(I), and d_i can gain only where cells
  (i-1, j) and (i, j) of in(I)'s table are both nonzero (betti_table).

betti_table takes one route per input.  A MonomialIdeal goes to the
monomial engine.  A presentation goes through its reduced degrevlex basis
G and initial ideal in(I), first cut by the trailing run of variables that
no generator of in(I) involves: those are regular on R/I (Bayer-Stillman),
so the hyperplane section keeps every Betti number in fewer variables.
Then if G is all monomials, I = in(I) and the monomial engine alone gives
the table; otherwise the monomial engine gives in(I)'s table and the
total-degree engine the ranks it leaves open.

One dense kernel, matrix_rank, takes every rank over every field: Gaussian
elimination in the field's matrix_dtype, int64 or Python ints over GF(p)
and Fractions over QQ.  Sparse matrices (the Koszul differentials, and the
Macaulay matrices of verify.hf_direct) first go through pivot_split, which
reduces only the pivots the other rows reach, in one np.add.reduceat per
slice of a level batch; sparse_rank hands matrix_rank only the nonzero
rows and columns the pivots leave.  verify.hf_direct also autoreduces its
generators with pivot_split.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groebner import Divisors, GroebnerBasis, groebner_basis, initial_ideal
from .monomials import HilbertSeries, MonomialIdeal, monomials_of_degree
from .rings import DegRevLexOrder, Polynomial, PolyRing, mono_deg


# ---------------------------------------------------------------------------
# exact rank computation

def matrix_dtype(p):
    """The dtype of every exact matrix over the field of characteristic p,
    in matrix_rank, pivot_split and the normal-form tables: int64 over
    GF(p) for p below 2^31, where an entry can take two or more products
    of entries (_int64_room); Python objects otherwise, ints over GF(p)
    and Fractions over QQ."""
    return np.int64 if 0 < p < 2 ** 31 else object


def _int64_room(p):
    """How many products of two entries, each at most (p - 1)^2, an int64
    entry in [0, p) takes, added or subtracted, before it can overflow:
    (2^63 - p) // (p - 1)^2, which is 2 at 2^31 - 1.  None where
    matrix_dtype is object, which has no limit."""
    if matrix_dtype(p) is np.int64:
        return (2 ** 63 - p) // (p - 1) ** 2


def matrix_rank(rows, field):
    """Rank of a matrix over field by right-looking Gaussian elimination,
    column by column, on a copy that leaves rows unchanged.  The first
    nonzero entry of the column at or below the current rank is the
    pivot, and its row is swapped into place.  Each row below with a
    nonzero entry in the pivot column loses its multiple of the pivot
    row, the multiplier being the entry times field.inv(pivot).

    Entries take the field's matrix_dtype.  Over GF(p) they are ints, and
    each column is reduced mod p before its pivot is sought, as are the
    multipliers and the pivot row.  An update subtracts at most (p - 1)^2
    from an entry, so in int64 the trailing rows are reduced mod p only
    after _int64_room(p) updates; Python ints (p at least 2^31) never
    are.  Over QQ every entry is coerced by field(x) to a Fraction, so
    int rows never meet float division."""
    if not rows:
        return 0
    p = field.char
    A = np.array(rows, dtype=matrix_dtype(p))
    if p:
        A %= p
    else:
        A = np.frompyfunc(field, 1, 1)(A)
    nr, nc = A.shape
    room = _int64_room(p)
    rank = updates = 0
    for j in range(nc):
        if p:
            A[rank:, j] %= p
        nz = rank + np.flatnonzero(A[rank:, j])
        if not nz.size:
            continue
        if nz[0] != rank:
            A[[rank, nz[0]]] = A[[nz[0], rank]]
        # the row swapped down has a zero in column j
        below = nz[1:]
        if below.size:
            mult = A[below, j] * field.inv(A.item(rank, j))
            tail = A[rank, j + 1:]
            if p:
                mult, tail = mult % p, tail % p
            A[below, j + 1:] -= np.outer(mult, tail)
            updates += 1
            if updates == room:
                A[rank + 1:, j + 1:] %= p
                updates = 0
        rank += 1
        if rank == nr:
            break
    return rank


def pivot_split(shape, rows, cols, vals, field, wanted=None):
    """The pivot split of Faugere and Lachartre (PASCO 2010) of the R x N
    matrix with entries vals at (rows, cols), no position twice, which it
    leaves unchanged: (U, free, rest), with U the number of pivots, free
    the N - U other columns, ascending, and rest the reduced non-pivot
    rows of wanted (all rows if None), ascending, dense over free.

    A row's lead is its rightmost nonzero; the first row with each of the
    U distinct leads is a pivot, so pivots are independent.  A pivot less
    multiples of the reduced pivots with smaller leads is c e_lead plus a
    tail over free; another row less a / c_q times each reduced pivot q
    (a its entry at q's lead, c_q q's lead coefficient) vanishes on the
    pivot columns.  These row operations keep the span.  Only the pivots
    that a wanted row reaches, directly or through pivots, are reduced.

    Rows are reduced in level batches: a row meeting no pivot column but
    its own lead has level 0, any other row one more than the highest
    level of the pivots it meets.  A pivot meets only pivots with smaller
    leads, so levels are well defined and a batch reads reduced pivots.
    A batch's (row, pivot, multiplier) entries go in slices of at most
    len(B), B the rows reduced: a slice's products B[q] * multiplier take
    no more memory than B, and each row subtracts their np.add.reduceat
    sum.  Matrices have the field's matrix_dtype.  A row meets fewer than
    len(B) pivots, so over GF(p) in int64 its sum cannot overflow if
    _int64_room(p) >= len(B); otherwise the products are reduced mod p
    first.  B is reduced mod p after each slice."""
    R, N = shape
    p = field.char
    red = (lambda A: np.remainder(A, p, out=A)) if p else (lambda A: A)
    vals = red(np.array(vals, matrix_dtype(p)))
    # nonzero entries by row, then column: a row's lead is its last entry
    order = np.lexsort((cols, rows))
    order = order[vals[order] != 0]
    rows, cols = (np.asarray(a, np.int64)[order] for a in (rows, cols))
    vals = vals[order]
    last = np.diff(rows, append=-1) != 0
    pivot_cols, first = np.unique(cols[last], return_index=True)
    pivots = rows[last][first]
    pivot_of = np.full(N, -1)
    pivot_of[pivot_cols] = pivots
    free = pivot_of < 0
    # (row, pivot) for every pivot column a row meets, but a pivot's own
    # lead; rows ascend, so each row's entries are contiguous
    meets = ~free[cols] & (pivot_of[cols] != rows)
    dr, dp = rows[meets], pivot_of[cols[meets]]
    need = np.zeros(R, bool)
    need[slice(None) if wanted is None else wanted] = True
    need[pivots] = False
    rest, reach = np.flatnonzero(need), need
    while reach.any():
        hit = np.zeros(R, bool)
        hit[dp[reach[dr]]] = True
        reach = hit & ~need
        need |= hit
    at = np.cumsum(need) - 1  # a needed row's place in B
    B = np.zeros((need.sum(), N - len(pivots)), vals.dtype)
    fill = need[rows] & free[cols]
    B[at[rows[fill]], (np.cumsum(free) - 1)[cols[fill]]] = vals[fill]
    used = need[pivots]
    inv_lead = np.zeros(R, vals.dtype)
    inv_lead[pivots[used]] = [field.inv(c)
                              for c in vals[last][first][used].tolist()]
    keep = need[dr]
    dr, dp = dr[keep], dp[keep]
    dc = red(vals[meets][keep] * inv_lead[dp])
    room, S = _int64_room(p), len(B)
    done = np.ones(R, bool)
    done[dr] = False
    while not done.all():
        waits = np.zeros(R, bool)
        waits[dr[~done[dp]]] = True
        now = ~(done | waits)[dr]
        r, q, c = at[dr[now]], at[dp[now]], dc[now]
        for s in range(0, len(r), S):
            rs, prod = r[s:s + S], B[q[s:s + S]] * c[s:s + S, None]
            if room is not None and room < S:
                red(prod)
            start = np.flatnonzero(np.diff(rs, prepend=-1))
            B[rs[start]] = red(B[rs[start]] - np.add.reduceat(prod, start))
        done[dr[now]] = True
    return len(pivots), np.flatnonzero(free), B[at[rest]]


def sparse_rank(shape, rows, cols, vals, field):
    """Rank of the R x N matrix with entries vals at (rows, cols), no
    position twice: U plus the rank of the rows pivot_split leaves, of
    which matrix_rank gets only the nonzero rows and columns."""
    U, _, rest = pivot_split(shape, rows, cols, vals, field)
    nz = rest != 0
    rest = rest[nz.any(1)][:, nz.any(0)]
    return U + (matrix_rank(list(rest), field) if rest.size else 0)


# ---------------------------------------------------------------------------
# simplicial homology of the multidegree Koszul blocks

_HOMOLOGY_MEMO = {}


def _reduced_homology(faces, nverts, field):
    """Reduced homology dimensions {dim: rank} of a simplicial complex given
    as a set of vertex bitmasks (the empty face is mask 0)."""
    key = (nverts, tuple(sorted(faces)), field.char)
    if key in _HOMOLOGY_MEMO:
        return _HOMOLOGY_MEMO[key]
    bydim = {}
    for f in key[1]:
        bydim.setdefault(f.bit_count() - 1, []).append(f)
    ranks = {}  # dim -> rank of the boundary map from dim to dim - 1
    for dim in range(max(bydim) + 1):
        lower, upper = bydim.get(dim - 1, []), bydim.get(dim, [])
        if lower and upper:
            idx = {f: i for i, f in enumerate(lower)}
            rows = [[0] * len(lower) for _ in upper]
            for row, f in zip(rows, upper):
                verts = [v for v in range(nverts) if f >> v & 1]
                for pos, v in enumerate(verts):
                    row[idx[f & ~(1 << v)]] = (-1) ** pos
            ranks[dim] = matrix_rank(rows, field)
    hv = {dim: len(fs) - ranks.get(dim, 0) - ranks.get(dim + 1, 0)
          for dim, fs in sorted(bydim.items())}
    _HOMOLOGY_MEMO[key] = {dim: d for dim, d in hv.items() if d}
    return _HOMOLOGY_MEMO[key]


def _standard_box(gens, maxexp, radix):
    """Sorted codes sum u_k radix_k of the standard monomials u <= maxexp
    of R/M, with |u| and the masks supp(u) | {k : u_k < maxexp_k} << l.

    S_{k+1}, the standard monomials in x_1..x_{k+1}, is {(v, e) : v in S_k,
    e < c(v)}, c(v) the least g_{k+1} over the generators g ending in
    x_{k+1} with (g_1..g_k) <= v; that is the prefix minimum, along each
    axis of S_k in turn, of the heads' own values.  Layer e of S_{k+1} is
    {v : c(v) > e} shifted by e radix_{k+1}, so the codes stay sorted."""
    l = len(maxexp)
    codes = np.zeros(1, np.int64 if radix[-1] * (maxexp[-1] + 2) < 2 ** 63
                     else object)
    deg = np.zeros(1, np.min_scalar_type(sum(maxexp)))
    mask = np.zeros(1, np.min_scalar_type((1 << 2 * l) - 1))
    for k, top in enumerate(maxexp):
        n = len(codes)
        c = np.full(n + 1, top + 1)  # c[n]: what v - e_j is when v_j = 0
        heads = [g for g in gens if g[k] and not any(g[k + 1:])]
        hc = np.array([sum(g[j] * radix[j] for j in range(k))
                       for g in heads], codes.dtype)
        pos = np.searchsorted(codes, hc)
        hit = np.take(codes, pos, mode="clip") == hc
        np.minimum.at(c, pos[hit], np.array([g[k] for g in heads], int)[hit])
        for j in range(k if hit.any() else 0):
            # pointer jumping: after r rounds c(v) is the minimum over
            # v - t e_j, t < 2^r, and below[v] is v - 2^r e_j
            below = np.append(np.searchsorted(codes, codes - radix[j]), n)
            below[:n][mask & 1 << j == 0] = n
            for _ in range(maxexp[j].bit_length()):
                c = np.minimum(c, c[below])
                below = below[below]
        sel, layers = np.arange(n), []
        for e in range(top + 1):
            sel = sel[c[sel] > e]
            layers.append((codes[sel] + e * radix[k], deg[sel] + e,
                           mask[sel] | (e > 0) << k | (e < top) << l + k))
        codes, deg, mask = map(np.concatenate, zip(*layers))
    return codes, deg, mask


def monomial_quotient_betti(M, field):
    """Quotient-side graded Betti numbers {(i, j): rank} of R/M for a
    monomial ideal M, from the multidegree blocks of the Koszul complex.
    M.gens need not be minimal: a redundant generator only widens the box.

    What a standard monomial u of the box gives depends only on its
    pattern (module docstring), and |u| only shifts j.  So the engine
    finds every membership word at once, one searchsorted per tau over
    the sorted codes of _standard_box (int64 below 2^63 box cells, Python
    ints beyond), groups u by pattern with a histogram of |u|, and runs
    the homology once per pattern, adding rank times count into each
    degree.  The word is kept as 64-bit chunks, so the pattern key is
    exact at any number of variables."""
    gens = M.gens
    l = M.nvars
    if not gens:
        return {(0, 0): 1}
    if any(mono_deg(g) == 0 for g in gens):
        return {}
    maxexp = [max(g[k] for g in gens) for k in range(l)]
    radix = [math.prod(top + 2 for top in maxexp[:k]) for k in range(l)]
    codes, deg, mask = _standard_box(gens, maxexp, radix)
    full = (1 << l) - 1

    @functools.cache
    def subfaces(sigma):
        """|sigma| and, for each face t (bit i of t drops the i-th vertex
        of sigma), the vertex mask of sigma less the dropped vertices."""
        sv = [1 << k for k in range(l) if sigma >> k & 1]
        return len(sv), [sigma ^ sum(v for i, v in enumerate(sv) if t >> i & 1)
                         for t in range(1 << len(sv))]

    def outside(base, tau):
        """True where u + e_tau is not a standard monomial."""
        q = base + sum(radix[k] for k in range(l) if tau >> k & 1)
        return np.take(codes, np.searchsorted(codes, q), mode="clip") != q

    # a support coordinate at the box edge makes every block a cone, and
    # a standard u + (1, ..., 1) makes the word zero
    at = np.flatnonzero((mask & ~(mask >> l) & full) == 0)
    at = at[outside(codes[at], full)]
    base, deg, mask = codes[at], deg[at], mask[at]
    chunks = [np.zeros(len(at), np.uint64) for _ in range(full + 64 >> 6)]
    for tau in range(1, full + 1):
        chunks[tau >> 6] |= outside(base, tau) * np.uint64(1 << (tau & 63))
    order = np.lexsort([deg, mask] + chunks)
    new_pattern = np.ones(len(at), bool)
    new_pattern[1:] = np.any([col[order][1:] != col[order][:-1]
                              for col in [mask] + chunks], axis=0)
    deg = deg[order].astype(int)
    new_run = new_pattern.copy()
    new_run[1:] |= deg[1:] != deg[:-1]
    runs = np.flatnonzero(new_run)
    counts = np.diff(runs, append=len(at))
    bounds = np.append(np.searchsorted(runs, np.flatnonzero(new_pattern)),
                       len(runs))
    cells = np.zeros((l + 2, deg.max(initial=0) + l + 1), int)
    for p, row in enumerate(order[new_pattern]):
        memb = sum(int(ch[row]) << 64 * t for t, ch in enumerate(chunks))
        part = slice(bounds[p], bounds[p + 1])
        # blocks u + sigma, sigma = supp(u) and coordinates below the edge
        m = int(mask[row])
        sup, extra = m & full, m >> l & ~m
        for sigma in (sup | ex for ex in range(extra + 1) if ex & extra == ex):
            if not sigma or not memb >> sigma & 1:
                continue
            size, subs = subfaces(sigma)
            faces = [t for t, s in enumerate(subs) if memb >> s & 1]
            hv = _reduced_homology(faces, size, field)
            for hdim, rank in hv.items():
                cells[hdim + 2, deg[runs[part]] + size] += \
                    rank * counts[part]
    entries = {(0, 0): 1}
    entries.update({(int(i), int(j)): int(cells[i, j])
                    for i, j in zip(*np.nonzero(cells))})
    return entries


# ---------------------------------------------------------------------------
# total-degree Koszul engine for general homogeneous ideals

def _nf_table(G, divisors, std, t):
    """({monomial of degree t: row}, matrix of their normal forms modulo the
    reduced Groebner basis G over std, the degree-t standard monomials).

    The table has a dense row for every monomial of degree t, filled in
    increasing term order.  A standard monomial gets a unit row; any other
    x = q lm(g), g the first element of divisors (a Divisors over G) whose
    lead divides x, gets NF(x) = -sum (c / lc(g)) NF(q m) over the tail
    terms c m of g, whose rows are already filled (same degree, smaller);
    divisors holds each -c / lc(g).
    Rows have the matrix_dtype of the field, and the sum is one product; in
    int64 it is taken in chunks of _int64_room(p) tail terms, each reduced
    mod p."""
    p = G.ring.char
    dtype = matrix_dtype(p)
    col = {v: c for c, v in enumerate(std)}
    monos = sorted(monomials_of_degree(G.ring.nvars, t), key=G.order.key)
    row_of = {x: r for r, x in enumerate(monos)}
    room = _int64_room(p) or len(monos)  # no tail is longer
    coeffs = [np.array([c for c, _ in tail], dtype) for tail in divisors.tails]
    N = np.zeros((len(monos), len(col)), dtype)
    for r, x in enumerate(monos):
        if x in col:
            N[r, col[x]] = 1
            continue
        j, _, shifted = divisors.reducer(x)
        rows = [row_of[entry[1]] for entry in shifted]
        for s in range(0, len(rows), room):
            N[r] += coeffs[j][s:s + room] @ N[rows[s:s + room]]
            if p:
                N[r] %= p
    return row_of, N


def _koszul_ranks(G):
    """rank(i, j), the rank of the Koszul differential
    d_i : (K_i tensor R/I)_j -> (K_{i-1} tensor R/I)_j for 1 <= i <= nvars,
    for the ideal I with reduced Groebner basis G; both pieces must be
    nonzero.  Standard monomials, the multiplication matrices and the ranks
    are each computed once per argument, and only for the degrees a
    requested rank touches.  A monomial is standard when no lead of G
    divides it, as the leads generate in(I); the reducers that this test
    finds stay in the divisor list's memo for the normal-form tables."""
    l = G.ring.nvars
    divisors = Divisors(G.generators, G.order)

    @functools.cache
    def std(t):
        """Degree-t monomials outside in(I), descending lex."""
        return [m for m in monomials_of_degree(l, t)
                if divisors.reducer(m) is None]

    @functools.cache
    def multiplication(t):
        """[(rows, cols, vals) of the nonzeros of x_k : std(t - 1) -> std(t)
        for each variable k], the matrix rows being normal forms."""
        row_of, N = _nf_table(G, divisors, std(t), t)
        out = []
        for k in range(l):
            X = N[[row_of[x[:k] + (x[k] + 1,) + x[k + 1:]]
                   for x in std(t - 1)]]
            r, c = np.nonzero(X)
            out.append((r, c, X[r, c]))
        return out

    @functools.cache
    def rank(i, j):
        """Block (T, T minus its pos-th element k) is (-1)^pos x_k."""
        ns, nt = len(std(j - i)), len(std(j - i + 1))
        X = multiplication(j - i + 1)
        src_sets = list(itertools.combinations(range(l), i))
        tgt_sets = {T: b for b, T in
                    enumerate(itertools.combinations(range(l), i - 1))}
        coo = []
        for a, T in enumerate(src_sets):
            for pos, k in enumerate(T):
                b = tgt_sets[T[:pos] + T[pos + 1:]]
                r, c, v = X[k]
                coo.append((r + a * ns, c + b * nt, -v if pos % 2 else v))
        return sparse_rank((len(src_sets) * ns, len(tgt_sets) * nt),
                           *map(np.concatenate, zip(*coo)), G.ring.field)
    return rank


# ---------------------------------------------------------------------------
# Betti tables

@dataclass
class BettiTable:
    """Ideal-side graded Betti numbers: entries (i, j) -> rank with
    beta_{i,j}(I) = beta_{i+1,j}(R/I)."""

    entries: dict
    characteristic: int

    def _cells(self):
        """The cells (i, j) with beta_{i,j} != 0; the zero ideal has none,
        and no regularity, pdim or t-sequence."""
        cells = [c for c, v in self.entries.items() if v]
        if not cells:
            raise ValueError("regularity of the zero ideal is undefined")
        return cells

    def regularity(self):
        return max(j - i for i, j in self._cells())

    def pdim(self):
        return max(i for i, _ in self._cells())

    def t_sequence(self):
        cells = self._cells()
        return tuple(max(j for i2, j in cells if i2 == i)
                     for i in range(self.pdim() + 1))

    def beta(self, i, j):
        return self.entries.get((i, j), 0)


def _regular_section(G, M):
    """(G, M) cut by the trailing run of variables x_1, x_2, ... that
    divide no generator of M = in(I): each is set to 0 in the reduced
    degrevlex basis G and in M, and dropped from the ring (betti_table
    proves the table is kept).  M must not be the unit ideal."""
    k = 0
    while not any(g[k] for g in M.gens):
        k += 1
    if not k:
        return G, M
    ring = PolyRing(G.ring.names[k:], G.ring.field)
    gens = tuple(Polynomial(ring, G.order, [(c, m[k:]) for c, m in g.terms
                                            if not any(m[:k])])
                 for g in G.generators)
    return (GroebnerBasis(ring, gens, G.order, reduced=G.reduced),
            MonomialIdeal(ring, tuple(g[k:] for g in M.gens)))


def betti_table(I):
    """Certified ideal-side Betti table of a monomial ideal, a homogeneous
    ideal presentation, or a Groebner basis of one, by the one route for
    its kind (module docstring).  The table does not depend on the term
    order; a given basis that is already the reduced degrevlex one is
    reused.

    A general ideal is first cut by the trailing variables that are
    regular on R/I, read off in(I) (Bayer and Stillman, Invent. Math. 87,
    1987).  Order the variables x_l > ... > x_1, so x_1 is degrevlex's
    last one.

    1. For revlex, in(I : x_1) = in(I) : x_1 and in(I + (x_1)) =
       in(I) + (x_1) (Eisenbud, Commutative Algebra, Prop. 15.12).
    2. If x_1 divides no minimal generator of in(I), then in(I) : x_1 =
       in(I), so I and I : x_1, which contains it, have one initial ideal
       and are equal: x_1 is a nonzerodivisor on R/I.
    3. A linear form h regular on R/I keeps the resolution: a minimal free
       resolution of R/I tensored with R/(h) stays exact, as
       Tor_i^R(R/I, R/h) = 0 for i > 0, and minimal.  So
       beta^R_{i,j}(R/I) = beta^{R/h}_{i,j}(R/(I + h)).
    4. R/(x_1) is K[x_2..x_l], whose degrevlex order is the restriction
       of R's.  Setting x_1 = 0 in G keeps every lead, so by step 1 the
       result is a Groebner basis of the section; it is still reduced, as
       the substitution only deletes terms.
    5. Repeat on the smaller ring (_regular_section).

    The unit ideal is refused first: its degree-0 generator involves no
    variable.  A non-unit in(I) keeps a variable.  The section may leave
    G all monomials, and then I = in(I) goes to the monomial engine.  Only
    the trailing run is cut: step 1 holds for the last variable alone.

    A general ideal's table is in(I)'s after consecutive cancellation
    (Peeva, Proc. AMS 132, 2004).  Fix j; write beta_i for the quotient-side
    beta_{i,j}, l for the number of variables, C_i for
    K_i tensor (R/I)_{j-i}, of dimension C(l, i) HF(j - i), and rho_i for
    the rank of d_i : C_i -> C_{i-1}, so beta_i = dim C_i - rho_i - rho_{i+1}
    with rho_{l+1} = 0.

    * I and in(I) have one Hilbert function.  It is read off in(I)'s
      table, whose alternating sum sum (-1)^i beta_{i,j}(in I) t^j is the
      numerator of the Hilbert series.  So the C_i have the same dimensions
      for both, and rho_i(in I) follows by recursion down from rho_{l+1}:
      rho_i(in I) = sum_{k >= i} (-1)^(k-i) (dim C_k - beta_k(in I)).
    * The Groebner degeneration of I to in(I) is a flat family I_t, with
      I_1 = I and I_0 = in(I) (Eisenbud, Commutative Algebra, Thm 15.17),
      so in the standard monomials of in(I), d_i is a matrix over K[t].
      At t != 0 it is d_i(I) with rows and columns scaled by powers of t,
      so its minors of size rho_i(I) + 1 vanish at every t, t = 0 too:
      c_i = rho_i(I) - rho_i(in I) >= 0.
    * Hence beta_i(I) = beta_i(in I) - c_i - c_{i+1}.  Both terms are at
      least 0, so beta_{i-1}(I) >= 0 and beta_i(I) >= 0 give
      c_i <= min(beta_{i-1}(in I), beta_i(in I)): c_i = 0 unless cells
      (i-1, j) and (i, j) of in(I)'s table are both nonzero.  In
      particular c_1 = 0, as beta_{0,j} = 0 for j > 0.

    So rho_i(I) is ranked only at those cells, and only the degrees they
    touch get standard monomials and normal forms.  The cells are
    cancelled in increasing i, c_i from cells (i-1, j) and (i, j) alike;
    a c_i below 0 or above either cell as cancelled so far is a rank
    inconsistency, and raises RuntimeError.  That check is a bound, not a
    certificate: a rank one too high where the true c_i is 0 passes when
    both cells are at least 1.  The table keeps its Euler characteristic,
    so only an independent rank of d_i could catch it."""
    if isinstance(I, MonomialIdeal):
        M, G = I, None
    elif not I.homogeneous:
        raise ValueError("Betti tables require a homogeneous ideal")
    elif I.is_zero():
        return BettiTable({}, I.ring.char)
    else:
        G = groebner_basis(I, DegRevLexOrder())
        M = initial_ideal(G)
    if any(mono_deg(g) == 0 for g in M.gens):
        raise ValueError("Betti table of the unit ideal is not defined")
    if G is not None:
        G, M = _regular_section(G, M)
        if all(len(g.terms) == 1 for g in G.generators):
            G = None
    q = monomial_quotient_betti(M, I.ring.field)
    if G is not None:
        l, rank = M.nvars, _koszul_ranks(G)
        numerator = [0] * (max(j for _, j in q) + 1)
        for (i, j), v in q.items():
            numerator[j] += (-1) ** i * v
        need = sorted(c for c in q if (c[0] - 1, c[1]) in q)
        hf = HilbertSeries(numerator, l).dims(max([j for _, j in need],
                                                  default=0))
        for i, j in need:
            # rho_i(in I), from the cells (k, j), k >= i: none is cancelled yet
            rho = sum((-1) ** (k - i) * (math.comb(l, k) * hf[j - k]
                                         - q.get((k, j), 0))
                      for k in range(i, min(l, j) + 1))
            c = rank(i, j) - rho
            if not 0 <= c <= min(q[i - 1, j], q[i, j]):
                raise RuntimeError(
                    f"Koszul rank inconsistency at cell {(i, j)}")
            q[i - 1, j] -= c
            q[i, j] -= c
    return BettiTable({(i - 1, j): v for (i, j), v in q.items() if i and v},
                      I.ring.char)


def regularity(I):
    """Castelnuovo-Mumford regularity, ideal side:
    max{j - i : beta_{i,j}(I) != 0}."""
    return betti_table(I).regularity()


def t_invariants(table):
    """(t_0, ..., t_pdim) with t_i = max{j : beta_{i,j} != 0}, and the
    largest index p with reg = t_p - p."""
    ts = table.t_sequence()
    r = table.regularity()
    p = max(i for i, t in enumerate(ts) if t - i == r)
    return ts, p
