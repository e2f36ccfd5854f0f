"""Betti tables, regularity, t-invariants, and the power-map relation."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from regcert import resolution
from regcert.monomials import (MonomialIdeal, hilbert_function,
                               monomials_of_degree)
from regcert.parser import parse_ideal_file
from regcert.groebner import (Divisors, IdealPresentation, groebner_basis,
                              initial_ideal, normal_form)
from regcert.instances import random_form
from regcert.resolution import (BettiTable, betti_table, matrix_rank,
                                regularity, t_invariants)
from regcert.rings import DegRevLexOrder, LexOrder, Polynomial, make_ring
from regcert.scalars import QQ, PrimeField
from regcert.verify import verify_regflat

from oracles import (contains_by_scan, koszul_betti_all_cells,
                     monomial_quotient_betti_by_monomial, rank_by_bareiss,
                     rank_by_fractions)

R2 = make_ring(["x1", "x2"])
R3 = make_ring(["x1", "x2", "x3"])


def mi(ring, *gens):
    return MonomialIdeal.from_monomials(ring, gens)


def ideal(text):
    return parse_ideal_file(text)[1]


# ---------------------------------------------------------------------------
# exact rank

def test_rank_small_matrices():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert matrix_rank(rows, PrimeField(32003)) == 2
    assert matrix_rank(rows, QQ) == 2
    assert matrix_rank([], PrimeField(7)) == 0
    assert matrix_rank([], QQ) == 0
    assert matrix_rank([[0, 0]], QQ) == 0


@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=50)
def test_rank_routes_agree_away_from_char(rows):
    # entries are far below the prime, so ranks agree
    assert matrix_rank(rows, PrimeField(32003)) == matrix_rank(rows, QQ)


@st.composite
def rational_matrices(draw):
    """Small matrices of fractions; some rows are rational combinations of
    earlier ones, so the rank is often below both dimensions."""
    ncols = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-6, 6),
                      st.sampled_from([1, 2, 3, 7]))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    for a, b, c in draw(st.lists(st.tuples(
            st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1),
            entry), max_size=3)):
        rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    return draw(st.permutations(rows))


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_fraction_free_rank_matches_fraction_elimination(rows):
    rank = rank_by_bareiss(rows)
    assert rank == rank_by_fractions(rows)
    assert matrix_rank(rows, QQ) == rank


def rank_by_python_ints(rows, p):
    """Oracle: Gauss-Jordan elimination over GF(p) in Python ints."""
    A = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(A[0])):
        piv = next((r for r in range(rank, len(A)) if A[r][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], p - 2, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for r in range(len(A)):
            if r != rank and A[r][col]:
                f = A[r][col]
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3),
                                   PrimeField(32003), PrimeField(4294967311),
                                   QQ], ids=repr)
def test_matrix_rank_exact_for_every_field(field):
    # 6x6 matrices whose rows combine 3 random rows, one of them zero: at
    # 4294967311 the products (p-1)^2 overflow int64, and over QQ entries
    # near 2^82 lose their low bits in floats
    p = field.char
    rng = random.Random(p)
    top = p or 2 ** 40
    for trial in range(50):
        base = [[rng.randrange(top) for _ in range(6)] for _ in range(3)]
        coeffs = [[rng.randrange(top) for _ in base] for _ in range(6)]
        coeffs[trial % 6] = [0] * len(base)
        rows = [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(6)]
                for cs in coeffs]
        if p:
            rows = [[x % p for x in row] for row in rows]
        elif trial % 2:
            # scaling a row by a fraction keeps the rank
            rows = [[Fraction(x, 2 * r + 3) for x in row]
                    for r, row in enumerate(rows)]
        rank = matrix_rank(rows, field)
        assert rank == dense_rank(rows, field) <= 3
        assert p or rank == rank_by_bareiss(rows)
    # an explicit rank-3 matrix with entries near p, or near 2^40 over QQ
    rows = [[top - 1, 1, 0], [1, top - 1, 0], [0, 0, top - 2],
            [top - 1, 0, 1]]
    rank = matrix_rank(rows, field)
    assert rank == dense_rank(rows, field)
    assert p or rank == rank_by_bareiss(rows)
    # determinant -1: rank 2 over every field, but 1 in floats
    big = 2 ** 60
    assert matrix_rank([[big + 1, big], [big, big - 1]], field) == 2
    assert matrix_rank([[0] * 4] * 3, field) == 0


def deficient_matrix(rng, p, nrows, ncols, rank, zero_cols):
    """Seeded nrows x ncols matrix over GF(p) of rank at most rank: random
    combinations of rank random rows that vanish on zero_cols, a tenth of
    the rows repeated, in random order."""
    live = [j for j in range(ncols) if j not in zero_cols]
    base = np.zeros((rank, ncols), dtype=object)
    base[:, live] = [[rng.randrange(p) for _ in live] for _ in range(rank)]
    coeffs = np.array([[rng.randrange(p) for _ in range(rank)]
                       for _ in range(nrows - nrows // 10)], dtype=object)
    rows = [list(row) for row in coeffs @ base % p]
    rows += [list(rng.choice(rows)) for _ in range(nrows // 10)]
    rng.shuffle(rows)
    return rows


# (rows, columns, rank bound, zero columns) for the elimination: tall,
# square and wide matrices of 100 to 390 columns.  Ranks are reached
# before the last column; the wide case has a long run of zero columns
# in its middle, and the pivots of the last case are sparse in its
# first 250 columns.
BLOCKED_CASES = {
    "one-panel-tall": (120, 100, 70, {3, 50, 99}),
    "two-panels-tall": (180, 140, 135, set(range(60, 70))),
    "two-panels-square": (150, 150, 140, {0, 127, 128}),
    "three-panels-wide": (60, 390, 50, set(range(100, 256))),
    "three-panels-square": (260, 260, 40,
                            {j for j in range(250) if j % 8}),
}


@pytest.mark.parametrize("p", [2, 3, 32003, 8388593, 8388617, 1073741789,
                               2147483647, 4294967311])
@pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
def test_rank_mod_p_blocked_against_oracle(case, p):
    # in int64 the trailing rows are reduced after every
    # (2^63 - p) // (p - 1)^2 updates: 8 at 1073741789 = 2^30 - 35 and 2
    # at 2147483647 = 2^31 - 1; 4294967311 takes the Python-int route
    nrows, ncols, rank, zero_cols = BLOCKED_CASES[case]
    rows = deficient_matrix(random.Random(repr((case, p))), p, nrows, ncols,
                            rank, zero_cols)
    assert matrix_rank(rows, PrimeField(p)) == rank_by_python_ints(rows, p)


@pytest.mark.parametrize("p", [32003, 4294967311])
def test_matrix_rank_leaves_its_input_unchanged(p):
    # unreduced and negative entries, so an in-place reduction would show
    rows = deficient_matrix(random.Random(p), p, 150, 140, 120, set())
    for i, row in enumerate(rows):
        row[i % 140] -= p
        row[-1] += p
    as_lists = [list(row) for row in rows]
    A = np.array(rows, dtype=np.int64)
    before = A.copy()
    K = PrimeField(p)
    assert matrix_rank(as_lists, K) == matrix_rank(list(A), K)
    assert as_lists == rows
    assert np.array_equal(A, before)


SPARSE_FIELDS = [PrimeField(2), PrimeField(32003), PrimeField(2 ** 31 - 1),
                 PrimeField(2 ** 64 + 13), QQ]


def dense_rank(rows, field):
    """The dense oracles: Gauss-Jordan over GF(p), Fraction elimination
    over QQ."""
    if not rows:
        return 0
    if field.char:
        return rank_by_python_ints(rows, field.char)
    return rank_by_fractions(rows)


def coo_of(rows, field, rng):
    """The nonzeros of a dense matrix as (rows, cols, vals) arrays, in a
    random order, with the values in the field's matrix_dtype."""
    nz = [(r, c, x) for r, row in enumerate(rows)
          for c, x in enumerate(row) if x]
    rng.shuffle(nz)
    ri, ci, vals = zip(*nz) if nz else ((), (), ())
    return (np.array(ri, np.int64), np.array(ci, np.int64),
            np.array(vals, resolution.matrix_dtype(field.char)))


@st.composite
def sparse_matrices(draw):
    """(field, dense rows, N) for sparse_rank: mostly zero entries, rows
    that repeat or combine earlier rows, so leads are shared, zero rows,
    an all-pivot shape (a distinct lead per row) and the empty matrix."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    p = field.char or 7
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def entry():
        if rng.random() >= density:
            return 0
        if field.char:
            # unreduced and negative representatives as well
            return rng.randrange(-p, 2 * p)
        return Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 7]))

    shape = draw(st.sampled_from(["random", "all-pivot"]))
    if shape == "all-pivot":
        # row r leads at column r: a triangular matrix, no residual
        nrows = min(nrows, ncols)
        rows = [[entry() if c < r else 0 for c in range(ncols)]
                for r in range(nrows)]
        for r in range(nrows):
            rows[r][r] = rng.randrange(1, p)
    else:
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(draw(st.integers(0, 3)) if rows else 0):
            a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
            c = rng.randrange(-p, p)
            row = [x + c * y for x, y in zip(rows[a], rows[b])]
            rows.append([x % p for x in row] if field.char else row)
        rng.shuffle(rows)
    return field, rows, ncols


@given(sparse_matrices(), st.integers(0, 2 ** 32))
@settings(max_examples=300, deadline=None)
def test_sparse_rank_matches_the_dense_oracles(case, seed):
    field, rows, ncols = case
    coo = coo_of(rows, field, random.Random(seed))
    before = [a.copy() for a in coo]
    rank = resolution.sparse_rank((len(rows), ncols), *coo, field)
    assert rank == dense_rank(rows, field)
    assert all(np.array_equal(a, b) for a, b in zip(coo, before))


@st.composite
def deep_sparse_matrices(draw):
    """(field, dense rows, N) for sparse_rank, up to 36 rows, pivots
    first: a pivot chain whose pivot k meets pivot k - 1, 3-6 levels
    deep; 4-10 wide pivots; pivots leading at the highest columns, which
    no other row reaches; 4-12 other rows, each a combination of the
    chain's top, every wide pivot and at most two vectors over the free
    columns, so that they meet 5-11 pivots, their level has more (row,
    pivot) entries than the rows sparse_rank reduces and takes two or
    more slices, and their reduced rows have rank at most two; and rows
    that combine 2-5 pivots, which reduce to zero."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    p = field.char or 7
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    nfree, depth, nwide, nout, nother = (
        draw(st.integers(lo, hi))
        for lo, hi in [(0, 6), (3, 6), (4, 10), (1, 5), (4, 12)])
    top = nfree + depth + nwide
    ncols = top + nout

    def entry():
        # nonzero; over GF(p) often -1, whose products (p - 1)^2 are near
        # 2^62 at p = 2^31 - 1, and unreduced or negative representatives
        if field.char:
            x = rng.choice([1, -1, -1, rng.randrange(1, p)])
            return x % p + p * rng.randrange(-1, 2)
        return Fraction(rng.choice([-9, -2, 1, 3, 8]), rng.choice([1, 2, 7]))

    def row(cols):
        r = [0] * ncols
        for c in cols:
            r[c] = entry()
        return r

    def some(cols, share):
        return [c for c in cols if rng.random() < share]

    def combination(vectors):
        r = [0] * ncols
        for v in vectors:
            c = entry()
            r = [x + c * y for x, y in zip(r, v)]
        return [x % p for x in r] if field.char else r

    chain = [row(some(range(nfree), 0.5) + [nfree + k - 1] * (k > 0)
                 + [nfree + k]) for k in range(depth)]
    wide = [row(some(range(nfree), 0.5) + [c])
            for c in range(nfree + depth, top)]
    out = [row(some(range(c), 0.3) + [c]) for c in range(top, ncols)]
    free = [row(some(range(nfree), 0.7))
            for _ in range(draw(st.integers(0, 2)))]
    others = [combination([chain[-1]] + wide + free) for _ in range(nother)]
    others += [combination(rng.sample(chain + wide, rng.randint(2, 5)))
               for _ in range(draw(st.integers(0, 3)))]
    return field, chain + wide + out + others, ncols


@given(deep_sparse_matrices(), st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_sparse_rank_matches_the_dense_oracles_at_depth(case, seed):
    field, rows, ncols = case
    coo = coo_of(rows, field, random.Random(seed))
    assert resolution.sparse_rank((len(rows), ncols), *coo, field) == \
        dense_rank(rows, field)


@pytest.mark.parametrize("field", SPARSE_FIELDS)
def test_sparse_rank_edge_cases(field):
    empty = np.zeros(0, np.int64)
    for shape in [(0, 0), (0, 4), (3, 0), (3, 4)]:
        assert resolution.sparse_rank(shape, empty, empty, empty, field) == 0
    # explicit zeros (p over GF(p)) are no leads: rows 0 and 2 are zero,
    # and row 3's lead is column 1, which it shares with row 1
    zero = field.char
    rows, cols = np.array([0, 1, 1, 2, 3, 3]), np.array([3, 0, 1, 2, 1, 3])
    vals = np.array([zero, 1, 3, zero, 3, zero],
                    resolution.matrix_dtype(field.char))
    assert resolution.sparse_rank((4, 4), rows, cols, vals, field) == 2


def test_sparse_rank_reduces_products_before_summing_them():
    # entries p - 1 at p = 2^31 - 1: the pivots e_k + (p - 1)(e_0 + e_1)
    # lead at columns 2..5, and the last row, their sum times p - 1, meets
    # all four with multiplier p - 1.  Each product (p - 1)^2 is near
    # 2^62, so four of them summed unreduced overflow int64; reduced, the
    # row vanishes and the rank is 4.
    p = 2 ** 31 - 1
    K = PrimeField(p)
    rows = [[p - 1, p - 1] + [int(c == k) for c in range(2, 6)]
            for k in range(2, 6)]
    rows.append([4, 4] + [p - 1] * 4)
    assert resolution.matrix_dtype(p) == np.int64
    assert dense_rank(rows, K) == 4
    coo = coo_of(rows, K, random.Random(1))
    assert resolution.sparse_rank((5, 6), *coo, K) == 4


def test_int64_room():
    # (2^63 - p) // (p - 1)^2 products fit on an int64 entry in [0, p);
    # object matrices (p at least 2^31, and QQ) have no limit
    assert resolution._int64_room(2 ** 31 - 1) == 2
    assert resolution._int64_room(2 ** 30 - 35) == 8
    assert resolution._int64_room(2 ** 61 - 1) is None
    assert resolution._int64_room(QQ.char) is None


def test_sparse_rank_reduces_after_room_products():
    # as above at p = 2^30 - 35, where room is 8, with 2 room + 1 pivots
    # e_k + (p - 1)(e_0 + e_1): the last row meets every one with
    # multiplier p - 1, and room + 1 products (p - 1)^2 overflow int64
    p = 2 ** 30 - 35
    room = resolution._int64_room(p)
    K = PrimeField(p)
    npiv = 2 * room + 1
    rows = [[p - 1, p - 1] + [int(c == k) for c in range(npiv)]
            for k in range(npiv)]
    rows.append([npiv, npiv] + [p - 1] * npiv)
    assert dense_rank(rows, K) == npiv
    coo = coo_of(rows, K, random.Random(2))
    assert resolution.sparse_rank((npiv + 1, npiv + 2), *coo, K) == npiv


@pytest.mark.parametrize("char", [0, 32003])
def test_betti_table_ranks_only_the_koszul_residuals(monkeypatch, char):
    # three generic forms in 4 variables, and two quadrics in 3: complete
    # intersections, so the tables are the Koszul ones.  Every Koszul
    # differential still ranked goes through sparse_rank, which hands
    # matrix_rank fewer rows and columns than the differential has, or
    # nothing at all (the second ideal's d_3 in degree 5)
    ring = make_ring(["x1", "x2", "x3", "x4"], char=char)
    rng = random.Random(3)
    I = IdealPresentation(ring, tuple(
        random_form(ring, DegRevLexOrder(), d, rng) for d in (2, 2, 3)))
    J = parse_ideal_file("ring x1 x2 x3; gens: x1^2 + x2*x3, x2^2",
                         char=char)[1]
    real_sparse, real_dense = resolution.sparse_rank, resolution.matrix_rank
    calls, inside = [], []

    def sparse(shape, rows, cols, vals, field):
        calls.append([shape])
        inside.append(shape)
        try:
            return real_sparse(shape, rows, cols, vals, field)
        finally:
            inside.pop()

    def dense(rows, field):
        if inside:
            calls[-1].append((len(rows), len(rows[0])))
        return real_dense(rows, field)

    monkeypatch.setattr(resolution, "sparse_rank", sparse)
    monkeypatch.setattr(resolution, "matrix_rank", dense)
    assert betti_table(I).entries == {(0, 2): 2, (0, 3): 1, (1, 4): 1,
                                      (1, 5): 2, (2, 7): 1}
    assert len(calls) == 5  # one per adjacent pair of in(I)'s table
    assert betti_table(J).entries == {(0, 2): 2, (1, 4): 1}
    assert len(calls) == 8
    for (R, N), *residual in calls:
        for r, n in residual:
            assert r < R and n < N
    assert any(len(call) == 1 for call in calls)


# ---------------------------------------------------------------------------
# monomial engine against known resolutions

def test_koszul_complete_intersection_two_squares():
    M = mi(R2, (2, 0), (0, 2))
    T = betti_table(M)
    # Koszul resolution of a (2,2) CI: ideal-side betti (0,2):2, (1,4):1
    assert T.entries == {(0, 2): 2, (1, 4): 1}
    assert T.regularity() == 3
    assert T.t_sequence() == (2, 4)


def test_koszul_three_variables_ci():
    M = mi(R3, (2, 0, 0), (0, 2, 0), (0, 0, 2))
    T = betti_table(M)
    assert T.entries == {(0, 2): 3, (1, 4): 3, (2, 6): 1}
    assert T.regularity() == 4


def test_principal_ideal():
    M = mi(R3, (1, 2, 0))
    T = betti_table(M)
    assert T.entries == {(0, 3): 1}
    assert T.regularity() == 3
    ts, p = t_invariants(T)
    assert ts == (3,) and p == 0


def test_maximal_ideal_linear_resolution():
    M = mi(R3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    T = betti_table(M)
    # Koszul complex: beta_i = C(3, i+1) in degree i+1
    assert T.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    assert T.regularity() == 1


def betti_euler_check(M, field, q=None):
    """Alternating sums of Betti numbers (of q, or else computed here)
    reproduce the Hilbert function numerator of R/M (Euler characteristic
    of the resolution)."""
    from regcert.monomials import quotient_k_polynomial
    from regcert.resolution import monomial_quotient_betti
    if q is None:
        q = monomial_quotient_betti(M, field)
    maxj = max(j for _, j in q)
    kp = quotient_k_polynomial(M)
    kp = list(kp) + [0] * (maxj + 1 - len(kp))
    for j in range(maxj + 1):
        assert sum((-1) ** i * v for (i, jj), v in q.items()
                   if jj == j) == kp[j]


monoset3 = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    min_size=1, max_size=5)


@given(monoset3)
@settings(max_examples=40, deadline=None)
def test_euler_characteristic_random_monomial(gens):
    M = MonomialIdeal.from_monomials(R3, gens)
    if M.gens in ((), ((0, 0, 0),)):  # zero or unit ideal
        return
    betti_euler_check(M, R3.field)


@given(monoset3)
@settings(max_examples=25, deadline=None)
def test_monomial_betti_char_independent_small(gens):
    # homology of complexes on <= 3 vertices is torsion-free
    M = MonomialIdeal.from_monomials(R3, gens)
    if M.gens in ((), ((0, 0, 0),)):  # zero or unit ideal
        return
    from regcert.resolution import monomial_quotient_betti
    assert monomial_quotient_betti(M, R3.field) == \
        monomial_quotient_betti(M, QQ)


@given(monoset3, monoset3)
@settings(max_examples=25, deadline=None)
def test_monomial_betti_of_redundant_generators(gens, extra):
    # the Koszul engine takes the generators as given; multiples of them
    # only widen the box
    M = MonomialIdeal.from_monomials(R3, gens)
    if M.gens in ((), ((0, 0, 0),)):  # zero or unit ideal
        return
    redundant = tuple(tuple(a + b for a, b in zip(g, e))
                      for g, e in zip(M.gens, extra))
    from regcert.resolution import monomial_quotient_betti
    assert monomial_quotient_betti(MonomialIdeal(R3, M.gens + redundant),
                                   R3.field) == \
        monomial_quotient_betti(M, R3.field)


# ---------------------------------------------------------------------------
# general engine against the monomial engine

def thin(e):
    return f"ring x1 x2 x3; gens: x1^{e}*x2, x1*x2^{e}, x2*x3"


def test_general_engine_on_monomial_input():
    # run the same ideal through both engines; betti_table itself sends a
    # monomial basis to the monomial engine, so the cells are built from
    # the total-degree engine's ranks here
    for text in ("ring x1 x2 x3; gens: x1^2, x2^2, x1*x3", thin(6)):
        G = groebner_basis(ideal(text), DegRevLexOrder())
        M = initial_ideal(G)
        assert all(len(g.terms) == 1 for g in G.generators)
        mono_q = resolution.monomial_quotient_betti(M, R3.field)
        assert koszul_betti_all_cells(G) == \
            {(i, j): v for (i, j), v in mono_q.items() if i}


def test_monomial_basis_takes_the_monomial_engine(monkeypatch):
    # a presentation whose reduced degrevlex basis is all monomials is its
    # own initial ideal: its table is the monomial engine's, and no Koszul
    # differential is ranked.  Through the total-degree engine, exponent
    # 3000 asked for a 202 GiB normal-form table
    def no_koszul(*args):
        raise AssertionError("a Koszul differential was ranked")

    monkeypatch.setattr(resolution, "sparse_rank", no_koszul)
    J = ideal(thin(30))
    T = betti_table(mi(R3, (30, 1, 0), (1, 30, 0), (0, 1, 1)))
    assert T.regularity() == 59
    assert betti_table(J) == T
    assert betti_table(groebner_basis(J, LexOrder())) == T


def test_general_engine_ci_conic():
    J = ideal("ring x1 x2 x3; gens: x1*x3 - x2^2")
    T = betti_table(J)
    assert T.entries == {(0, 2): 1}
    assert T.regularity() == 2


def test_general_engine_twisted_cubic():
    J = ideal("ring x1 x2 x3 x4; gens: "
              "x1*x3 - x2^2, x2*x4 - x3^2, x1*x4 - x2*x3")
    T = betti_table(J)
    # 2x2 minors of a 2x3 matrix: 3 quadrics, 2 linear syzygies
    assert T.entries == {(0, 2): 3, (1, 3): 2}
    assert T.regularity() == 2


def test_betti_table_of_groebner_basis():
    J = ideal("ring x1 x2 x3; gens: x1^2 + x2*x3, x2^2")
    for order in (DegRevLexOrder(), LexOrder()):
        G = groebner_basis(J, order)
        assert betti_table(G).entries == betti_table(J).entries
    assert regularity(groebner_basis(J, DegRevLexOrder())) == regularity(J)


def test_betti_char_zero_agrees():
    J0 = ideal("ring x1 x2 x3; char 0; gens: x1*x2 - x3^2, x2^2 - x1*x3")
    Jp = ideal("ring x1 x2 x3; gens: x1*x2 - x3^2, x2^2 - x1*x3")
    assert betti_table(J0).entries == betti_table(Jp).entries
    assert betti_table(J0).characteristic == 0


NF_FIELDS = [PrimeField(2), PrimeField(32003), PrimeField(2 ** 31 - 1),
             PrimeField(2 ** 30 - 35), PrimeField(2 ** 61 - 1), QQ]


@st.composite
def homogeneous_ideals(draw, fields=NF_FIELDS):
    """1-3 sparse forms of degrees 1-3 in 2-4 variables over one of the
    fields, from a seeded random.Random; coefficients a / b with
    |a| < 10^12 and b odd, so QQ gets fractions and GF(p) residues of
    every size."""
    K = draw(st.sampled_from(fields))
    l = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    R = make_ring([f"x{i + 1}" for i in range(l)], char=K.char)
    gens = []
    for _ in range(rng.randint(1, 3)):
        monos = monomials_of_degree(l, rng.randint(1, 3))
        support = rng.sample(monos, rng.randint(1, min(4, len(monos))))
        terms = [(K(rng.randrange(-10 ** 12, 10 ** 12)
                    * K.inv(K(rng.choice([1, 3, 7])))), m) for m in support]
        gens.append(Polynomial.from_terms(R, DegRevLexOrder(), terms))
    return IdealPresentation.from_polynomials(R, gens)


@given(homogeneous_ideals())
@settings(max_examples=60, deadline=None)
def test_normal_form_table_matches_division(J):
    # every row of the degree-t table is the remainder of the monomial on
    # division by the reduced basis, written over std(t)
    assume(not J.is_zero())
    G = groebner_basis(J, DegRevLexOrder())
    inI = initial_ideal(G)
    assume(not contains_by_scan(inI, (0,) * J.ring.nvars))  # 1 is not in I
    p = J.ring.char
    divisors = Divisors(G.generators, G.order)  # shared across degrees
    for t in range(5):
        monos = monomials_of_degree(J.ring.nvars, t)
        std = [m for m in monos if not contains_by_scan(inI, m)]
        row_of, N = resolution._nf_table(G, divisors, std, t)
        assert N.dtype == (np.int64 if 0 < p < 2 ** 31 else object)
        assert sorted(row_of) == sorted(monos)
        for x, r in row_of.items():
            rem, _ = normal_form(Polynomial(J.ring, G.order, [(1, x)]),
                                 Divisors(G.generators, G.order))
            nf = rem.coeff_dict()
            assert set(nf) <= set(std)
            assert list(N[r]) == [nf.get(v, 0) for v in std]


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2147483629])
@pytest.mark.parametrize("seed", range(4))
def test_koszul_rows_near_int64_limit(p, seed):
    # four random cubics in 4 variables: a complete intersection.  Rows of
    # the normal-form table reduced only once per row, after all tail
    # terms, overflow int64 at these primes and break the rank check
    R = make_ring(["x1", "x2", "x3", "x4"], char=p)
    rng = random.Random(seed)
    J = IdealPresentation(R, tuple(random_form(R, DegRevLexOrder(), 3, rng)
                                   for _ in range(4)))
    assert betti_table(J).entries == {(0, 3): 4, (1, 6): 6, (2, 9): 4,
                                      (3, 12): 1}


CANCEL_CHARS = [2, 32003, 0]


@st.composite
def generic_ideals(draw):
    """1-3 dense random forms of degrees 1-3 in 3-4 variables over GF(2),
    GF(32003) or QQ: over the larger fields complete intersections, whose
    tables cancel cells of their initial ideals' tables."""
    ring = make_ring([f"x{i + 1}" for i in range(draw(st.integers(3, 4)))],
                     char=draw(st.sampled_from(CANCEL_CHARS)))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return IdealPresentation.from_polynomials(ring, [
        random_form(ring, DegRevLexOrder(), d, rng) for d in degrees])


def all_cells_table(J):
    """The ideal-side table of the all-cells oracle."""
    G = groebner_basis(J, DegRevLexOrder())
    return {(i - 1, j): v for (i, j), v in koszul_betti_all_cells(G).items()
            if v}


@given(st.one_of(homogeneous_ideals([PrimeField(2), PrimeField(32003), QQ]),
                 generic_ideals()))
@settings(max_examples=60, deadline=None)
def test_cancellation_matches_the_all_cells_route(J):
    # betti_table ranks a Koszul differential only where in(I)'s table
    # leaves a choice; the oracle ranks both at every cell
    assume(not J.is_zero())
    assert betti_table(J).entries == all_cells_table(J)


@pytest.mark.parametrize("char", CANCEL_CHARS)
@pytest.mark.parametrize("J", [
    "ring x1 x2 x3; gens: x1^2 + x2*x3, x2^2",
    "ring x1 x2 x3 x4; gens: 2233*x1^2 + x2*x3 - 77*x4^2, "
    "x1*x4 + 19*x2^2 - x3^2, x1^3 + 5*x2^2*x4 - 8*x3^3 + x2*x3*x4"])
def test_cancellation_on_complete_intersections(J, char):
    # two and three forms in 3 and 4 variables: their tables are the Koszul
    # ones, which have fewer cells than the initial ideals', so some c_i > 0
    J = parse_ideal_file(J, char=char)[1]
    inI = initial_ideal(groebner_basis(J, DegRevLexOrder()))
    T = betti_table(J)
    assert T.entries != betti_table(inI).entries
    assert T.entries == all_cells_table(J)
    assert sum(T.entries.values()) == 2 ** len(J.generators) - 1


@pytest.mark.parametrize("text, delta", [
    # in(I)'s cells (1, 3) and (2, 3) are both 1; I keeps both (c_2 = 0)
    ("ring x1 x2 x3; gens: x1^2, x1*x2, x2^3 + x3^3", -1),
    # the same cells, which I cancels (c_2 = 1)
    ("ring x1 x2 x3; gens: x1^2 + x2*x3, x2^2", 1)])
def test_koszul_rank_off_by_one_raises(monkeypatch, text, delta):
    real = resolution._koszul_ranks
    ranked = []

    def off_by_one(G):
        rank = real(G)

        def wrong(i, j):
            ranked.append((i, j))
            return rank(i, j) + delta * ((i, j) == (2, 3))
        return wrong

    monkeypatch.setattr(resolution, "_koszul_ranks", off_by_one)
    with pytest.raises(RuntimeError,
                       match=r"Koszul rank inconsistency at cell \(2, 3\)"):
        betti_table(ideal(text))
    assert ranked[-1] == (2, 3)


# ---------------------------------------------------------------------------
# the regular section: trailing variables that in(I) does not involve

def generic_forms(l, degrees, char, seed):
    """Dense random forms of the given degrees in x1..xl."""
    ring = make_ring([f"x{i + 1}" for i in range(l)], char=char)
    rng = random.Random(seed)
    return IdealPresentation.from_polynomials(ring, [
        random_form(ring, DegRevLexOrder(), d, rng) for d in degrees])


@st.composite
def section_ideals(draw, qq_limits=(4, 2)):
    """r < l dense random forms of degrees 1-3 in 3-5 variables over GF(2),
    GF(32003) or QQ, so R/I has positive dimension and its trailing
    variables are often regular.  Over QQ at most qq_limits[0] variables
    and degree qq_limits[1]: the all-cells oracle ranks in the full ring,
    where Fractions are slow."""
    char = draw(st.sampled_from(CANCEL_CHARS))
    most, top = qq_limits if char == 0 else (5, 3)
    l = draw(st.integers(3, most))
    degrees = draw(st.lists(st.integers(1, top), min_size=1, max_size=l - 1))
    return generic_forms(l, degrees, char, draw(st.integers(0, 2 ** 32)))


def table_and_cut(J):
    """(betti_table(J), how many variables its regular section dropped)."""
    real, cut = resolution._regular_section, []

    def spy(G, M):
        out = real(G, M)
        cut.append(G.ring.nvars - out[0].ring.nvars)
        return out

    with mock.patch.object(resolution, "_regular_section", spy):
        T = betti_table(J)
    return T, sum(cut)


@given(section_ideals())
@settings(max_examples=60, deadline=None)
def test_section_matches_the_all_cells_route(J):
    # the oracle ranks every cell in the full ring, before the section
    T, cut = table_and_cut(J)
    event(f"variables dropped: {cut}")
    assert T.entries == all_cells_table(J)


@pytest.mark.parametrize("char", CANCEL_CHARS)
def test_section_drops_variables_of_generic_forms(char):
    # the section is taken on generic input, not only on crafted ideals
    cuts = []
    for seed in range(6):
        J = generic_forms(3 + seed % 3, [2] * (1 + seed % 2), char, seed)
        T, cut = table_and_cut(J)
        assert T.entries == all_cells_table(J)
        cuts.append(cut)
    assert max(cuts) >= 1


CI_TABLE = {(0, 2): 2, (1, 4): 1}


@pytest.mark.parametrize("text, char, kept, entries", [
    # x1 is in in(I): no cut
    ("ring x1 x2 x3; gens: x1^2, x1*x2, x2^3 + x3^3", 32003, 3,
     {(0, 2): 2, (0, 3): 1, (1, 3): 1, (1, 5): 2, (2, 6): 1}),
    # in(I) = (x3^2, x2*x3, x2^3): the cut stops after x1, and the section
    # cancels cells (0, 3) and (1, 3) of in(I)'s table by a Koszul rank
    ("ring x1 x2 x3; gens: x3^2 + x2^2 + x1*x2, x2*x3 + x2^2 + x1^2",
     32003, 2, CI_TABLE),
    ("ring x1 x2 x3; gens: x3^2 + x2^2 + x1*x2, x2*x3 + x2^2 + x1^2",
     0, 2, CI_TABLE),
    # over GF(2) the same ideal has x1 in in(I)
    ("ring x1 x2 x3; gens: x3^2 + x2^2 + x1*x2, x2*x3 + x2^2 + x1^2",
     2, 3, CI_TABLE),
    # in(I) = (x4^2, x3*x4, x3^3) cuts two variables; over GF(2)
    # in(I) = (x4^2, x3*x4, x2*x3^2) cuts x1 only
    ("ring x1 x2 x3 x4; gens: x4^2 + x3^2 + x2*x3 + x1*x4, "
     "x3*x4 + x3^2 + x2^2 + x1^2", 32003, 2, CI_TABLE),
    ("ring x1 x2 x3 x4; gens: x4^2 + x3^2 + x2*x3 + x1*x4, "
     "x3*x4 + x3^2 + x2^2 + x1^2", 0, 2, CI_TABLE),
    ("ring x1 x2 x3 x4; gens: x4^2 + x3^2 + x2*x3 + x1*x4, "
     "x3*x4 + x3^2 + x2^2 + x1^2", 2, 3, CI_TABLE)])
def test_section_cuts_the_trailing_regular_variables(text, char, kept,
                                                     entries):
    J = parse_ideal_file(text, char=char)[1]
    T, cut = table_and_cut(J)
    assert J.ring.nvars - cut == kept
    assert T.entries == entries == all_cells_table(J)


def test_section_with_a_monomial_basis_takes_the_monomial_engine(
        monkeypatch):
    # G = {x3^2, x2^2 + x1*x3} is not all monomials; its section
    # {x3^2, x2^2} in K[x2, x3] is, so no Koszul differential is set up
    def no_koszul(*args):
        raise AssertionError("the total-degree engine ran")

    J = ideal("ring x1 x2 x3; gens: x2^2 + x1*x3, x3^2")
    assert not all(len(g.terms) == 1 for g in
                   groebner_basis(J, DegRevLexOrder()).generators)
    monkeypatch.setattr(resolution, "_koszul_ranks", no_koszul)
    T, cut = table_and_cut(J)
    assert cut == 1 and T.entries == CI_TABLE


@given(section_ideals(qq_limits=(5, 3)))
@settings(max_examples=60, deadline=None)
def test_section_of_the_basis_is_the_basis_of_the_section(J):
    # proof step 4: setting the cut variables to 0 in the reduced basis
    # gives the reduced basis of the generators with those variables at 0
    G = groebner_basis(J, DegRevLexOrder())
    M = initial_ideal(G)
    assume(not contains_by_scan(M, (0,) * J.ring.nvars))
    Gs, Ms = resolution._regular_section(G, M)
    k = J.ring.nvars - Gs.ring.nvars
    assert Gs.ring.names == J.ring.names[k:]
    cut = [Polynomial.from_terms(Gs.ring, DegRevLexOrder(),
                                 [(c, m[k:]) for c, m in f.terms
                                  if not any(m[:k])])
           for f in J.generators]
    assert Gs == groebner_basis(
        IdealPresentation.from_polynomials(Gs.ring, cut), DegRevLexOrder())
    assert Gs.reduced
    assert Ms == initial_ideal(Gs)


def test_regularity_matches_initial_ideal_for_monomial():
    M = mi(R3, (2, 1, 0), (0, 0, 3))
    assert regularity(M) == betti_table(M).regularity()


def test_nonhomogeneous_rejected():
    J = ideal("ring x1 x2; gens: x1^2 + x2")
    with pytest.raises(ValueError, match="homogeneous"):
        betti_table(J)


def test_zero_and_unit_ideal():
    J = ideal("ring x1 x2; gens: x1 - x1")
    assert betti_table(J).entries == {}
    with pytest.raises(ValueError):
        regularity(J)
    U = ideal("ring x1 x2; char 0; gens: x1, 2")
    with pytest.raises(ValueError, match="unit"):
        betti_table(U)
    # the generator 1 involves no variable, so a regular section taken
    # before the check would cut every variable
    U = ideal("ring x1 x2 x3; gens: x2^2 + x1*x3, 5")
    with pytest.raises(ValueError, match="unit"):
        betti_table(U)
    # the monomial route refuses the unit ideal as the presentation route
    # does; only the zero ideal has the empty table
    with pytest.raises(ValueError, match="unit"):
        betti_table(mi(R2, (0, 0)))
    assert betti_table(mi(R2)).entries == {}


# ---------------------------------------------------------------------------
# the power-map Betti relation

def test_check_flat_monomial_ci():
    M = mi(R2, (2, 0), (0, 2))
    rep = verify_regflat(M, 2)
    assert rep.status == "pass"
    v = rep.instances[0].values
    assert v["reg"] == 3 and v["reg_prime"] == 7 and v["p"] == 1


def test_check_flat_principal_scales_exactly():
    M = mi(R3, (1, 1, 1))
    for d in (2, 3):
        rep = verify_regflat(M, d)
        assert rep.status == "pass"
        v = rep.instances[0].values
        assert v["p"] == 0
        assert v["reg_prime"] == d * v["reg"]
        from fractions import Fraction
        assert Fraction(v["eq1_gap"]) == 0


def test_check_flat_general_ideal():
    J = ideal("ring x1 x2 x3; gens: x1*x3 - x2^2, x1^2*x2")
    rep = verify_regflat(J, 2)
    assert rep.status == "pass"


def test_t_invariants_p_index():
    # the strictness example: t = (2,4,5,5,6), reg 3, p = 2
    R5 = make_ring([f"x{i}" for i in range(1, 6)])
    M = MonomialIdeal.from_monomials(
        R5, [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0),
             (1, 0, 0, 1, 0), (1, 0, 0, 0, 1), (0, 2, 0, 0, 0),
             (0, 0, 2, 0, 0)])
    T = betti_table(M)
    ts, p = t_invariants(T)
    assert ts == (2, 4, 5, 5, 6)
    assert T.regularity() == 3
    assert p == 2


@pytest.mark.parametrize("entries", [{}, {(0, 2): 0}])
def test_zero_table_has_no_invariants(entries):
    # the zero ideal's table has no nonzero cell: every invariant refuses
    # it as regularity does, not with max() of an empty sequence
    T = BettiTable(entries, 32003)
    for invariant in (T.regularity, T.pdim, T.t_sequence,
                      lambda: t_invariants(T)):
        with pytest.raises(ValueError, match="zero ideal is undefined"):
            invariant()


def test_betti_table_quotient_side():
    from regcert.resolution import monomial_quotient_betti
    M = mi(R2, (2, 0), (0, 2))
    q = monomial_quotient_betti(M, R2.field)
    assert q == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert betti_table(M).entries == {(i - 1, j): v for (i, j), v in q.items()
                                      if i}


# ---------------------------------------------------------------------------
# the pattern-grouped Koszul engine against the per-monomial oracle

FIELDS = [PrimeField(2), PrimeField(32003), QQ]


@st.composite
def monomial_ideals(draw):
    """Generators as given, in 1-5 variables: the zero ideal, the unit
    ideal, redundant generators and exponents at the box edge all occur."""
    l = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 3)] * l)
    gens = draw(st.lists(exps, max_size=6))
    if gens:
        extra = st.tuples(st.sampled_from(gens), exps)
        gens += [tuple(a + b for a, b in zip(g, e))
                 for g, e in draw(st.lists(extra, max_size=2))]
    return MonomialIdeal(make_ring([f"x{i + 1}" for i in range(l)]),
                         tuple(gens))


@given(monomial_ideals(), st.sampled_from(FIELDS))
@settings(max_examples=150, deadline=None)
def test_monomial_betti_matches_per_monomial_oracle(M, field):
    assert resolution.monomial_quotient_betti(M, field) == \
        monomial_quotient_betti_by_monomial(M, field)


def test_monomial_betti_oracle_edge_cases():
    R = make_ring(["x1", "x2"])
    for gens in [(), ((0, 0),), ((0, 1),), ((2, 0), (2, 1), (0, 3)),
                 ((1, 1), (1, 1))]:
        M = MonomialIdeal(R, gens)
        for field in FIELDS:
            assert resolution.monomial_quotient_betti(M, field) == \
                monomial_quotient_betti_by_monomial(M, field)


@pytest.mark.parametrize("l", [6, 7])
def test_monomial_betti_with_words_wider_than_64_bits(l):
    # the membership word has 2^l bits: 64 at l = 6, 128 at l = 7
    R = make_ring([f"x{i + 1}" for i in range(l)])
    rng = random.Random(l)
    ideals = [
        [tuple(int(i == k) for i in range(l)) for k in range(l)],
        [tuple(2 * int(i == k) for i in range(l)) for k in range(l)],
        [tuple(int(i in (k, (k + 1) % l)) for i in range(l))
         for k in range(l)],
        [tuple(rng.randint(0, 2) for _ in range(l)) for _ in range(5)],
    ]
    # over QQ at l = 6 only: rational ranks of the many 7-vertex complexes
    # of l = 7 take seconds
    for gens in ideals:
        M = MonomialIdeal(R, tuple(gens))
        for field in (R.field, QQ)[:8 - l]:
            q = resolution.monomial_quotient_betti(M, field)
            assert q == monomial_quotient_betti_by_monomial(M, field)
    # the maximal ideal: the Koszul complex, beta_i = C(l, i) in degree i
    M = MonomialIdeal(R, tuple(ideals[0]))
    assert resolution.monomial_quotient_betti(M, R.field) == \
        {(i, i): math.comb(l, i) for i in range(l + 1)}


def test_monomial_betti_with_box_codes_beyond_int64():
    # (x_k^N, x_i x_j) in five variables: the box has (N + 2)^5 cells, and
    # the code of x_5^(N - 1) passes 2^63, so the codes are Python ints
    N = 8191
    assert (N - 1) * (N + 2) ** 4 > 2 ** 63
    R5 = make_ring([f"x{i + 1}" for i in range(5)])

    def ideal_of(N):
        return MonomialIdeal(R5, tuple(
            [tuple(N * int(i == k) for i in range(5)) for k in range(5)]
            + [tuple(int(i in (a, b)) for i in range(5))
               for a in range(5) for b in range(a + 1, 5)]))

    M = ideal_of(N)
    q = resolution.monomial_quotient_betti(M, R5.field)
    betti_euler_check(M, R5.field, q)
    # the same table as at N = 8, the cells of the pure powers shifted
    small = monomial_quotient_betti_by_monomial(ideal_of(8), R5.field)
    assert q == {(i, j + (N - 8) * (j >= 8)): v
                 for (i, j), v in small.items()}
