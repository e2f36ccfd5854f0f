"""Hilbert functions, Macaulay arithmetic, lex segments, and G-values."""

import math
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from regcert.monomials import (HilbertSeries, MacaulayViolation, MonomialIdeal,
                               _lex_run, _macaulay_runs, _segment_sizes,
                               ci_hilbert_function, ci_lex_ideal,
                               compute_G, g_cap, hilbert_function,
                               is_strongly_stable, lex_segment_ideal,
                               lex_unrank, macaulay_growth,
                               minimalize_monomials, monomials_of_degree,
                               num_monomials, stable_regularity)
from regcert.rings import LexOrder, make_ring

from oracles import (contains_by_scan, dims_by_binomials,
                     hilbert_function_incl_excl, lex_rank,
                     lex_scan_by_unrank, lex_shadow_size_linear,
                     lex_unrank_linear, macaulay_growth_linear,
                     macaulay_rep_linear, monomials_of_degree_recursive,
                     scan_bound_by_terms, segment_generators_by_unrank,
                     series_of_dims)

R3 = make_ring(["x1", "x2", "x3"])
RINGS = {l: make_ring([f"x{i + 1}" for i in range(l)]) for l in range(1, 6)}


def mi(*gens, ring=R3):
    return MonomialIdeal.from_monomials(ring, gens)


def series_of_ideal_dims(ideal_dims, nvars):
    """The series whose ideal-side dimensions are ideal_dims through their
    last degree, and whose quotient is 0 above it."""
    return series_of_dims([num_monomials(nvars, t) - N
                           for t, N in enumerate(ideal_dims)], nvars)


def walk_shadow(N, t, nvars):
    """The shadow of the degree-t lex segment of size N, as the segment
    walk yields it in degree t + 1: the ideal is 0 below t and takes every
    monomial of degree t + 1."""
    h = series_of_ideal_dims([0] * t + [N, num_monomials(nvars, t + 1)],
                             nvars)
    *_, (_, shadow, _) = _segment_sizes(h, t + 1)
    return shadow


def macaulay_rep(N, t):
    """The t-th Macaulay representation [(a_i, i)] of N, a_t > ... >= i >= 1,
    assembled from the runs a_i = i + c of monomials._macaulay_runs."""
    return [(i + c, i) for c, s, e in _macaulay_runs(N, t)
            for i in range(e, s - 1, -1)]


def test_minimalize():
    assert minimalize_monomials([(2, 0), (2, 1), (0, 3)]) == [(2, 0), (0, 3)]


def test_monomial_ideal_basics():
    M = mi((2, 0, 0), (0, 1, 1))
    assert contains_by_scan(M, (3, 1, 1))
    assert not contains_by_scan(M, (1, 1, 0))
    assert M.max_gen_degree() == 2
    assert not M.is_zero()
    assert mi().is_zero()
    assert mi((0, 0, 0), (1, 2, 0)).gens == ((0, 0, 0),)


def stable_by_all_moves(M):
    """Oracle: every move x_k -> x_j, k < j, on every generator stays in
    the ideal, tested by the linear scan."""
    for u in M.gens:
        for k in range(M.nvars):
            for j in range(k + 1, M.nvars):
                if u[k] and not contains_by_scan(M, tuple(
                        x - 1 if i == k else x + 1 if i == j else x
                        for i, x in enumerate(u))):
                    return False
    return True


def borel_closure(monos, nvars):
    """All monomials reachable from monos by moves x_k -> x_j, k < j."""
    seen, todo = set(monos), list(monos)
    while todo:
        u = todo.pop()
        for k in range(nvars):
            for j in range(k + 1, nvars):
                if u[k]:
                    v = tuple(x - 1 if i == k else x + 1 if i == j else x
                              for i, x in enumerate(u))
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
    return seen


@st.composite
def monomial_ideals(draw, max_exp=3, max_gens=6, max_vars=5):
    """(ring, monomial ideal) over 1 to max_vars variables, zero and unit
    ideals included."""
    l = draw(st.integers(1, max_vars))
    mono = st.tuples(*[st.integers(0, max_exp)] * l)
    gens = draw(st.lists(mono, max_size=max_gens))
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * l)
    return RINGS[l], MonomialIdeal.from_monomials(RINGS[l], gens)


@given(monomial_ideals(max_exp=2, max_gens=3), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_is_strongly_stable_matches_all_moves(ideal, variant):
    ring, M = ideal
    if variant:  # strongly stable, or one generator short of it
        closed = MonomialIdeal.from_monomials(
            ring, borel_closure(M.gens, ring.nvars))
        M = MonomialIdeal.from_monomials(ring, closed.gens[variant - 1:])
    assert is_strongly_stable(M) == stable_by_all_moves(M)


@st.composite
def generating_lists(draw, max_exp=2, max_vars=4):
    """(ring, monomials): an unsorted generating list as MonomialIdeal takes
    it without minimalizing, with repeats, multiples of other entries and
    sometimes 1.  Half are drawn from a Borel closure, so that strongly
    stable ideals come up."""
    l = draw(st.integers(1, max_vars))
    mono = st.tuples(*[st.integers(0, max_exp)] * l)
    gens = draw(st.lists(mono, min_size=1, max_size=3))
    if draw(st.booleans()):
        closed = sorted(borel_closure(gens, l))
        gens = draw(st.lists(st.sampled_from(closed), min_size=1,
                             max_size=len(closed) + 2))
    factors = draw(st.lists(st.tuples(st.sampled_from(gens), mono),
                            max_size=3))
    gens += [tuple(map(sum, zip(g, f))) for g, f in factors]
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * l)
    return RINGS[l], draw(st.permutations(gens))


@given(generating_lists())
@example((R3, [(2, 1, 0), (0, 0, 0), (1, 2, 0)]))  # the unit ideal
@example((RINGS[2], [(0, 1), (1, 0), (0, 2)]))  # x2 and x2^2 share a tail
@example((R3, [(0, 0, 1), (0, 0, 1), (1, 0, 1)]))  # head past the move
@settings(max_examples=300, deadline=None)
def test_is_strongly_stable_on_any_generating_list(ideal):
    # strong stability belongs to the ideal, so the oracle scans the
    # minimal generators; the check reads the list as given
    ring, gens = ideal
    M = MonomialIdeal(ring, tuple(gens))
    assert is_strongly_stable(M) == stable_by_all_moves(
        MonomialIdeal.from_monomials(ring, gens))


@given(monomial_ideals(), st.integers(0, 7))
@settings(max_examples=100)
def test_lex_segment_generators_are_minimal_and_sorted(ideal, D):
    ring, M = ideal
    L, _ = lex_segment_ideal(hilbert_function(M), ring, D)
    assert set(minimalize_monomials(L.gens)) == set(L.gens)
    assert list(L.gens) == sorted(L.gens, key=LexOrder().key, reverse=True)
    assert hilbert_function(L).dims(D) == hilbert_function(M).dims(D)


def hf_enumeration(M, D):
    """Brute-force quotient Hilbert function."""
    dims = []
    for t in range(D + 1):
        dims.append(sum(1 for m in monomials_of_degree_recursive(M.nvars, t)
                        if not contains_by_scan(M, m)))
    return tuple(dims)


monoset = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    min_size=1, max_size=5)


@given(monoset)
@settings(max_examples=60)
def test_hilbert_function_three_routes(gens):
    M = mi(*gens)
    if M.gens == ((0, 0, 0),):
        return
    h = hilbert_function(M).dims(8)
    assert h == hf_enumeration(M, 8)
    assert h == hilbert_function_incl_excl(M, 8)


def test_hilbert_series_equality_is_all_degree():
    # (x3) and (x3, x2^40) agree through degree 39 and differ at 40
    short, long = hilbert_function(mi((0, 0, 1))), \
        hilbert_function(mi((0, 0, 1), (0, 40, 0)))
    assert short.dims(39) == long.dims(39) and short != long
    assert short.dims(40)[-1] == long.dims(40)[-1] + 1
    # x1^6 and x2^6 differ as ideals, not as series
    assert hilbert_function(mi((6, 0, 0))) == hilbert_function(mi((0, 6, 0)))
    # trailing zeros are trimmed; the unit ideal has numerator 0
    assert HilbertSeries((1, 0, 0), 3) == HilbertSeries((1,), 3)
    assert hilbert_function(mi((0, 0, 0))).numerator == ()
    assert hilbert_function(mi((0, 0, 0))).dims(2) == (0, 0, 0)


def test_hf_of_homogeneous_matches_monomial_route():
    from regcert.groebner import groebner_basis, initial_ideal
    from regcert.parser import parse_ideal_file
    from regcert.rings import DegRevLexOrder
    _, J, _ = parse_ideal_file(
        "ring x1 x2 x3; gens: x1*x2 + x3^2, x2^2 - x1*x3")
    # HF(R/J) = HF(R/in(J))
    h = hilbert_function(
        initial_ideal(groebner_basis(J, DegRevLexOrder())))
    # two generic quadrics in 3 variables: a (2,2) complete intersection
    assert h == ci_hilbert_function(2, 2, 1)


@given(st.integers(1, 6), st.integers(0, 12),
       st.lists(st.integers(-50, 50), max_size=20))
@example(3, 5, [])
@example(2, 4, [0, 0, 0])
@example(2, 2, [1, -2, 1, 5, -7, 3])
@settings(max_examples=200, deadline=None)
def test_streamed_dims_match_the_binomial_sums(nvars, D, numerator):
    # numerators longer than D + 1, with negative coefficients, and the
    # zero series (an empty or all-zero list)
    h = HilbertSeries(tuple(numerator), nvars)
    dims = h.dims(D)
    assert dims == dims_by_binomials(h, D)
    assert list(islice(h.quotient_dims(), D + 1)) == list(dims)
    # series_of_dims inverts dims: the series of dims agrees with h
    # through D and is 0 above it
    assert series_of_dims(dims, nvars).dims(D + 3) == dims + (0, 0, 0)


def test_ci_hilbert_function_small():
    # K[x,y]/(x^2, y^2): dims 1,2,1
    assert ci_hilbert_function(2, 2, 0).dims(4) == (1, 2, 1, 0, 0)
    # one quadric in 2 variables
    assert ci_hilbert_function(1, 2, 1).dims(4) == (1, 2, 2, 2, 2)


def test_macaulay_rep_and_growth():
    # classical: 5 = C(3,2) + C(2,1) at t=2, growth C(4,3)+C(3,2) = 7
    assert macaulay_rep(5, 2) == [(3, 2), (2, 1)]
    assert macaulay_growth(5, 2) == 7
    assert macaulay_growth(0, 3) == 0
    with pytest.raises(ValueError):
        macaulay_rep(-1, 2)


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_lex_shadow_size_against_enumeration(nvars, t):
    monos = monomials_of_degree_recursive(nvars, t)
    for N in range(len(monos) + 1):
        segment = monos[:N]
        shadow = set()
        for m in segment:
            for k in range(nvars):
                shadow.add(tuple(e + 1 if i == k else e
                                 for i, e in enumerate(m)))
        assert walk_shadow(N, t, nvars) == len(shadow)


def test_lex_shadow_degree_zero():
    assert walk_shadow(1, 0, 3) == 3
    assert walk_shadow(0, 0, 3) == 0


def test_lex_rank_unrank_roundtrip():
    for nvars, t in [(2, 3), (3, 4), (4, 3)]:
        monos = monomials_of_degree_recursive(nvars, t)
        for r, m in enumerate(monos):
            assert lex_unrank(nvars, t, r) == m
            assert lex_rank(m) == r


def test_monomials_of_degree_descending_lex():
    from regcert.rings import LexOrder
    lex = LexOrder()
    monos = monomials_of_degree(3, 3)
    assert len(monos) == num_monomials(3, 3)
    keys = [lex.key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)


def lex_ideal_enumeration(ideal_dims, ring):
    """Oracle: take the lexicographically largest dims[t] monomials in
    each degree and minimalize."""
    gens = []
    for t, N in enumerate(ideal_dims):
        gens.extend(monomials_of_degree_recursive(ring.nvars, t)[:N])
    return MonomialIdeal.from_monomials(ring, gens)


def test_lex_segment_ideal_against_enumeration():
    M = mi((2, 0, 0), (0, 2, 0), (1, 1, 0))
    h = hilbert_function(M)
    L, complete = lex_segment_ideal(h, R3, 7)
    oracle = lex_ideal_enumeration(
        [num_monomials(3, t) - q for t, q in enumerate(h.dims(7))], R3)
    assert L.gens == oracle.gens
    assert complete


def test_lex_segment_preserves_hilbert_function():
    M = mi((1, 1, 0), (0, 0, 2), (3, 0, 0))
    h = hilbert_function(M)
    L, _ = lex_segment_ideal(h, R3, 9)
    assert hilbert_function(L).dims(9) == h.dims(9)


def test_macaulay_violation():
    # ideal-side dims (0, 0, 1, 0): an ideal element in degree 2 forces
    # growth in 3
    h = series_of_dims((1, 3, 5, 10), 3)
    with pytest.raises(MacaulayViolation) as exc:
        lex_segment_ideal(h, R3, 3)
    assert exc.value.degree == 3


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("t", [0, 1, 2, 5])
def test_monomials_of_degree_against_recursion(nvars, t):
    assert monomials_of_degree(nvars, t) == \
        monomials_of_degree_recursive(nvars, t)


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def check_macaulay_arithmetic(nvars, t, N):
    assert outcome(macaulay_rep, N, t) == outcome(macaulay_rep_linear, N, t)
    if t >= 1:
        assert macaulay_growth(N, t) == macaulay_growth_linear(N, t)
    if N <= num_monomials(nvars, t):
        assert walk_shadow(N, t, nvars) == lex_shadow_size_linear(N, t, nvars)
    else:
        # a segment larger than its degree is refused where it stands
        with pytest.raises(MacaulayViolation) as exc:
            walk_shadow(N, t, nvars)
        assert exc.value.degree == t


@given(st.integers(1, 7), st.integers(0, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_macaulay_arithmetic_against_linear_search(nvars, t, data):
    full = num_monomials(nvars, t)
    for N in {0, max(full - 1, 0), full, full + 1,
              data.draw(st.integers(0, full))}:
        check_macaulay_arithmetic(nvars, t, N)


@given(st.integers(1, 7), st.integers(61, 5000), st.data())
@settings(max_examples=25, deadline=None)
def test_macaulay_arithmetic_deep_degrees(nvars, t, data):
    full = num_monomials(nvars, t)
    check_macaulay_arithmetic(nvars, t, data.draw(st.integers(0, full)))


def test_macaulay_rep_edges():
    assert macaulay_rep(0, 0) == [] and macaulay_growth(0, 0) == 0
    assert macaulay_rep(1, 1) == [(1, 1)]
    assert macaulay_rep(7, 1) == [(7, 1)]  # one run reaching index 1
    # C(5,3) + C(4,2) + C(2,1): runs of offset 2 (twice) and 1
    assert macaulay_rep(18, 3) == [(5, 3), (4, 2), (2, 1)]
    with pytest.raises(ValueError, match="no Macaulay representation"):
        macaulay_rep(3, 0)


@given(st.integers(1, 7), st.integers(0, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_lex_unrank_against_linear_search(nvars, t, data):
    full = num_monomials(nvars, t)
    for r in {0, full - 1, data.draw(st.integers(0, full - 1))}:
        assert lex_unrank(nvars, t, r) == lex_unrank_linear(nvars, t, r)
    for r in (-1, full):
        with pytest.raises(ValueError):
            lex_unrank(nvars, t, r)


@given(st.integers(1, 7), st.integers(0, 400), st.data())
@settings(max_examples=150, deadline=None)
def test_successor_steps_match_unranking(nvars, t, data):
    full = num_monomials(nvars, t)
    r = data.draw(st.sampled_from([0, full - 1]) | st.integers(0, full - 1))
    stop = min(full, r + 1 + data.draw(st.integers(0, 40)))
    assert _lex_run(nvars, t, r, stop) == \
        [lex_unrank_linear(nvars, t, j) for j in range(r, stop)]
    assert _lex_run(nvars, t, r, r) == []


# the `main` benchmark ladder, (n, m, d) as on the command line
MAIN_LADDER = [(2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3), (3, 3, 2)]


def ideal_dims(h, D):
    return [num_monomials(h.nvars, t) - q for t, q in enumerate(h.dims(D))]


def ci_ideal_dims(n, m, d):
    h = ci_hilbert_function(n, d, m)
    return h, ideal_dims(h, g_cap(n, d, m) + 2)


@pytest.mark.parametrize("n,m,d", MAIN_LADDER)
def test_lex_scan_matches_unranking_oracle_on_main_ladder(n, m, d):
    # the scan stops at the scan bound; the oracle goes on to the cap
    # plus 2 and finds nothing more
    h, dims = ci_ideal_dims(n, m, d)
    ring = make_ring([f"x{i + 1}" for i in range(n + m)])
    L, complete = lex_segment_ideal(h, ring, h.scan_bound())
    oracle = lex_scan_by_unrank(dims, n + m)
    assert L.gens == oracle
    assert complete
    # the count-only G is the oracle's largest generator degree
    assert compute_G(n, d, m) == max(map(sum, oracle))


def test_the_count_holds_no_list_of_the_segment_sizes():
    # (n,d,m) = (4,3,2) walks 2,998 degrees, B = 2,997; two length-B
    # lists of dimensions took 0.24 MB, the stream a few KB
    assert ci_hilbert_function(4, 3, 2).scan_bound() == 2997
    tracemalloc.start()
    try:
        assert compute_G.__wrapped__(4, 3, 2) == 2997
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def segment_generators(dims, nvars):
    """The (degree, generators) pairs of the segment-size walk over the
    series with ideal-side dimensions dims."""
    return ((t, _lex_run(nvars, t, sh, N)) for t, sh, N in
            _segment_sizes(series_of_ideal_dims(dims, nvars), len(dims) - 1))


def scan_outcome(scan, dims, nvars):
    """The (degree, generators) pairs of a scan, or the degree and message
    of the MacaulayViolation it raises."""
    try:
        return list(scan(dims, nvars))
    except MacaulayViolation as exc:
        return exc.degree, str(exc)


@pytest.mark.parametrize("n,m,d", MAIN_LADDER[:4])
def test_unachievable_ladder_series_raise_as_oracle(n, m, d):
    _, dims = ci_ideal_dims(n, m, d)
    l = n + m
    short = lex_shadow_size_linear(dims[d + 1], d + 1, l) - 1
    for t, change in [(d + 1, 0), (d + 3, 0), (d + 2, short),
                      (d, num_monomials(l, d) + 1)]:
        bad = dims[:t] + [change] + dims[t + 1:]
        degree, message = scan_outcome(segment_generators, bad, l)
        assert degree == t
        assert (degree, message) == \
            scan_outcome(segment_generators_by_unrank, bad, l)
        h = series_of_ideal_dims(bad, l)
        with pytest.raises(MacaulayViolation) as exc:
            lex_segment_ideal(h, make_ring([f"x{i + 1}" for i in range(l)]),
                              len(bad) - 1)
        assert (exc.value.degree, str(exc.value)) == (degree, message)


@given(st.integers(1, 4), st.lists(st.integers(0, 40), min_size=1,
                                    max_size=9))
@settings(max_examples=200, deadline=None)
def test_segment_generators_match_oracle_on_any_sequence(nvars, raw):
    dims = [min(x, num_monomials(nvars, t) + 1) for t, x in enumerate(raw)]
    assert scan_outcome(segment_generators, dims, nvars) == \
        scan_outcome(segment_generators_by_unrank, dims, nvars)


def test_a_quotient_above_its_degree_is_refused_where_it_stands():
    # q_1 = 3 exceeds the 2 monomials of degree 1, so N = -1; it is
    # refused as a segment out of range, before the shadow 2 of the unit
    # ideal's degree-0 part is compared
    degree, message = scan_outcome(segment_generators, [1, -1], 2)
    assert (degree, message) == \
        scan_outcome(segment_generators_by_unrank, [1, -1], 2)
    assert degree == 1 and message.endswith(
        "size -1 at degree 1 cannot contain the 0 multiples of the "
        "previous segment")


def test_strong_stability():
    # x2^2, x2x1, x1^3 is the lex ideal from the two-squares example
    R2 = make_ring(["x1", "x2"])
    L = MonomialIdeal.from_monomials(R2, [(0, 2), (1, 1), (3, 0)])
    assert is_strongly_stable(L)
    assert stable_regularity(L) == 3
    # x1^2 alone is not stable in two variables (swap x1 -> x2 leaves)
    N = MonomialIdeal.from_monomials(R2, [(2, 0)])
    assert not is_strongly_stable(N)
    with pytest.raises(ValueError):
        stable_regularity(N)


def test_lex_ideals_are_strongly_stable():
    M = mi((1, 1, 1), (0, 3, 0))
    L, _ = lex_segment_ideal(hilbert_function(M), R3, 10)
    assert is_strongly_stable(L)


def test_scan_bound_examples():
    R2 = make_ring(["x1", "x2"])
    # lex of (x3, x2^40) ends in x2^40: P = 40, so r = 40
    assert hilbert_function(mi((0, 0, 1), (0, 40, 0))).scan_bound() == 40
    # Artinian: P = 0 and B = t0; the lex ideal x2^2, x1*x2, x1^3
    assert hilbert_function(
        MonomialIdeal.from_monomials(R2, [(2, 0), (0, 2)])).scan_bound() == 3
    # a plane curve of degree 5: P(t) = 5t - 5, r = 5
    assert hilbert_function(mi((0, 0, 5))).scan_bound() == 5
    assert hilbert_function(mi()).scan_bound() == 1
    assert hilbert_function(mi((0, 0, 0))).scan_bound() == 0
    with pytest.raises(ValueError, match="not the Hilbert series"):
        HilbertSeries((1, -2), 2).scan_bound()


@given(monomial_ideals())
@settings(max_examples=150, deadline=None)
def test_scan_bound_matches_term_by_term_oracle(ideal):
    ring, M = ideal
    top = sum(max((g[k] for g in M.gens), default=0)
              for k in range(ring.nvars))  # degree of the lcm of M.gens
    dims = hilbert_function_incl_excl(M, top + ring.nvars + 1)
    assert hilbert_function(M).scan_bound() == \
        scan_bound_by_terms(dims, ring.nvars)


@given(monomial_ideals(max_vars=4))
@settings(max_examples=150, deadline=None)
def test_no_lex_generator_above_the_scan_bound(ideal):
    ring, M = ideal
    h = hilbert_function(M)
    B = h.scan_bound()
    L, complete = lex_segment_ideal(h, ring, B + 5)
    assert complete and L.max_gen_degree() <= B
    assert lex_segment_ideal(h, ring, B) == (L, True)
    assert hilbert_function(L) == h


def test_g_cap():
    assert g_cap(2, 2, 1) == 4
    assert g_cap(3, 3, 2) == 729
    assert g_cap(2, 2, 0) == 4


G_TABLE = {
    (1, 2, 1): 2, (1, 3, 1): 3, (1, 4, 1): 4, (1, 2, 2): 2,
    (2, 2, 0): 3, (2, 2, 1): 4, (2, 2, 2): 6,
    (2, 3, 0): 5, (2, 3, 1): 9, (2, 3, 2): 27,
    (3, 2, 0): 4, (3, 2, 1): 8, (3, 2, 2): 24,
    (3, 3, 0): 7, (3, 3, 1): 27,
}


@pytest.mark.parametrize("key,expected", sorted(G_TABLE.items()))
def test_compute_G_table(key, expected):
    n, d, m = key
    assert compute_G(n, d, m) == expected
    assert compute_G(n, d, m) == stable_regularity(ci_lex_ideal(n, d, m))


# insertion order fixes the test ids key0, key1, ...: append new shapes
G_TABLE_LARGER = {
    (2, 3, 3): 273, (3, 3, 2): 297, (4, 2, 2): 104, (5, 2, 2): 448,
    (3, 4, 2): 1792, (4, 3, 2): 2997, (2, 4, 3): 3304,
}


@pytest.mark.parametrize("key,expected", G_TABLE_LARGER.items())
def test_compute_G_table_larger(key, expected):
    n, d, m = key
    assert compute_G(n, d, m) == expected
    assert compute_G(n, d, m) == stable_regularity(ci_lex_ideal(n, d, m))


def test_ci_lex_ideal_is_stable_with_ci_hilbert_function():
    M = ci_lex_ideal(2, 2, 1)
    assert is_strongly_stable(M)
    assert hilbert_function(M) == ci_hilbert_function(2, 2, 1)


def test_num_monomials():
    assert num_monomials(3, 4) == math.comb(6, 2)
    assert num_monomials(3, -1) == 0
