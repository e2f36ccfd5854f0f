"""Verification pipelines and instance generators."""

import json
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from regcert.groebner import IdealPresentation, groebner_basis, initial_ideal
from regcert.instances import (random_form, random_ideal,
                               random_parametrisation)
from regcert.monomials import (HilbertSeries, MonomialIdeal, compute_G,
                               hilbert_function, monomials_of_degree,
                               num_monomials)
from regcert.parser import parse_ideal_file
from regcert.reports import VerificationReport
from regcert.resolution import BettiTable, matrix_rank
from regcert.rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial,
                           PowerMap, make_ring, mono_divides, mono_mul)
from regcert.verify import (_macaulay, hf_direct, lex_ideal_of_presentation,
                            verify_main, verify_main_trials,
                            verify_poweli_trials, verify_regbound,
                            verify_regbound_trials, verify_regflat)

from oracles import hf_direct_all_rows, macaulay_rows


def ideal(text):
    return parse_ideal_file(text)[1]


def param(text):
    return parse_ideal_file(text)[1]


# ---------------------------------------------------------------------------
# instance generators

def test_random_parametrisation_deterministic():
    a = random_parametrisation(2, 2, 2, seed=0)
    b = random_parametrisation(2, 2, 2, seed=0)
    assert [f.coeff_dict() for f in a.f] == [f.coeff_dict() for f in b.f]
    c = random_parametrisation(2, 2, 2, seed=1)
    assert [f.coeff_dict() for f in a.f] != [f.coeff_dict() for f in c.f]


def test_random_parametrisation_properties():
    for seed in range(5):
        p = random_parametrisation(3, 2, 3, seed=seed)
        assert all(f.degree() == 3 for f in p.f)
        assert all(not f.is_zero() for f in p.f)
        from regcert.rings import is_homogeneous
        assert all(is_homogeneous(f) == (True, 3) for f in p.f)


def test_random_ideal_deterministic_and_nonzero():
    a = random_ideal(3, seed=4)
    b = random_ideal(3, seed=4)
    assert [g.coeff_dict() for g in a.generators] == \
        [g.coeff_dict() for g in b.generators]
    assert all(not g.is_zero() for g in a.generators)
    h = random_ideal(3, seed=4, homogeneous=True)
    assert h.homogeneous


# ---------------------------------------------------------------------------
# direct Hilbert function

def test_hf_direct_matches_groebner_route():
    J = ideal("ring x1 x2 x3; gens: x1*x2 - x3^2, x2^2 - x1*x3")
    inJ = initial_ideal(groebner_basis(J, DegRevLexOrder()))
    assert hf_direct(J, 6) == hilbert_function(inJ).dims(6)


@st.composite
def small_homogeneous_ideals(draw, max_vars=3):
    """Sparse forms of degree 1-3 in 1-max_vars variables over GF(2),
    GF(32003), QQ, GF(2^31 - 1) and GF(2^61 - 1) on either side of the
    int64 limit of matrix_dtype, or GF(2^64 + 13), whose coefficients
    int64 cannot hold."""
    char = draw(st.sampled_from([2, 32003, 0, 2 ** 31 - 1, 2 ** 61 - 1,
                                 2 ** 64 + 13]))
    nvars = draw(st.integers(1, max_vars))
    ring = make_ring([f"x{i + 1}" for i in range(nvars)], char=char)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(nvars, draw(st.integers(1, 3)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1,
                               max_size=4, unique=True))
        terms = [(draw(st.integers(-5, 5)), m) for m in chosen]
        gens.append(Polynomial.from_terms(ring, DegRevLexOrder(), terms))
    J = IdealPresentation.from_polynomials(ring, gens)
    assume(not J.is_zero())
    return J


@given(small_homogeneous_ideals(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_hf_direct_matches_initial_ideal_route(J, D):
    inJ = initial_ideal(groebner_basis(J, DegRevLexOrder()))
    assert hf_direct(J, D) == hilbert_function(inJ).dims(D)


@st.composite
def row_cut_ideals(draw):
    """small_homogeneous_ideals in 1-4 variables, with a duplicated
    generator and a generator that shares another's degrevlex leading
    monomial drawn in, in shuffled order, each generator under degrevlex,
    lex or an elimination order: the cases the row cut of hf_direct
    meets."""
    J = draw(small_homogeneous_ideals(max_vars=4))
    ring, gens, drl = J.ring, list(J.generators), DegRevLexOrder()
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    if draw(st.booleans()):
        g = draw(st.sampled_from(gens))
        lm = max((m for _, m in g.terms), key=drl.key)
        lower = [m for m in monomials_of_degree(ring.nvars, sum(lm))
                 if drl.key(m) < drl.key(lm)]
        chosen = draw(st.lists(st.sampled_from(lower), max_size=3,
                               unique=True)) if lower else []
        terms = [(draw(st.sampled_from([1, -1])), lm)]
        terms += [(draw(st.integers(-5, 5)), m) for m in chosen]
        gens.append(Polynomial.from_terms(ring, drl, terms))
    orders = st.sampled_from([drl, LexOrder(), BlockOrder(1)])
    return IdealPresentation(ring, tuple(
        g.with_order(draw(orders)) for g in draw(st.permutations(gens))))


@given(row_cut_ideals(), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_hf_direct_matches_all_rows(J, D):
    assert hf_direct(J, D) == hf_direct_all_rows(J, D)


@pytest.mark.parametrize("char", [0, 2, 32003, 2 ** 64 + 13])
@pytest.mark.parametrize("order", [DegRevLexOrder(), BlockOrder(1)])
def test_hf_direct_reads_leading_monomials_under_one_order(char, order):
    # x1 x3 + x2^2 leads with x1 x3 under lex and with x2^2 under order;
    # cutting the rows of x1^2 + x3^2 by both would drop one row too many
    # from degree 4 on, as each generator's own order would have it
    ring = make_ring(["x1", "x2", "x3"], char=char)
    f = [(1, (1, 0, 1)), (1, (0, 2, 0))]
    J = IdealPresentation(ring, (
        Polynomial.from_terms(ring, LexOrder(), f),
        Polynomial.from_terms(ring, order, f),
        Polynomial.from_terms(ring, LexOrder(),
                              [(1, (2, 0, 0)), (1, (0, 0, 2))])))
    assert hf_direct(J, 6) == hf_direct_all_rows(J, 6) == \
        (1, 3, 4, 4, 4, 4, 4)


def cut_rows(ring, gens, t):
    """hf_direct's degree-t rows, counted from their definition, dense over
    the degree-t monomials by increasing degrevlex: rows m g_i with m
    outside (lm g_1, ..., lm g_{i-1}), generators by ascending degree,
    leads under degrevlex, so a row's lead is its last nonzero entry."""
    drl = DegRevLexOrder()
    basis = sorted(monomials_of_degree(ring.nvars, t), key=drl.key)
    idx = {m: i for i, m in enumerate(basis)}
    gens = sorted(gens, key=Polynomial.degree)
    lms = [max((m for _, m in g.terms), key=drl.key) for g in gens]
    rows = []
    for i, g in enumerate(gens):
        if g.degree() > t:
            break
        for m in monomials_of_degree(ring.nvars, t - g.degree()):
            if not any(mono_divides(lm, m) for lm in lms[:i]):
                row = [0] * len(basis)
                for c, gm in g.terms:
                    row[idx[mono_mul(m, gm)]] = ring.field(c)
                rows.append(row)
    return rows


def lead(row):
    return max(j for j, x in enumerate(row) if x)


def kept_rows_and_pivots(J, t):
    """(kept rows, distinct leads) of hf_direct's degree-t Macaulay matrix
    for J's generators as given."""
    rows = cut_rows(J.ring, J.generators, t)
    return len(rows), len({lead(row) for row in rows})


def residual_shape(ring, gens, t):
    """(nonzero rows, nonzero columns) of the rows of the degree-t matrix
    of gens that are no pivot (the first row with each lead), each less
    its multiples of the pivots, by dense elimination from the highest
    pivot column down."""
    K = ring.field
    rows = cut_rows(ring, gens, t)
    pivots = {}
    for row in rows:
        pivots.setdefault(lead(row), row)
    rest = []
    for row in rows:
        if pivots[lead(row)] is row:
            continue
        for j in sorted(pivots, reverse=True):
            if row[j]:
                f = row[j] * K.inv(pivots[j][j])
                row = [K(a - f * b) for a, b in zip(row, pivots[j])]
        rest.append(row)
    return sum(map(any, rest)), sum(map(any, zip(*rest)))


def as_polynomials(ring, gens):
    """The generators _macaulay builds hf_direct's rows from."""
    return [Polynomial.from_terms(ring, DegRevLexOrder(),
                                  zip(C.tolist(), map(tuple, E.tolist())))
            for _, E, C, _ in gens]


def record_matrix_rank(monkeypatch):
    """The (rows, columns) of every matrix the pivot split of hf_direct's
    rank hands matrix_rank."""
    import regcert.resolution as resolution_mod
    shapes = []
    real = resolution_mod.matrix_rank

    def recorded(rows, K):
        shapes.append((len(rows), len(rows[0])))
        return real(rows, K)

    monkeypatch.setattr(resolution_mod, "matrix_rank", recorded)
    return shapes


@pytest.mark.parametrize("char", [0, 32003])
def test_hf_direct_rows_of_a_regular_sequence_are_independent(
        monkeypatch, char):
    # pairwise coprime degrevlex leading monomials x3^2, x2^2, x1^3: every
    # row the cut keeps has a lead of its own, so it is a pivot, no degree
    # hands matrix_rank a row, and HF(t) is N_t less the kept rows
    J = ideal(f"ring x1 x2 x3; char {char}; "
              "gens: x3^2 + x1*x2, x2^2 + x1*x3, x1^3")
    shapes = record_matrix_rank(monkeypatch)
    hf = hf_direct(J, 8)
    assert hf == (1, 3, 4, 3, 1, 0, 0, 0, 0)
    assert shapes == []
    for t in range(9):
        kept, pivots = kept_rows_and_pivots(J, t)
        assert kept == pivots == num_monomials(3, t) - hf[t]


@pytest.mark.parametrize("char", [0, 32003])
def test_hf_direct_ranks_only_the_rows_off_the_pivots(monkeypatch, char):
    # generic forms of degrees 2, 2, 3 in 4 variables all lead with x4^2
    # or x4^3, so hf_direct replaces the second quadric and the cubic by
    # their reductions, and from degree 3 on some kept rows are still not
    # pivots: each degree's matrix_rank gets the nonzero rows and columns
    # of those rows, each less its multiples of the pivots
    ring = make_ring(["x1", "x2", "x3", "x4"], char=char)
    rng = random.Random(5)
    J = IdealPresentation(ring, tuple(
        random_form(ring, DegRevLexOrder(), d, rng) for d in (2, 2, 3)))
    gens = as_polynomials(ring, _macaulay(J, 8)[0])
    assert [g == h for g, h in zip(gens, J.generators)] == [True, False, False]
    expected = [shape for shape in (residual_shape(ring, gens, t)
                                    for t in range(9)) if shape[0]]
    shapes = record_matrix_rank(monkeypatch)
    assert hf_direct(J, 8) == hf_direct_all_rows(J, 8) == \
        (1, 4, 8, 11, 12, 12, 12, 12, 12)
    assert len(expected) == 6
    assert shapes == expected


@st.composite
def autoreduction_cases(draw):
    """(J, D) over GF(2), GF(32003), GF(2^31 - 1), GF(2^61 - 1) or QQ:
    sparse forms of degree 1-3 in 1-3 variables, with a form of the same
    degree as one of them and the same degrevlex lead, a duplicate, and a
    sum of monomial multiples of the lower generators drawn in,
    shuffled."""
    char = draw(st.sampled_from([2, 32003, 2 ** 31 - 1, 2 ** 61 - 1, 0]))
    nvars = draw(st.integers(1, 3))
    ring = make_ring([f"x{i + 1}" for i in range(nvars)], char=char)
    drl = DegRevLexOrder()
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def coeff():
        return rng.randrange(1, char) if char else rng.choice([-3, -1, 2, 5])

    def form(e, lm=None):
        monos = monomials_of_degree(nvars, e)
        if lm is not None:
            monos = [m for m in monos if drl.key(m) < drl.key(lm)]
        terms = [(coeff(), m) for m in rng.sample(monos, min(len(monos), 3))]
        if lm is not None:
            terms.append((coeff(), lm))
        return Polynomial.from_terms(ring, drl, terms)

    gens = [form(draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 3)))]
    g = draw(st.sampled_from(gens))
    gens.append(form(g.degree(), g.leading_monomial()))
    gens.append(draw(st.sampled_from(gens)))
    e = draw(st.integers(2, 4))
    raw = [(coeff() * c,
            mono_mul(rng.choice(monomials_of_degree(nvars, e - h.degree())),
                     m))
           for h in gens if h.degree() < e for c, m in h.terms]
    combo = Polynomial.from_terms(ring, drl, raw)
    if not combo.is_zero():
        gens.append(combo)
    return (IdealPresentation(ring, tuple(draw(st.permutations(gens)))),
            draw(st.integers(0, 6)))


@given(autoreduction_cases())
@settings(max_examples=80, deadline=None)
def test_hf_direct_autoreduces_its_generators(case):
    J, D = case
    ring = J.ring
    assert hf_direct(J, D) == hf_direct_all_rows(J, D)
    gens = _macaulay(J, D)[0]
    # distinct leads in each degree e, none the lead of a degree-e row m h
    # of a lower generator h
    for e in {g[0] for g in gens}:
        lower = {mono_mul(m, tuple(h[3])) for h in gens if h[0] < e
                 for m in monomials_of_degree(ring.nvars, e - h[0])}
        leads = [tuple(g[3]) for g in gens if g[0] == e]
        assert len(set(leads)) == len(leads)
        assert not lower & set(leads)
    # the same span in each degree
    reduced = as_polynomials(ring, gens)
    for t in range(D + 1):
        A = macaulay_rows(ring, J.generators, t)
        B = macaulay_rows(ring, reduced, t)
        rank = matrix_rank(A, ring.field) if A else 0
        assert (matrix_rank(B, ring.field) if B else 0) == rank
        assert (matrix_rank(A + B, ring.field) if A else 0) == rank


@pytest.mark.parametrize("char", [0, 32003])
def test_hf_direct_autoreduces_over_every_field(char):
    # the quadrics share their degrevlex lead x3^2, and the cubic is x1
    # times the first: the second quadric becomes its difference with the
    # first and the cubic vanishes, over QQ as over GF(p)
    J = ideal(f"ring x1 x2 x3; char {char}; "
              "gens: x3^2 + x1*x2, x3^2 - x1*x3, x1*x3^2 + x1^2*x2")
    assert as_polynomials(J.ring, _macaulay(J, 4)[0]) == [
        J.generators[0],
        ideal(f"ring x1 x2 x3; char {char}; gens: -x1*x3 - x1*x2")
        .generators[0]]
    assert hf_direct(J, 4) == hf_direct_all_rows(J, 4) == (1, 3, 4, 4, 4)


@pytest.mark.parametrize("char", [2 ** 31 - 1, 0, 2 ** 64 + 13])
def test_hf_direct_is_exact_for_coefficients_next_to_the_int64_limit(char):
    # each generator leads with 1 and has four terms with -1, which is
    # p - 1 at p = 2^31 - 1: products of two entries come near 2^62, and a
    # row that meets three or more pivots sums past 2^63 unless each
    # product is reduced mod p first
    J = ideal(f"ring x1 x2 x3; char {char}; gens: "
              "x3^2 - x2*x3 - x2^2 - x1*x3 - x1^2, "
              "x3^3 - x1*x2*x3 - x1*x2^2 - x1^2*x3 - x1^3, "
              "x3^3 - x2^2*x3 - x1*x3^2 - x1*x2*x3 - x1^2*x3")
    assert hf_direct(J, 6) == hf_direct_all_rows(J, 6) == \
        (1, 3, 5, 5, 4, 4, 4)


def test_lex_ideal_of_presentation():
    J = ideal("ring x1 x2; char 0; gens: x1^2, x2^2")
    L, complete = lex_ideal_of_presentation(J)
    assert complete
    assert L.gens == ((0, 2), (1, 1), (3, 0))


# ---------------------------------------------------------------------------
# verify_regflat

def test_verify_regflat_d1_trivial():
    rep = verify_regflat(ideal("ring x1 x2; gens: x1^2, x2^2"), 1)
    assert rep.status == "pass"


def test_verify_regflat_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        verify_regflat(ideal("ring x1 x2; gens: x1^2 + x2"), 2)


def test_verify_regflat_refuses_the_zero_ideal():
    R = make_ring(["x1", "x2"])
    for zero in (ideal("ring x1 x2; gens: 0"), MonomialIdeal(R, ())):
        with pytest.raises(ValueError,
                           match="regularity of the zero ideal is undefined"):
            verify_regflat(zero, 2)


# ---------------------------------------------------------------------------
# verify_regbound

def test_regbound_paper_example_one():
    rep = verify_regbound(ideal("ring x1 x2; gens: x1^2, x2^2"), 1)
    assert rep.status == "pass"
    v = rep.instances[0].values
    assert v["reg_J"] == 3 and v["reg_I"] == 2
    assert v["reg_lex"] == 3 and v["hf_equal"]


def test_regbound_paper_example_two():
    rep = verify_regbound(
        ideal("ring x1 x2 x3; gens: x1*x2 + x2*x3, x1*x3, x3^2"), 2)
    assert rep.status == "pass"
    v = rep.instances[0].values
    assert v["reg_J"] == 2 and v["reg_I"] == 3
    assert v["reg_lex"] >= 3
    assert v["I_gens"] == ["x1^2*x2"]


def test_regbound_zero_elimination():
    rep = verify_regbound(ideal("ring x1 x2; gens: x2^2"), 1)
    assert rep.status == "pass"
    assert rep.instances[0].values["reg_I"] is None


def test_regbound_times_inconclusive_reports():
    # a cutoff below the scan bound stops before the chain, with the time
    # spent so far still reported
    J = ideal("ring x1 x2 x3; gens: x1*x2 + x2*x3, x1*x3, x3^2")
    for cutoff, status in ((2, "inconclusive"), (3, "pass")):
        rep = verify_regbound(J, 2, cutoff=cutoff)
        assert rep.status == status
        assert sorted(rep.timings_ms) == ["regbound"]


def test_regbound_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        verify_regbound(ideal("ring x1 x2; gens: x1^2 + x2"), 1)


# ---------------------------------------------------------------------------
# verify_poweli trials

def test_poweli_trials_deterministic_reports():
    a = verify_poweli_trials(3, seed=9)
    b = verify_poweli_trials(3, seed=9)
    da, db = a.to_dict(), b.to_dict()
    da.pop("timings_ms"), db.pop("timings_ms")
    assert json.dumps(da, sort_keys=True, default=str) == \
        json.dumps(db, sort_keys=True, default=str)
    assert a.status == "pass"


# ---------------------------------------------------------------------------
# seeded trial streams

@pytest.mark.parametrize("run, seed, digests, timing_keys", [
    (verify_poweli_trials, 1,
     ["7edc55751f4b8632", "0a18131f55d167d7", "0789135737702bdd"],
     ["trial0", "trial1", "trial2"]),
    (verify_regbound_trials, 2,
     ["ba7236ed69bf4a66", "8053e3f358ab5e36"], ["regbound"]),
    (lambda trials, seed: verify_main_trials(3, 2, 2, trials, seed), 7,
     ["8333f4a74b05d037", "66cb189022e77929"], ["main"]),
], ids=["poweli", "regbound", "main"])
def test_trial_streams_are_pinned(run, seed, digests, timing_keys):
    # trial k of a check draws from Random(repr((check, seed, k))) and
    # instance seed 1000 seed + k; these digests, in trial order, change
    # with any change to that seeding
    rep = run(len(digests), seed=seed)
    assert [inst.digest for inst in rep.instances] == digests
    assert sorted(rep.timings_ms) == timing_keys
    assert rep.status == "pass" and rep.seed == seed


# ---------------------------------------------------------------------------
# verify_main

def test_main_monomial_conic():
    rep = verify_main(param("param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2"))
    assert rep.status == "pass"
    v = rep.instances[0].values
    assert v["reg_P"] == 2
    assert v["G_series"] == v["G_actual"] == 24
    assert v["bound"] == 32
    assert v["reg_Pprime"] == 4


def test_main_single_form_zero_kernel():
    rep = verify_main(param("param n=1 m=2 d=2; f: y1^2 + y2^2"))
    assert rep.status == "pass"
    v = rep.instances[0].values
    assert v["reg_P"] is None and v["P_gens"] == []


def test_main_hf_always_matches_ci_series():
    for seed in (0, 1, 2):
        p = random_parametrisation(2, 2, 2, seed=seed)
        rep = verify_main(p)
        assert rep.status == "pass"
        assert rep.instances[0].values["hf_matches_ci_series"]


def test_main_two_routes_agree_across_f():
    values = set()
    for seed in range(10):
        p = random_parametrisation(2, 2, 2, seed=seed)
        rep = verify_main(p)
        v = rep.instances[0].values
        assert v["G_series"] == v["G_actual"]
        values.add(v["G_actual"])
    assert values == {6}


def test_main_rational_coefficients():
    p = random_parametrisation(3, 2, 2, seed=2, char=0)
    rep = verify_main(p)
    assert rep.status == "pass"
    assert rep.characteristic == 0


def test_main_runs_buchberger_three_times(monkeypatch):
    # J', P = ker(phi) and alpha(P): P and J' cap R are reused as the
    # reduced bases they already are
    import regcert.groebner as groebner_mod
    calls = []
    real = groebner_mod.buchberger

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner_mod, "buchberger", counted)
    rep = verify_main(param("param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2"))
    assert rep.status == "pass" and len(calls) == 3
    calls.clear()
    rep = verify_main(param("param n=1 m=2 d=2; f: y1^2 + y2^2"))
    assert rep.status == "pass" and len(calls) == 2


def test_main_builds_no_lex_ideal(monkeypatch):
    # G is counted by one segment-size walk through the scan bound B = 24,
    # not the cap 64 plus 2; no lex ideal is built or checked strongly
    # stable.  The check HF(J') == series is what ties G to J'
    import regcert.monomials as monomials_mod
    import regcert.verify as verify_mod
    walked, built = [], []
    walk = monomials_mod._segment_sizes

    def counted(h, D):
        walked.append(D)
        return walk(h, D)

    def spy(name):
        real = getattr(monomials_mod, name)
        return lambda *args: built.append(name) or real(*args)

    monkeypatch.setattr(monomials_mod, "_segment_sizes", counted)
    monkeypatch.setattr(monomials_mod, "is_strongly_stable",
                        spy("is_strongly_stable"))
    for mod in (monomials_mod, verify_mod):
        monkeypatch.setattr(mod, "lex_segment_ideal", spy("lex_segment_ideal"))
    compute_G.cache_clear()
    p = param("param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2")
    rep = verify_main(p)
    assert rep.status == "pass" and walked == [24] and built == []
    # later instances of the shape reuse G; a cutoff below B walks nothing
    rep = verify_main(p)
    assert rep.status == "pass" and walked == [24]
    compute_G.cache_clear()
    rep = verify_main(p, cutoff=4)
    assert rep.status == "inconclusive" and walked == [24] and built == []


def test_main_inconclusive_on_tiny_cutoff():
    p = param("param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2")
    rep = verify_main(p, cutoff=4)
    assert rep.status == "inconclusive"


# ---------------------------------------------------------------------------
# fail-fast aggregation with injected faults

def test_report_fails_on_any_witness():
    rep = VerificationReport("fault", 32003)
    rep.add("a" * 16, {"ok": True})
    rep.add("b" * 16, {"ok": False}, [{"kind": "injected"}])
    rep.add("c" * 16, {"ok": True}, [])
    assert rep.status == "fail"
    assert [i.witness for i in rep.instances] == \
        [None, {"failures": [{"kind": "injected"}]}, None]


def test_report_inconclusive_beats_pass():
    rep = VerificationReport("fault", 32003)
    rep.add("a" * 16, {})
    rep.add_inconclusive("b" * 16, "cutoff")
    assert rep.status == "inconclusive"


def test_regbound_detects_injected_hilbert_fault(monkeypatch):
    import regcert.verify as verify_mod

    real = verify_mod.hf_direct

    def corrupted(J, D):
        dims = list(real(J, D))
        dims[-1] += 1
        return tuple(dims)

    monkeypatch.setattr(verify_mod, "hf_direct", corrupted)
    rep = verify_mod.verify_regbound(
        ideal("ring x1 x2; gens: x1^2, x2^2"), 1)
    assert rep.status == "fail"
    kinds = {f["kind"] for f in rep.instances[0].witness["failures"]}
    assert "hilbert-mismatch" in kinds


def test_regbound_checks_reg_J_against_reg_inJ(monkeypatch):
    # reg(J) <= reg(in J): Betti numbers only grow under degeneration
    import regcert.verify as verify_mod
    J = ideal("ring x1 x2; gens: x1^2, x2^2")
    real = verify_mod.regularity
    monkeypatch.setattr(verify_mod, "regularity",
                        lambda I: real(I) + (10 if I is J else 0))
    rep = verify_mod.verify_regbound(J, 1)
    assert rep.status == "fail"
    assert rep.instances[0].witness["failures"] == [
        {"kind": "reg_J<=reg_inJ", "reg_J": 13, "reg_inJ": 3}]


def _corrupt_second_table(monkeypatch, cell):
    """verify.betti_table, with one more at cell of the second table built,
    which is that of I' in verify_regflat and of P' in verify_main."""
    import regcert.verify as verify_mod
    real = verify_mod.betti_table
    built = []

    def corrupted(I):
        T = real(I)
        built.append(T)
        if len(built) != 2:
            return T
        entries = dict(T.entries)
        entries[cell] = entries.get(cell, 0) + 1
        return BettiTable(entries, T.characteristic)

    monkeypatch.setattr(verify_mod, "betti_table", corrupted)


def test_regflat_reports_a_bad_cell_once(monkeypatch):
    # beta_{0,4}(I') = 3 against beta_{0,2}(I) = 2: one cell of I', not a
    # second report of the same cell in I coordinates
    _corrupt_second_table(monkeypatch, (0, 4))
    rep = verify_regflat(ideal("ring x1 x2; gens: x1^2, x2^2"), 2)
    assert rep.status == "fail"
    assert rep.instances[0].witness["failures"] == [
        {"cell": [0, 4], "got": 3, "expected": 2, "kind": "scaled-cell"}]


@pytest.mark.parametrize("cell, kind", [((0, 4), "scaled-cell"),
                                        ((0, 3), "off-multiple")])
def test_main_runs_the_regflat_check(monkeypatch, cell, kind):
    # the second Betti table main builds is that of P' = J' cap R
    _corrupt_second_table(monkeypatch, cell)
    rep = verify_main(param("param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2"))
    assert rep.status == "fail"
    kinds = [f["kind"] for f in rep.instances[0].witness["failures"]]
    assert kinds == [kind]


def test_main_runs_the_poweli_identity_check(monkeypatch):
    # alpha(P) missing a generator of P no longer generates J' cap R
    import regcert.verify as verify_mod
    real = verify_mod.image_ideal

    def dropping(phi, I):
        return real(phi, IdealPresentation(I.ring, I.generators[:-1]))

    monkeypatch.setattr(verify_mod, "image_ideal", dropping)
    rep = verify_main(param("param n=4 m=2 d=2; "
                            "f: y1^2, y1*y2, y2^2, y1^2 + y2^2"))
    assert rep.status == "fail"
    failures = rep.instances[0].witness["failures"]
    assert [f["kind"] for f in failures] == ["Pprime-mismatch"]
    assert len(failures[0]["alpha_I"]) == 1
    assert len(failures[0]["Jprime_cap_R"]) == 2


def test_poweli_witness_has_the_failures_schema(monkeypatch):
    import regcert.verify as verify_mod
    monkeypatch.setattr(verify_mod, "passes_buchberger_criterion",
                        lambda polys, order: (False, (0, 1)))
    J = ideal("ring x1 x2 x3; gens: x1*x2 - x3^2, x2^2 - x1*x3")
    rep = verify_mod.verify_poweli(J, PowerMap((2, 1, 3)), keep=2)
    assert rep.status == "fail"
    assert rep.instances[0].witness == {"failures": [
        {"kind": "buchberger-criterion", "failing_pair": [0, 1]}]}
    assert rep.instances[0].values["alpha_I_equals_Jprime_cap_R"]


def test_main_detects_injected_series_fault(monkeypatch):
    import regcert.verify as verify_mod

    real = verify_mod.ci_hilbert_function

    def corrupted(n, d, m):
        # one more dimension in degree 3 only: add t^3 (1-t)^nvars
        h = real(n, d, m)
        num = list(h.numerator) + [0] * (h.nvars + 4)
        for k in range(h.nvars + 1):
            num[3 + k] += (-1) ** k * math.comb(h.nvars, k)
        return HilbertSeries(tuple(num), h.nvars)

    monkeypatch.setattr(verify_mod, "ci_hilbert_function", corrupted)
    rep = verify_main(param("param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2"))
    assert rep.status == "fail"
    kinds = {f["kind"] for f in rep.instances[0].witness["failures"]}
    assert "hilbert-vs-ci-series" in kinds
    assert rep.instances[0].values["G_actual"] is None


def test_report_serialization_sorted_and_stable():
    rep = VerificationReport("demo", 0, seed=3)
    rep.add("zzzz", {"v": 1})
    rep.add("aaaa", {"v": 2})
    d = rep.to_dict()
    assert [i["digest"] for i in d["instances"]] == ["aaaa", "zzzz"]
    assert d["check"] == "demo" and d["field"] == 0 and d["seed"] == 3
    json.loads(rep.to_json())
