"""Division, Buchberger, elimination, kernels, and the power lemma."""

import gc
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from regcert import groebner
from regcert.groebner import (Divisors, IdealPresentation, Parametrisation,
                              buchberger, eliminate, graph_ideal,
                              groebner_basis, ideal_equal, image_ideal,
                              initial_ideal, kernel_of_map, normal_form,
                              passes_buchberger_criterion, reduce_basis)
from regcert.instances import random_ideal
from regcert.parser import parse_ideal_file
from regcert.resolution import betti_table, regularity
from regcert.rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial,
                           PowerMap, make_ring)
from regcert.scalars import DEFAULT_PRIME
from regcert.verify import verify_poweli, verify_regflat

from oracles import (buchberger_without_criteria, contains_by_scan,
                     normal_form_by_max, substitute)


def ideal(text):
    return parse_ideal_file(text)[1]


def polys(text):
    return list(ideal(text).generators)


def param(text):
    return parse_ideal_file(text)[1]


CONIC = "param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2"
CUBIC = "param n=4 m=2 d=3; f: y1^3, y1^2*y2, y1*y2^2, y2^3"


def test_normal_form_division_identity():
    J = ideal("ring x1 x2 x3; char 0; gens: x1*x2 - x3, x2^2 - x1")
    f = polys("ring x1 x2 x3; char 0; gens: x1^2*x2^2 + x2*x3")[0]
    order = DegRevLexOrder()
    rem, quots = normal_form(f, list(J.generators), order)
    recombined = rem
    for q, g in zip(quots, J.generators):
        recombined = recombined + q * g.with_order(order)
    assert recombined == f.with_order(order)
    # no remainder term reducible
    lms = [g.leading_monomial() for g in
           (g.with_order(order) for g in J.generators)]
    from regcert.rings import mono_divides
    for _, m in rem.terms:
        assert not any(mono_divides(lm, m) for lm in lms)


FIELD_CHARS = [2, 32003, 0]
ORDERS = [LexOrder(), DegRevLexOrder(), BlockOrder(1), BlockOrder(2)]
raw_polys = st.lists(
    st.tuples(st.integers(-50, 50), st.sampled_from([1, 3, 5, 7]),
              st.tuples(*[st.integers(0, 3)] * 3)),
    min_size=1, max_size=6)


def _poly(ring, order, raw):
    """A polynomial from (numerator, odd denominator, monomial) triples."""
    K = ring.field
    return Polynomial.from_terms(
        ring, order, [(K(a * K.inv(K(b))), m) for a, b, m in raw])


@settings(max_examples=150, deadline=None)
@given(char=st.sampled_from(FIELD_CHARS), order=st.sampled_from(ORDERS),
       f=raw_polys, divisors=st.lists(raw_polys, min_size=1, max_size=3))
def test_normal_form_results_are_normalized(char, order, f, divisors):
    # remainder and quotients are built directly from their terms, which
    # must already be nonzero and strictly decreasing: from_terms of the
    # same terms changes nothing
    ring = make_ring(["x1", "x2", "x3"], char=char)
    f = _poly(ring, order, f)
    G = [_poly(ring, order, g) for g in divisors]
    assume(all(not g.is_zero() for g in G))
    rem, quots = normal_form(f, G, order)
    recombined = rem
    for q, g in zip(quots, G):
        recombined = recombined + q * g
    assert recombined == f
    for p in [rem] + quots:
        assert all(c for c, _ in p.terms)
        keys = [order.key(m) for _, m in p.terms]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert Polynomial.from_terms(ring, order, p.terms).terms == p.terms


@settings(max_examples=150, deadline=None)
@given(char=st.sampled_from(FIELD_CHARS), order=st.sampled_from(ORDERS),
       f=raw_polys, divisors=st.lists(raw_polys, min_size=1, max_size=3))
def test_normal_form_heap_matches_max_per_step_oracle(char, order, f,
                                                      divisors):
    # the heap changes how the largest live term is found, not which one:
    # remainder and quotients are the same term lists
    ring = make_ring(["x1", "x2", "x3"], char=char)
    f = _poly(ring, order, f)
    G = [_poly(ring, order, g) for g in divisors]
    assume(all(not g.is_zero() for g in G))
    rem, quots = normal_form(f, G, order)
    rem_o, quots_o = normal_form_by_max(f, G, order)
    assert rem.terms == rem_o.terms
    assert [q.terms for q in quots] == [q.terms for q in quots_o]


def _same_division(f, divisors, G, order):
    rem, quots = normal_form(f, divisors, order)
    rem_o, quots_o = normal_form_by_max(f, G, order)
    assert rem.terms == rem_o.terms
    assert [q.terms for q in quots] == [q.terms for q in quots_o]
    return rem


@settings(max_examples=150, deadline=None)
@given(char=st.sampled_from(FIELD_CHARS), order=st.sampled_from(ORDERS),
       divisors=st.lists(raw_polys, max_size=2),
       steps=st.lists(st.tuples(raw_polys, raw_polys), min_size=1,
                      max_size=4))
def test_divisors_memo_keeps_list_order_as_the_list_grows(char, order,
                                                          divisors, steps):
    # one Divisors serves every division while divisors are appended in
    # between; after each append every polynomial so far is divided again,
    # so memo entries made against a shorter list are read against a longer
    # one, and each result must be the oracle's on the list as it stands
    ring = make_ring(["x1", "x2", "x3"], char=char)
    G = [_poly(ring, order, g) for g in divisors]
    assume(all(not g.is_zero() for g in G))
    memo = Divisors(G, order)
    fs = []
    for raw_f, raw_g in steps:
        fs.append(_poly(ring, order, raw_f))
        for f in fs:
            _same_division(f, memo, G, order)
        g = _poly(ring, order, raw_g)
        if not g.is_zero():
            G.append(g)
            memo.append(g)
    for f in fs:
        _same_division(f, memo, G, order)


@pytest.mark.parametrize("char", FIELD_CHARS)
@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_divisors_memo_sees_a_divisor_appended_later(char, order):
    # x1*x2 has no divisor among [x3^2 + x1]; then x1 + x2 and
    # x1*x2 + 2*x1^2 are appended, whose leads x2 and x1*x2 both divide
    # it, and the first of them in list order must reduce it
    f, g, h, k = polys(f"ring x1 x2 x3; char {char}; gens: x1*x2 + x1, "
                       "x3^2 + x1, x1 + x2, x1*x2 + 2*x1^2")
    G = [g.with_order(order)]
    memo = Divisors(G, order)
    before = _same_division(f, memo, G, order)
    assert before.terms == f.with_order(order).terms
    for p in (h, k):
        G.append(p.with_order(order))
        memo.append(p)
    after = _same_division(f, memo, G, order)
    assert after.terms == normal_form(f, G[:2], order)[0].terms
    assert after.terms != normal_form(f, [G[0], G[2]], order)[0].terms


def test_no_division_memo_outlives_its_call():
    # a Divisors and its memo are freed when the call that made it returns
    def live():
        gc.collect()
        return {id(o) for o in gc.get_objects() if isinstance(o, Divisors)}
    before = live()
    J = ideal("ring x1 x2 x3; gens: x1^2 + x2*x3, x2^2 + x1*x3, x3^3")
    assert betti_table(J).entries[(2, 7)] == 1
    assert passes_buchberger_criterion(
        groebner_basis(J, LexOrder()).generators, LexOrder())[0]
    assert live() <= before


def _count_divisions(monkeypatch):
    """[remainder is zero] for each normal_form call buchberger makes."""
    zero, divide = [], groebner.normal_form

    def counted(f, G, order=None):
        rem, quots = divide(f, G, order)
        zero.append(rem.is_zero())
        return rem, quots
    monkeypatch.setattr(groebner, "normal_form", counted)
    return zero


def test_buchberger_pair_count_on_a_complete_intersection(monkeypatch):
    # forms of degrees 2, 2, 3 in 4 variables, a complete intersection;
    # 9 S-pairs survive the criteria and 5 reduce to zero
    J = ideal("ring x1 x2 x3 x4; gens: x1^2 + x2*x3 - x4^2, "
              "x2^2 + x1*x4 + 3*x3^2, x3^3 + x1*x2*x4 - x4^3")
    zero = _count_divisions(monkeypatch)
    assert len(buchberger(J, DegRevLexOrder())) == 7
    assert (len(zero), sum(zero)) == (9, 5)


def test_buchberger_pair_count_on_a_lex_trial(monkeypatch):
    # trial 9 of verify_regbound_trials(15, seed=3): four forms in 4
    # variables, not a complete intersection, whose lex basis has 30
    # elements before reduction; 71 S-pairs reduced, 45 of them to zero
    rng = random.Random(repr(("regbound", 3, 9)))
    nvars = rng.choice([3, 4])
    J = random_ideal(nvars, 3 * 1000 + 9, ngens=rng.randint(2, nvars),
                     max_degree=3, char=DEFAULT_PRIME, homogeneous=True)
    assert (nvars, len(J.generators)) == (4, 4)
    zero = _count_divisions(monkeypatch)
    assert len(buchberger(J, LexOrder())) == 30
    assert (len(zero), sum(zero)) == (71, 45)


def test_normal_form_computes_each_order_key_once(monkeypatch):
    # one key per monomial that enters the work list: x1^3 - x2^3 divided
    # by x1 - x2 (leading term x2 under lex) passes x1 x2^2 and x1^2 x2
    # once each, and x1^3 cancels
    order = LexOrder()
    f = polys("ring x1 x2; char 0; gens: x1^3 - x2^3")[0].with_order(order)
    g = polys("ring x1 x2; char 0; gens: x1 - x2")[0].with_order(order)
    seen = []
    monkeypatch.setattr(LexOrder, "key",
                        lambda self, m: seen.append(m) or tuple(reversed(m)))
    rem, (q,) = normal_form(f, [g], order)
    assert rem.is_zero() and len(q.terms) == 3
    assert len(seen) == len(set(seen))
    assert set(seen) == {(3, 0), (0, 3), (2, 1), (1, 2)}


def test_normal_form_zero_in_ideal():
    gens = polys("ring x1 x2; char 0; gens: x1^2 - x2, x2^2 - x1")
    order = LexOrder()
    f = gens[0] * gens[1] + gens[1]
    rem, _ = normal_form(f, gens + [gens[0]], order)
    # f is in the ideal generated by a Groebner basis of it
    G = groebner_basis(IdealPresentation(gens[0].ring, tuple(gens)), order)
    rem, _ = normal_form(f, list(G.generators), order)
    assert rem.is_zero()


def test_buchberger_criterion_certifies_output():
    J = ideal("ring x1 x2 x3; gens: x1*x2 + x2*x3, x1*x3, x3^2")
    for order in (LexOrder(), DegRevLexOrder(), BlockOrder(2)):
        G = groebner_basis(J, order)
        ok, witness = passes_buchberger_criterion(list(G.generators), order)
        assert ok and witness is None


def test_generators_not_a_basis():
    # two Hankel minors: their S-polynomial does not reduce to zero
    gens = polys("ring x1 x2 x3; char 0; gens: x2^2 - x1*x3, x2*x3 - x1^2")
    ok, witness = passes_buchberger_criterion(gens, DegRevLexOrder())
    assert not ok and witness == (0, 1)


def test_paper_elimination_two_squares():
    J = ideal("ring x1 x2; char 0; gens: x1^2, x2^2")
    G = groebner_basis(J, LexOrder())
    I = eliminate(G, 1)
    assert [g.coeff_dict() for g in I.generators] == [{(2,): 1}]


def test_paper_elimination_three_gens():
    J = ideal("ring x1 x2 x3; char 0; gens: x1*x2 + x2*x3, x1*x3, x3^2")
    G = groebner_basis(J, LexOrder())
    I = eliminate(G, 2)
    assert [g.coeff_dict() for g in I.generators] == [{(2, 1): 1}]


def test_eliminate_requires_elimination_order():
    J = ideal("ring x1 x2 x3; gens: x1*x3 - x2^2")
    G = groebner_basis(J, DegRevLexOrder())
    with pytest.raises(ValueError):
        eliminate(G, 2)


def test_reduced_basis_unique_under_shuffles():
    J = ideal("ring x1 x2 x3; gens: "
              "x1^2 - x2*x3, x2^2 + x1*x3, x3^2 - x1*x2, x1*x2*x3")
    order = DegRevLexOrder()
    reference = groebner_basis(J, order).generators
    rng = random.Random(11)
    for _ in range(10):
        gens = list(J.generators)
        rng.shuffle(gens)
        scale = gens[0].ring.field(rng.randrange(1, 100))
        gens[0] = gens[0].scale(scale)
        G = groebner_basis(IdealPresentation(J.ring, tuple(gens)), order)
        assert G.generators == reference


def test_reduced_basis_is_not_recomputed():
    J = ideal("ring x1 x2 x3; gens: x1*x2 - x3^2, x2^2 - x1*x3")
    G = groebner_basis(J, DegRevLexOrder())
    assert groebner_basis(G, G.order) is G
    assert groebner_basis(G, DegRevLexOrder()) is G
    # another order, or an unreduced basis, is computed from the elements
    lex = groebner_basis(G, LexOrder())
    assert lex.generators == groebner_basis(J, LexOrder()).generators
    raw = buchberger(J, DegRevLexOrder())
    assert groebner_basis(raw, raw.order) is not raw
    assert groebner_basis(raw, raw.order).generators == G.generators
    # an elimination of a reduced basis is reduced for the restricted order
    P = kernel_of_map(param(CONIC), order=BlockOrder(3))
    assert groebner_basis(P, DegRevLexOrder()) is P
    I = IdealPresentation(P.ring, P.generators)
    assert P.generators == groebner_basis(I, DegRevLexOrder()).generators


@pytest.mark.parametrize("which", ["lex", "degrevlex", "eliminate"])
def test_a_basis_is_the_ideal_it_generates(which):
    # a Groebner basis goes wherever an ideal goes, with the results of
    # the presentation of its generators
    J = ideal("ring x1 x2 x3; gens: x1*x2 + x2*x3, x1*x3, x3^2")
    lex = groebner_basis(J, LexOrder())
    G = {"lex": lex, "degrevlex": groebner_basis(J, DegRevLexOrder()),
         "eliminate": eliminate(lex, 2)}[which]
    I = IdealPresentation(G.ring, G.generators)
    assert len(G) == len(I.generators) > 0
    assert betti_table(G) == betti_table(I)
    assert regularity(G) == regularity(I)
    phi = PowerMap.uniform(G.ring.nvars, 2)
    assert image_ideal(phi, G) == image_ideal(phi, I)
    for order in (LexOrder(), DegRevLexOrder()):
        assert groebner_basis(G, order) == groebner_basis(I, order)
        for other in (I, image_ideal(phi, I)):
            assert ideal_equal(G, other, order) == \
                ideal_equal(I, other, order)
    flat_G, flat_I = (verify_regflat(X, 2).to_dict() for X in (G, I))
    del flat_G["timings_ms"], flat_I["timings_ms"]
    assert flat_G == flat_I and flat_G["status"] == "pass"


def test_ideal_equal_accepts_bases():
    A = ideal("ring x1 x2; char 0; gens: x1 + x2, x2^2")
    B = ideal("ring x1 x2; char 0; gens: x2^2, 2*x1 + 2*x2, x1^2")
    order = DegRevLexOrder()
    assert ideal_equal(groebner_basis(A, order), B, order)
    assert ideal_equal(A, groebner_basis(B, LexOrder()), order)


def test_criteria_do_not_change_result():
    J = ideal("ring x1 x2 x3; gens: x1*x2 - x3^2, x2^2 - x1*x3, x1^3 + x2*x3")
    for order in (LexOrder(), DegRevLexOrder()):
        with_c = reduce_basis(buchberger(J, order))
        without = reduce_basis(buchberger_without_criteria(J, order))
        assert with_c.generators == without.generators


def test_initial_ideal():
    J = ideal("ring x1 x2; char 0; gens: x1^2 + x2^2, x1*x2")
    G = groebner_basis(J, LexOrder())
    inJ = initial_ideal(G)
    assert (0, 2) in inJ.gens or any(g[1] == 2 for g in inJ.gens)
    # degreewise sizes of in(J) match J (Macaulay): spot check degree 2
    assert contains_by_scan(inJ, (0, 2)) or contains_by_scan(inJ, (2, 0))


def test_ideal_equal():
    A = ideal("ring x1 x2; char 0; gens: x1 + x2, x2^2")
    B = ideal("ring x1 x2; char 0; gens: x2^2, 2*x1 + 2*x2, x1^2")
    C = ideal("ring x1 x2; char 0; gens: x1, x2")
    order = DegRevLexOrder()
    assert ideal_equal(A, B, order)
    assert not ideal_equal(A, C, order)


def kernel_by_linear_algebra(images, max_degree):
    """Degreewise oracle: relations among monomials in the f_i of each
    degree, found by exact kernel computation over GF(p)."""
    from regcert.monomials import monomials_of_degree
    yring = images[0].ring
    p = yring.char
    n = len(images)
    rels = []
    for t in range(1, max_degree + 1):
        monos = monomials_of_degree(n, t)
        cols = {}
        vecs = []
        for m in monos:
            g = Polynomial.from_terms(
                make_ring([f"x{i+1}" for i in range(n)], char=p),
                LexOrder(), [(1, m)])
            val = substitute(g, list(images))
            vecs.append(val.coeff_dict())
            for mm in val.coeff_dict():
                cols.setdefault(mm, len(cols))
        rows = [[0] * len(cols) for _ in vecs]
        for r, v in enumerate(vecs):
            for mm, c in v.items():
                rows[r][cols[mm]] = int(c)
        # kernel dimension = #monos - rank
        from regcert.resolution import rank_mod_p
        rels.append(len(monos) - rank_mod_p(rows, p))
    return rels


def kernel_hilbert_ideal_side(G, max_degree):
    from regcert.groebner import initial_ideal
    from regcert.monomials import hilbert_function, num_monomials
    inP = initial_ideal(G)
    dims = hilbert_function(inP).dims(max_degree)
    return [num_monomials(inP.nvars, t) - q
            for t, q in enumerate(dims)][1:]


def test_kernel_of_conic_parametrisation():
    p = param(CONIC)
    G = kernel_of_map(p)
    assert len(G) == 1
    g = G.generators[0]
    # x1*x3 - x2^2 up to sign/scaling
    assert set(g.coeff_dict()) == {(1, 0, 1), (0, 2, 0)}
    # degreewise dimensions match the linear-algebra oracle
    assert kernel_hilbert_ideal_side(G, 4) == \
        kernel_by_linear_algebra(list(p.f), 4)


def test_kernel_twisted_cubic():
    p = param(CUBIC)
    G = kernel_of_map(p, order=BlockOrder(4))
    # the 2x2 minors of the 2x3 Hankel matrix: three quadrics
    assert len(G) == 3
    assert all(g.degree() == 2 for g in G.generators)
    assert kernel_hilbert_ideal_side(G, 4) == \
        kernel_by_linear_algebra(list(p.f), 4)
    # every kernel element vanishes after substitution
    for g in G.generators:
        assert substitute(g, list(p.f)).is_zero()


def test_kernel_generic_forms_is_zero():
    from regcert.instances import random_parametrisation
    p = random_parametrisation(2, 2, 2, seed=5)
    G = kernel_of_map(p)
    assert len(G.generators) == 0


def test_kernel_random_parametrisations_substitute_to_zero():
    from regcert.instances import random_parametrisation
    for seed in range(10):
        p = random_parametrisation(3, 2, 2, seed=seed)
        G = kernel_of_map(p, order=BlockOrder(3))
        for g in G.generators:
            assert substitute(g, list(p.f)).is_zero()


def test_kernel_of_map_outputs_unchanged():
    # reference outputs of kernel_of_map before graph_ideal was shared
    conic, cubic = param(CONIC), param(CUBIC)
    cases = [
        (conic, LexOrder(), "lex", ["x1*x3 + 32002*x2^2"]),
        (conic, BlockOrder(3), "degrevlex", ["x2^2 + 32002*x1*x3"]),
        (cubic, LexOrder(), "lex",
         ["x2*x4 + 32002*x3^2", "x1*x4 + 32002*x2*x3",
          "x1*x3 + 32002*x2^2"]),
        (cubic, BlockOrder(4), "degrevlex",
         ["x3^2 + 32002*x2*x4", "x2*x3 + 32002*x1*x4",
          "x2^2 + 32002*x1*x3"]),
    ]
    for p, order, sub_order, gens in cases:
        G = kernel_of_map(p, order=order)
        n = p.n
        assert G.ring == make_ring([f"x{i + 1}" for i in range(n)])
        assert repr(G.order) == sub_order and G.reduced
        assert [str(g) for g in G.generators] == gens
        assert all(g.terms == g.with_order(G.order).terms
                   for g in G.generators)


def test_graph_ideal():
    p = param("param n=2 m=2 d=2; f: y1^2, y1*y2 - y2^2")
    J = graph_ideal(p, 3, BlockOrder(2))
    assert J.ring == make_ring(["x1", "x2", "y1", "y2"])
    assert [str(g) for g in J.generators] == [
        "32002*y1^2 + x1^3", "y2^2 + 32002*y1*y2 + x2^3"]
    assert all(g.order == BlockOrder(2) for g in J.generators)
    # the images are checked once, when the parametrisation is made: no
    # images, forms of two degrees, a form that is not homogeneous
    f0, f1 = p.f
    with pytest.raises(ValueError, match="must be positive"):
        Parametrisation(0, 2, 2, (), p.ring)
    with pytest.raises(ValueError, match="homogeneous of degree d"):
        Parametrisation(3, 2, 2, (f0, f1, f0 * f1), p.ring)
    with pytest.raises(ValueError, match="homogeneous of degree d"):
        Parametrisation(1, 2, 2, (f0 + f0 * f0,), p.ring)
    # m and the images' ring must be the ring's: a shape that disagrees
    # would certify the series of another m
    with pytest.raises(ValueError, match="ring of m variables"):
        Parametrisation(2, 3, 2, p.f, p.ring)
    with pytest.raises(ValueError, match="ring of m variables"):
        Parametrisation(2, 2, 2, p.f, make_ring(["y1", "y2"], char=0))


def test_kernel_rejects_bad_images():
    p = param(CONIC)
    f = p.f
    with pytest.raises(ValueError, match="homogeneous of degree d"):
        Parametrisation(3, 2, 2, f[:2] + (f[0] * f[1],), p.ring)
    # an order that does not eliminate y is refused by eliminate
    with pytest.raises(ValueError, match="does not eliminate"):
        kernel_of_map(p, order=DegRevLexOrder())


def test_image_ideal_and_power_map():
    J = ideal("ring x1 x2; char 0; gens: x1^2 + x2, x2^3")
    phi = PowerMap((2, 3))
    Jp = image_ideal(phi, J)
    assert Jp.generators[0].coeff_dict() == {(4, 0): 1, (0, 3): 1}


def test_verify_poweli_on_paper_style_ideal():
    J = ideal("ring x1 x2 x3; gens: x1*x2 + x2*x3, x1*x3, x3^2")
    rep = verify_poweli(J, PowerMap((2, 2, 2)), keep=2)
    assert rep.status == "pass"


def test_substitute():
    g, = polys("ring x1 x2; char 0; gens: x1*x2")
    y, = polys("ring y1; char 0; gens: y1")
    val = substitute(g, [y, y * y])
    assert val.coeff_dict() == {(3,): 1}


# ---------------------------------------------------------------------------
# reduced bases against an independent implementation

def _scaled_terms(terms, char):
    """Sorted (exponents, coefficient) with the coefficient of the largest
    exponent tuple scaled to 1; sympy returns integer primitive bases over
    QQ, so only the scaling of each element is compared away."""
    import sympy
    top = max(terms)[1]
    if char:
        return sorted((m, int(c) * pow(int(top), -1, char) % char)
                      for m, c in terms)
    return sorted((m, sympy.Rational(c) / top) for m, c in terms)


@pytest.mark.parametrize("char", [32003, 7, 0])
@pytest.mark.parametrize("order", [LexOrder(), DegRevLexOrder()],
                         ids=repr)
def test_reduced_basis_matches_sympy(char, order):
    sympy = pytest.importorskip("sympy")
    from regcert.instances import random_polynomial
    rng = random.Random(f"{char}-{order!r}")
    for _ in range(12):
        nvars = rng.choice([2, 3])
        ring = make_ring([f"x{i + 1}" for i in range(nvars)], char=char)
        polys = [random_polynomial(ring, order, rng.choice([2, 3]), rng,
                                   nterms=rng.choice([2, 3]))
                 for _ in range(rng.choice([2, 3]))]
        G = groebner_basis(IdealPresentation.from_polynomials(ring, polys),
                           order)
        # regcert orders x_l > ... > x_1, so sympy gets the generators
        # last variable first; its grevlex is then regcert's degrevlex
        syms = sympy.symbols(ring.names[::-1])
        as_sympy = [sum(sympy.Rational(str(c)) * sympy.Mul(*[
            s ** e for s, e in zip(syms, m[::-1])]) for c, m in f.terms)
            for f in polys]
        kwargs = {"modulus": char} if char else {}
        expected = sympy.groebner(
            as_sympy, *syms, order={"lex": "lex", "degrevlex": "grevlex"}[
                repr(order)], **kwargs)
        want = sorted(_scaled_terms(
            [(m[::-1], c) for m, c in sympy.Poly(e, *syms, **kwargs).terms()],
            char) for e in expected.exprs)
        got = sorted(_scaled_terms(
            [(m, sympy.Rational(str(c))) for c, m in g.terms], char)
            for g in G.generators)
        assert got == want
