"""Parsing, printing, and the round-trip property."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import parse_by_char_positions
from regcert.groebner import Parametrisation
from regcert.parser import (ParseError, format_monomial, format_polynomial,
                            parse_ideal_file)
from regcert.rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial,
                           make_ring)


def test_parse_simple_ideal():
    ring, J, order = parse_ideal_file("ring x1 x2; char 0; gens: x1^2, x2^2")
    assert ring.names == ("x1", "x2")
    assert ring.char == 0
    assert isinstance(order, LexOrder)
    assert [g.coeff_dict() for g in J.generators] == [{(2, 0): 1},
                                                      {(0, 2): 1}]


def test_parse_param_file():
    ring, p, _ = parse_ideal_file("param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2")
    assert isinstance(p, Parametrisation)
    assert (p.n, p.m, p.d) == (3, 2, 2)
    assert ring.names == ("y1", "y2")
    assert all(g.degree() == 2 for g in p.f)


def test_syntax_error_trailing_operator():
    with pytest.raises(ParseError) as exc:
        parse_ideal_file("ring x1; gens: x1 +")
    assert exc.value.line == 1
    assert exc.value.col >= 19


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_ideal_file("ring x1 x2 ;\nchar 0 ;\ngens: x1 * zz")
    assert exc.value.line == 3


def test_term_may_not_end_in_a_star():
    # after a '*' the term goes on with a variable: the error is at the
    # token after the '*'
    text = "ring x1 x2; gens: x1* + x2*, x2"
    with pytest.raises(ParseError, match="expected a term, found '\\+'") \
            as exc:
        parse_ideal_file(text)
    assert (exc.value.line, exc.value.col) == (1, text.index("+") + 1)
    with pytest.raises(ParseError, match="found 'end of input'"):
        parse_ideal_file("ring x1; gens: x1^2*")
    with pytest.raises(ParseError, match="found ','"):
        parse_ideal_file("param n=2 m=1 d=1; f: 2*y1*, y1")


@pytest.mark.parametrize("template", ["ring x1;\ngens: x1 + {}*x1",
                                      "ring x1;\ngens: x1 + x1^{}"])
def test_number_too_long_for_int_is_a_parse_error(template):
    # int() refuses more than 4,300 digits; the reader names the position
    text = template.format("7" * 5000)
    with pytest.raises(ParseError, match="5000 digits") as exc:
        parse_ideal_file(text)
    col = text.index("7") - text.index("\n")
    assert (exc.value.line, exc.value.col) == (2, col)


def test_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_ideal_file("ring x1; gens: x1*y1")


def test_composite_characteristic_rejected():
    with pytest.raises(ParseError, match="prime"):
        parse_ideal_file("ring x1; char 6; gens: x1")


def test_zero_denominator_is_a_parse_error():
    text = "ring x1 x2; char 32003; gens: x1 + 1/32003*x2"
    with pytest.raises(ParseError, match="zero denominator") as exc:
        parse_ideal_file(text)
    assert (exc.value.line, exc.value.col) == (1, text.rindex("32003") + 1)
    for char in (0, 32003):
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse_ideal_file(f"ring x1;\nchar {char};\ngens: x1 - 3/0")
        assert (exc.value.line, exc.value.col) == (3, 14)


def test_char_clause_primality():
    ring, _, _ = parse_ideal_file(
        "ring x1; char 2305843009213693951; gens: x1")
    assert ring.char == 2305843009213693951
    with pytest.raises(ParseError, match="0 or prime"):
        parse_ideal_file("ring x1; char 561; gens: x1")
    with pytest.raises(ParseError, match="not supported") as exc:
        parse_ideal_file("ring x1; char 3317044064679887385961981; gens: x1")
    assert (exc.value.line, exc.value.col) == (1, 15)


def test_char_override():
    from fractions import Fraction
    text = "ring x1 x2; char 32003; gens: x1 + 1/32003*x2"
    ring, J, _ = parse_ideal_file(text, char=0)
    assert ring.char == 0
    assert J.generators[0].coeff_dict() == {(1, 0): 1,
                                            (0, 1): Fraction(1, 32003)}
    ring, J, _ = parse_ideal_file("ring x1; gens: 2*x1", char=3)
    assert ring.char == 3 and J.generators[0].coeff_dict() == {(1,): 2}
    ring, p, _ = parse_ideal_file("param n=1 m=1 d=2; char 0; f: 5*y1^2",
                                  char=2)
    assert ring.char == 2 and p.f[0].coeff_dict() == {(2,): 1}
    # the file's own clause is still checked
    with pytest.raises(ParseError, match="prime"):
        parse_ideal_file("ring x1; char 6; gens: x1", char=0)


def test_defaults():
    ring, _, order = parse_ideal_file("ring x1 x2; gens: x1")
    assert ring.char == 32003
    assert isinstance(order, LexOrder)


def test_order_clauses():
    _, _, o = parse_ideal_file("ring x1 x2; order degrevlex; gens: x1")
    assert isinstance(o, DegRevLexOrder)
    ring, _, o = parse_ideal_file("ring x1 x2 x3; order elim 2; gens: x1")
    assert o == BlockOrder(2) and ring.nvars == 3


def test_coefficients_and_signs():
    ring, J, _ = parse_ideal_file("ring x1 x2; char 0; "
                                  "gens: 3*x1^2 - 1/2*x2 + 4, -x1")
    f, g = J.generators
    from fractions import Fraction
    assert f.coeff_dict() == {(2, 0): 3, (0, 1): Fraction(-1, 2),
                              (0, 0): 4}
    assert g.coeff_dict() == {(1, 0): -1}


def test_repeated_variable_multiplies():
    _, J, _ = parse_ideal_file("ring x1; gens: x1*x1^2")
    assert J.generators[0].leading_monomial() == (3,)


def test_param_wrong_count():
    with pytest.raises(ParseError, match="expected 2"):
        parse_ideal_file("param n=2 m=1 d=2; f: y1^2")


def test_param_inhomogeneous_rejected():
    with pytest.raises(ValueError):
        parse_ideal_file("param n=1 m=2 d=2; f: y1^2 + y2")


def test_format_zero():
    ring = make_ring(["x1"], char=0)
    assert format_polynomial(Polynomial.zero(ring, LexOrder())) == "0"


def reprint(text):
    """The text with its polynomials parsed and printed by
    format_polynomial; the clauses before the last ':' are kept."""
    head, _, _ = text.rpartition(":")
    _, obj, _ = parse_ideal_file(text)
    polys = obj.f if isinstance(obj, Parametrisation) else obj.generators
    return f"{head}: {', '.join(format_polynomial(g) for g in polys)}"


NORMALIZED_FILES = [
    "ring x1 x2; char 0; gens: x1^2, x2^2",
    "ring x1 x2 x3; char 32003; order degrevlex; "
    "gens: 2*x1*x2 + x3^2, x1 - x3",
    "ring x1 x2 x3; order elim 1; gens: x2*x3 + 7",
    "param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2",
    "ring x1 x2; char 0; gens: 1/3*x1 - x2, x1^4",
    "param n=1 m=1 d=2; char 3; f: 2*y1^2",
    "ring x1 x2;\nchar 0;\norder elim 1;\ngens: x1 - 3/2*x2",
]


def test_round_trip_is_identity_on_normalized_files():
    for text in NORMALIZED_FILES:
        once = reprint(text)
        assert reprint(once) == once


def test_format_constants():
    ring = make_ring(["x1", "x2"], char=0)
    assert format_monomial(ring, (0, 0)) == "1"
    assert format_monomial(ring, (2, 1)) == "x1^2*x2"
    _, J, _ = parse_ideal_file("ring x1 x2; char 0; gens: x2 - 7, -1/2, 5")
    assert [format_polynomial(g) for g in J.generators] == \
        ["x2 - 7", "-1/2", "5"]


@st.composite
def random_ideal_text(draw):
    nvars = draw(st.integers(1, 3))
    names = [f"x{i + 1}" for i in range(nvars)]
    # coefficients below stay nonzero in either characteristic
    char = draw(st.sampled_from([0, 32003]))
    ngens = draw(st.integers(1, 3))
    gens = []
    for _ in range(ngens):
        nterms = draw(st.integers(1, 3))
        terms = []
        for _ in range(nterms):
            coeff = draw(st.integers(1, 50))
            mono = "*".join(
                f"{names[i]}^{draw(st.integers(1, 4))}"
                for i in draw(st.sets(st.integers(0, nvars - 1), min_size=1)))
            terms.append(f"{coeff}*{mono}")
        gens.append(" + ".join(terms))
    return f"ring {' '.join(names)}; char {char}; gens: {', '.join(gens)}"


@given(random_ideal_text())
def test_round_trip_property(text):
    _, J, _ = parse_ideal_file(text)
    once = reprint(text)
    _, J2, _ = parse_ideal_file(once)
    assert reprint(once) == once
    assert [g.coeff_dict() for g in J2.generators] == \
        [g.coeff_dict() for g in J.generators]


# the words and symbols of the grammar, a variable of no ring, a character
# outside the grammar, line breaks and whole clauses; numbers have at most
# three digits, so no file asks for a huge ring.  About half the edits land
# just after a ';', where a clause may start.
_PIECES = ["ring", "param", "char", "order", "gens", "f", "lex",
           "degrevlex", "elim", "n", "m", "d", "x1", "x3", "y1", "y3", "zz",
           ";", ":", ",", "+", "-", "*", "^", "/", "=", " ", "\n", " \n ",
           "#"]
_CLAUSES = [" char 0;", " char 3 ;", " order lex;", " order elim 2;"]


@st.composite
def mutated_file(draw):
    """A normalized file with one to four tokens inserted, deleted or
    replaced."""
    tokens = re.findall(r"\s+|\w+|.", draw(st.sampled_from(NORMALIZED_FILES)))
    piece = (st.sampled_from(_PIECES) | st.sampled_from(_CLAUSES)
             | st.integers(0, 3).map(str) | st.integers(0, 999).map(str))
    for _ in range(draw(st.integers(1, 4))):
        after = [k + 1 for k, tok in enumerate(tokens) if tok == ";"]
        at = st.integers(0, len(tokens))
        # an edit may have deleted every ';'
        i = draw(at | st.sampled_from(after) if after else at)
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        new = [] if edit == "delete" else [draw(piece)]
        tokens[i:i + (edit != "insert")] = new
    return "".join(tokens)


def reading(parse, text, char):
    """What parse makes of text: the ring, order and polynomials, or the
    exception with its position."""
    try:
        ring, obj, order = parse(text, char=char)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None))
    polys = obj.f if isinstance(obj, Parametrisation) else obj.generators
    return (ring.names, ring.char, repr(order),
            [g.coeff_dict() for g in polys])


@settings(max_examples=500, deadline=None)
@given(mutated_file(), st.sampled_from([None, 0, 3]))
def test_reader_agrees_with_char_by_char_positions(text, char):
    assert reading(parse_ideal_file, text, char) == \
        reading(parse_by_char_positions, text, char)
