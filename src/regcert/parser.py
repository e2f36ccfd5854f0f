"""Text format for ideals and parametrisations, with a canonical printer
for polynomials.

    ring x1 x2 x3 ; char 32003 ; order lex ; gens: x1^2 + x2*x3, x3^2
    param n=3 m=2 d=2 ; f: y1^2, y1*y2, y2^2

The char and order clauses are optional (defaults: 32003, lex); a char
passed to parse_ideal_file overrides the clause.  format_polynomial emits
the canonical normalized form of a polynomial; parsing its output and
printing again is byte-identical.
"""

import re
from fractions import Fraction

from .groebner import IdealPresentation, Parametrisation
from .rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial,
                    make_ring)
from .scalars import DEFAULT_PRIME, check_characteristic


class ParseError(ValueError):
    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<nat>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[;:,+\-*^/=])
""", re.VERBOSE)


def _tokenize(text):
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


class _Parser:
    def __init__(self, text, char=None):
        self.tokens = _tokenize(text)
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

    # -- clauses ------------------------------------------------------------

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

    # -- polynomials ---------------------------------------------------------

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
        saw_var = False
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
                if saw_var:
                    break
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
            saw_var = True
            if not self.accept("sym", "*"):
                break
        return K(sign * coeff), tuple(exps)


def parse_ideal_file(text, char=None):
    """Parse an ideal or parametrisation file; char, when given, replaces
    the file's characteristic before any coefficient is read.

    Returns (ring, IdealPresentation | Parametrisation, order)."""
    return _Parser(text, char).parse_file()


# ---------------------------------------------------------------------------
# canonical printer

def _format_coeff(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def format_monomial(ring, m):
    parts = []
    for name, e in zip(ring.names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def format_polynomial(f):
    if f.is_zero():
        return "0"
    chunks = []
    for idx, (c, m) in enumerate(f.terms):
        neg = isinstance(c, Fraction) and c < 0
        mag = -c if neg else c
        mono = format_monomial(f.ring, m)
        if not any(m):
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        if idx == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)
