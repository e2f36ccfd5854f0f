"""Text format for ideals and parametrisations, with a canonical printer
for polynomials.

    ring x1 x2 x3 ; char 32003 ; order lex ; gens: x1^2 + x2*x3, x3^2
    param n=3 m=2 d=2 ; f: y1^2, y1*y2, y2^2

The char and order clauses are optional (defaults: 32003, lex); a char
passed to parse_ideal_file overrides the clause.  format_polynomial emits
the canonical normalized form of a polynomial; parsing its output and
printing again is byte-identical.

A token carries its offset in the text; the line and column of a
ParseError are worked out from that offset only when it is raised.
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


def _raise_at(text, pos, message):
    raise ParseError(message, text.count("\n", 0, pos) + 1,
                     pos - text.rfind("\n", 0, pos))


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<nat>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[;:,+\-*^/=])
""", re.VERBOSE)


def _tokenize(text):
    """(kind, value, offset) for each token, then ("eof", "", len(text))."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            _raise_at(text, pos, f"unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, text, char=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.char = char  # overrides the file's char clause

    def error(self, msg, tok=None):
        tok = tok or self.tokens[min(self.i, len(self.tokens) - 1)]
        _raise_at(self.text, tok[2], msg)

    def expect(self, kind, value=None):
        tok = self.tokens[self.i]
        self.i += 1
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            self.error(f"expected {want!r}, found {tok[1] or 'end of input'!r}",
                       tok)
        return tok

    def accept(self, kind, value=None):
        tok = self.tokens[self.i]
        if tok[0] == kind and (value is None or tok[1] == value):
            self.i += 1
            return tok
        return None

    def parse_file(self):
        if self.accept("ident", "ring"):
            names = []
            while tok := self.accept("ident"):
                names.append(tok[1])
            if not names:
                self.error("expected at least one variable name")
            self.expect("sym", ";")
            char, order = self.clauses(len(names))
            ring, polys = self.poly_list("gens", names, char, order)
            return ring, IdealPresentation.from_polynomials(ring, polys), order
        if not self.accept("ident", "param"):
            self.error("file must start with 'ring' or 'param'")
        vals = []
        for key in "nmd":
            self.expect("ident", key)
            self.expect("sym", "=")
            vals.append(self.number(self.expect("nat")))
        n, m, d = vals
        self.expect("sym", ";")
        char, order = self.clauses(None)
        # a generator, so the names are built only after 'f:'
        ring, polys = self.poly_list("f", (f"y{i + 1}" for i in range(m)),
                                     char, order)
        if len(polys) != n:
            self.error(f"expected {n} image polynomials, found {len(polys)}")
        return ring, Parametrisation(n, m, d, tuple(polys), ring), order

    def clauses(self, nvars):
        """(char, order) of the optional clauses: any run of 'char P ;' and
        'order O ;' in a ring file of nvars variables, at most one
        'char P ;' in a param file (nvars None)."""
        char, order = DEFAULT_PRIME, LexOrder()
        while True:
            if self.accept("ident", "char"):
                tok = self.expect("nat")
                value = self.number(tok)
                try:
                    char = check_characteristic(value)
                except ValueError as exc:
                    self.error(str(exc), tok)
            elif nvars is not None and self.accept("ident", "order"):
                tok = self.expect("ident")
                if tok[1] == "lex":
                    order = LexOrder()
                elif tok[1] == "degrevlex":
                    order = DegRevLexOrder()
                elif tok[1] == "elim":
                    k = self.number(self.expect("nat"))
                    if not 0 <= k <= nvars:
                        self.error("elimination split out of range", tok)
                    order = BlockOrder(k)
                else:
                    self.error(f"unknown order {tok[1]!r}", tok)
            else:
                return char, order
            self.expect("sym", ";")
            if nvars is None:
                return char, order

    def poly_list(self, keyword, names, char, order):
        """'keyword: poly, ..., poly' to the end of input, read in the ring
        on names, which is built only after the keyword and its colon."""
        self.expect("ident", keyword)
        self.expect("sym", ":")
        ring = make_ring(names, char=char if self.char is None else self.char)
        polys = [self.parse_poly(ring, order)]
        while self.accept("sym", ","):
            polys.append(self.parse_poly(ring, order))
        self.expect("eof")
        return ring, polys

    # -- polynomials ---------------------------------------------------------

    def parse_poly(self, ring, order):
        terms = [self.parse_term(ring, -1 if self.accept("sym", "-") else 1)]
        while tok := self.accept("sym", "+") or self.accept("sym", "-"):
            terms.append(self.parse_term(ring, -1 if tok[1] == "-" else 1))
        return Polynomial.from_terms(ring, order, terms)

    def parse_term(self, ring, sign):
        K = ring.field
        coeff = 1
        exps = [0] * ring.nvars
        if tok := self.accept("nat"):
            coeff = K(self.number(tok))
            if self.accept("sym", "/"):
                den_tok = self.expect("nat")
                den = K(self.number(den_tok))
                if not den:
                    self.error(f"zero denominator in characteristic "
                               f"{ring.char}", den_tok)
                coeff = K(coeff * K.inv(den))
            if not self.accept("sym", "*"):
                if self.tokens[self.i][0] == "ident":
                    self.error("missing '*' between coefficient and variable")
                return K(sign * coeff), tuple(exps)
        # a variable starts the rest of the term and follows each '*'
        while True:
            tok = self.tokens[self.i]
            if tok[0] != "ident":
                self.error(f"expected a term, found "
                           f"{tok[1] or 'end of input'!r}")
            self.i += 1
            if tok[1] not in ring.names:
                self.error(f"unknown variable {tok[1]!r}", tok)
            idx = ring.names.index(tok[1])
            power = 1
            if self.accept("sym", "^"):
                power = self.number(self.expect("nat"))
            exps[idx] += power
            if not self.accept("sym", "*"):
                return K(sign * coeff), tuple(exps)

    def number(self, tok):
        """The value of a nat token; one with more digits than int() reads
        (sys.get_int_max_str_digits) is an error at the token."""
        try:
            return int(tok[1])
        except ValueError:
            self.error(f"number of {len(tok[1])} digits is too long", tok)


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
