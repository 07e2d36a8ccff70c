"""Expression front end for polynomials.

Grammar (ASCII only, whitespace-insensitive):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ['^' INT]
    atom    := RATIONAL | VAR | '(' expr ')'
    RATIONAL:= INT ['/' INT]
    VAR     := 'x' INT

'^' is an integer power.  Exponents must be non-negative; unicode input
is rejected.  A polynomial's `str` round-trips through parsing.  A product
of two sums, or a power of a sum, is refused before it is expanded past
MAX_DEGREE, the working weight cap; a monomial factor is exempt.
"""

import re
import sys

from .polynomials import Polynomial
from .rationals import Q


class ParseError(ValueError):
    """Syntax or semantic error with a byte offset into the source."""

    def __init__(self, message, pos):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


MAX_DEGREE = 20     # the working weight cap of cli.WEIGHT_CAPS
_PAST_CAP = "%%s of degree %%d beyond configured maximum %d" % MAX_DEGREE

# raised where an integer is longer than the interpreter converts to decimal
_TOO_LONG = "coefficient with more than %d digits cannot be printed"
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>x(?=\d))|(?P<op>[-+*/^()]))")


def _tokenize(src):
    if not src.isascii():
        raise ParseError("non-ASCII input rejected", 0)
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            rest = src[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError("unexpected character %r" % src[bad], bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.i = 0
        self.n = 4

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind and tok[0] != kind or value is not None and tok[1] != value:
            raise ParseError("expected %s" % (value or kind), tok[2])
        self.i += 1
        return tok

    def _int(self):
        tok = self.take("num")
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(_TOO_LONG % sys.get_int_max_str_digits(),
                             tok[2]) from None

    def _axis(self, tok_pos):
        k = self._int()
        if not 1 <= k <= self.n:
            raise ParseError("axis index out of range 1..%d" % self.n, tok_pos)
        return k

    def expr(self):
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] == "*":
                self.take()
                rhs = self.factor()
                degree = value.degree() + rhs.degree()
                if min(len(value.terms), len(rhs.terms)) > 1 and degree > MAX_DEGREE:
                    raise ParseError(_PAST_CAP % ("product", degree), tok[2])
                value = value * rhs
            else:
                return value

    def factor(self):
        value = self.atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.take()
            neg = self.peek()
            if neg[0] == "op" and neg[1] == "-":
                raise ParseError("negative exponents rejected", neg[2])
            k = self._int()
            if len(value.terms) > 1 and k > 1 and value.degree() * k > MAX_DEGREE:
                raise ParseError(_PAST_CAP % ("power", value.degree() * k), tok[2])
            value = value ** k
        return value

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            num = self._int()
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den = self._int()
                if den == 0:
                    raise ParseError("zero denominator", nxt[2])
                return Polynomial.constant(self.n, Q(num, den))
            return Polynomial.constant(self.n, num)
        if tok[0] == "var":
            self.take()
            return Polynomial.variable(self.n, self._axis(tok[2]))
        if tok[0] == "op" and tok[1] == "(":
            self.take()
            value = self.expr()
            self.take("op", ")")
            return value
        raise ParseError("expected a value", tok[2])


def parse_polynomial(src):
    """Parse to a Polynomial on R^4 whose coefficients print."""
    p = _Parser(src)
    value = p.expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError("trailing input", tok[2])
    try:
        str(value)
    except ValueError:
        raise ParseError(_TOO_LONG % sys.get_int_max_str_digits(), 0) from None
    return value
