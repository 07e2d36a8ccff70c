"""Multivariate polynomials with exact rational coefficients.

These are the finite truncations of the formal power series ring
R[[x_1, ..., x_n]].  A monomial is a tuple of n non-negative exponents;
a polynomial is a sparse map monomial -> nonzero exact scalar (an int
when integral, else a Fraction; see `rationals.exact`).

Monomials carry the local ordering used for standard-basis reductions:
lower total degree is GREATER (so the constant monomial is the maximum),
and ties are broken on the first differing exponent, larger exponent
winning.  This is the ordering ">" used for leading monomials.
"""

import sys
from functools import cmp_to_key
from math import lcm
from operator import add

from .rationals import Q, exact


def monomial_cmp(a, b):
    """Local order: return 1 if a > b, -1 if a < b, 0 if equal."""
    if len(a) != len(b):
        raise ValueError("monomial dimension mismatch")
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da < db else -1
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


# Sorting with this key lists monomials in decreasing local order
# (greatest first), which is the canonical term order everywhere.
monomial_key = cmp_to_key(lambda a, b: -monomial_cmp(a, b))


def monomials_of_degree(n, d):
    """All degree-d monomials in n variables, greatest first under the local order."""
    if d < 0:
        return []
    out = []

    def rec(prefix, rest, left):
        if rest == 1:
            out.append(prefix + (left,))
            return
        for e in range(left, -1, -1):
            rec(prefix + (e,), rest - 1, left - e)

    rec((), n, d)
    # same degree, so the local order is plain exponent-lex, largest first
    return out


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for m, c in terms.items():
                if len(m) != n or any(e < 0 for e in m):
                    raise ValueError("bad monomial %r for dimension %d" % (m, n))
                c = exact(c)
                if c != 0:
                    clean[m] = c
        self.terms = clean
        self._hash = None

    @staticmethod
    def _of(n, terms):
        """Unchecked constructor: terms already map valid monomials to
        nonzero exact scalars."""
        out = Polynomial.__new__(Polynomial)
        out.n, out.terms, out._hash = n, terms, None
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i):
        """x_i, with i in 1..n."""
        if not 1 <= i <= n:
            raise ValueError("variable index out of range")
        m = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {m: 1})

    @classmethod
    def monomial(cls, n, m, c=1):
        return cls(n, {tuple(m): c})

    # -- queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def homogeneous_parts(self):
        """Map degree -> homogeneous component, nonzero components only."""
        parts = {}
        for m, c in self.terms.items():
            parts.setdefault(sum(m), {})[m] = c
        return {d: Polynomial._of(self.n, t) for d, t in sorted(parts.items())}

    def constant_term(self):
        return self.terms.get((0,) * self.n, 0)

    def coefficient(self, m):
        return self.terms.get(tuple(m), 0)

    def leading_term(self):
        """(monomial, coefficient) maximal under the local order; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        m = min(self.terms, key=monomial_key)
        return m, self.terms[m]

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("polynomial dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s if type(s) is int else exact(s)
            else:
                terms.pop(m, None)
        return Polynomial._of(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = exact(other)
            if c == 0:
                return Polynomial.zero(self.n)
            return Polynomial._of(self.n, {m: exact(v * c)
                                           for m, v in self.terms.items()})
        self._check(other)
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(map(add, ma, mb))
                s = terms.get(m, 0) + ca * cb
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        for m, c in terms.items():
            if type(c) is not int:
                terms[m] = exact(c)
        return Polynomial._of(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent")
        out = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def diff(self, i):
        """Partial derivative with respect to x_i (i in 1..n)."""
        if not 1 <= i <= self.n:
            raise ValueError("variable index out of range")
        j = i - 1
        # distinct monomials have distinct derivatives: nothing to collect
        return Polynomial._of(self.n, {m[:j] + (m[j] - 1,) + m[j + 1:]:
                                       c * m[j] if type(c) is int
                                       else exact(c * m[j])
                                       for m, c in self.terms.items() if m[j]})

    def inverse_slices(self, d):
        """The slices r_0..r_d of 1/self as (N_k, den_k), r_k = N_k/den_k with
        N_k a map monomial -> nonzero int and den_k > 0.  They are read off
        self * (1/self) = 1 on integer numerators: with D = +-(the lcm of the
        denominators through degree d), G = D*self and G_0 = G(0) > 0, r_k =
        D R_k / G_0^(k+1) for R_0 = 1 and R_k = -sum_{j=1..k} G_j R_{k-j}
        G_0^(j-1); the terms above degree d play no part."""
        c = self.constant_term()
        if d < 0:
            raise ValueError("no power series inverse through degree %d" % d)
        if not c:
            raise ValueError("no power series inverse: zero constant term")
        terms = [(sum(m), m, v) for m, v in self.terms.items() if sum(m) <= d]
        D = lcm(*(v.denominator for _, _, v in terms)) * (1 if c > 0 else -1)
        G0 = int(c * D)
        # the factor -G_j G_0^(j-1) of R_{k-j} in R_k, term by term
        factors = [(j, m, -int(v * D) * G0 ** (j - 1)) for j, m, v in terms if j]
        R = [{(0,) * self.n: 1}]
        for k in range(1, d + 1):
            acc = {}
            for j, ma, ca in factors:
                for mb, cb in R[k - j].items() if j <= k else ():
                    m = tuple(map(add, ma, mb))
                    acc[m] = acc.get(m, 0) + ca * cb
            R.append({m: v for m, v in acc.items() if v})
        return [({m: v * D for m, v in Rk.items()}, G0 ** (k + 1))
                for k, Rk in enumerate(R)]

    def inverse(self, d):
        """1/self as a power series through total degree d (`inverse_slices`)."""
        return Polynomial.of_slices(self.n, self.inverse_slices(d))

    @staticmethod
    def of_slices(n, slices):
        """sum N/den over (N, den), N integer term maps on distinct monomials."""
        return Polynomial._of(n, {m: v // den if v % den == 0 else Q(v, den)
                                  for N, den in slices for m, v in N.items()})

    # -- comparison / hashing / printing ------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, float):
                return NotImplemented
            return self.terms == Polynomial.constant(self.n, other).terms
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self):
        """Terms listed greatest-monomial-first under the local order."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=monomial_key)]

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            factors = ["x%d%s" % (i + 1, "" if e == 1 else "^%d" % e)
                       for i, e in enumerate(m) if e]
            if not factors:
                bits.append(_coeff_str(c))
            elif c == 1:
                bits.append("*".join(factors))
            elif c == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append(_coeff_str(c) + "*" + "*".join(factors))
        s = bits[0]
        for b in bits[1:]:
            s += " - " + b[1:] if b.startswith("-") else " + " + b
        return s

    __repr__ = __str__


def _coeff_str(c):
    try:
        return (str(c.numerator) if c.denominator == 1
                else "%s/%s" % (c.numerator, c.denominator))
    except ValueError:      # longer than the interpreter converts to decimal
        raise ValueError("coefficient with more than %d digits cannot be "
                         "printed" % sys.get_int_max_str_digits()) from None
