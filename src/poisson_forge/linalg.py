"""Exact rational linear algebra over sparse data.

Everything here is exact: no floats, no tolerances, no modular arithmetic.
Ranks, containment tests and residuals all come from one incremental
echelon of integer rows, `QEchelon`, which keeps no coordinates over what
was inserted.  A rational input vector is cleared of its denominators on
entry (`integer_row`); each elimination step is fraction-free,
vec <- m*vec - t*row, and divides out the content of the row whenever
m != 1 (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968), so entries stay small without
any rational arithmetic.  Every reduced vector is a nonzero multiple of
the one rational elimination along the same pivots gives, so ranks and
containment are exactly those of a rational echelon.  `residual` hands
out that reduced vector: modulo a span eliminated once, such as the
boundaries of one slice, it stands for a class, so a second small
echelon of residuals works in the quotient with no tracked coordinates.
The function `echelon` eliminates columns in the order given.
`ExactMatrix` is the column store that slice matrices are written in, and
its `echelon` inserts the columns last first, with no sort.  On the
banded slice matrices of delta_pi that order fills in little: the
boundary echelons of weight 11 alone took 0.37 s inserted last first,
0.82 s sparsest first and 2.9 s in source order (Python 3.11, one core
of a shared 2-core machine).  A slice matrix may also leave out the
columns a caller has already proved dependent: if a kernel vector of the
matrix has its smallest index at p, column p lies in the span of the
columns after it, so dropping the smallest indices of kernel vectors
whose smallest indices are distinct keeps the span (by downward
induction over those indices), whatever the order of insertion.
Every exact certificate of the package raises `InvariantViolation` on failure.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rationals import exact


def integer_row(vec):
    """D*vec for a sparse rational vector, D the lcm of its denominators.

    The row is a new dict with no zeros: the caller's vector is never
    handed back, since elimination changes its row in place.  An all-int
    vector, which every slice column of the Lefschetz case is, is copied
    in one pass.
    """
    row = {}
    for j, c in vec.items():
        if type(c) is not int:
            break
        if c:
            row[j] = c
    else:
        return row
    row = {}
    den = 1
    for j, c in vec.items():
        if not hasattr(c, "denominator"):
            c = exact(c)               # floats raise TypeError here
        if c:
            row[j] = c
            if c.denominator != 1:
                den = lcm(den, c.denominator)
    for j, c in row.items():
        row[j] = int(c.numerator) * (den // c.denominator)
    return row


class InvariantViolation(Exception):
    """A certified step of a computation failed; never silently ignored."""


def _divide(vec, g):
    for j in vec:
        vec[j] //= g


class QEchelon:
    """Integer echelon rows of an inserted span, with no coordinates.

    `rows` maps each pivot column to a pair (row, ()), the row a primitive
    sparse integer dict whose pivot entry, at its smallest column, is
    positive.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        # Stored pivots present in vec are visited in ascending order;
        # reducing by a row only touches its pivot and larger columns, so
        # no pivot entry is left at the end.
        rows = self.rows
        heap = [j for j in vec if j in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            t = vec.get(p)
            if not t:
                continue
            row = rows[p][0]
            a = row[p]
            g = gcd(t, a)
            m, t = a // g, t // g
            if m != 1:
                for j in vec:
                    vec[j] *= m
            for j, v in row.items():
                old = vec.get(j)
                if old is None:
                    vec[j] = -t * v
                    if j in rows:
                        heappush(heap, j)
                else:
                    nv = old - t * v
                    if nv:
                        vec[j] = nv
                    else:
                        del vec[j]
            if m != 1:
                g = gcd(*vec.values())
                if g > 1:
                    _divide(vec, g)

    def insert(self, vec):
        """Insert vec; True iff it raised the rank."""
        v = integer_row(vec)
        self._reduce(v)
        if not v:
            return False
        self._store(v)
        return True

    def _store(self, v):
        """Store a reduced nonzero v as a primitive row."""
        p = min(v)
        g = gcd(*v.values())
        if v[p] < 0:
            g = -g
        if g != 1:
            _divide(v, g)
        self.rows[p] = (v, ())   # a pair, as bench/tracer.py unpacks it

    def contains(self, vec):
        v = integer_row(vec)
        self._reduce(v)
        return not v

    def residual(self, vec):
        """vec reduced by the rows: a nonzero multiple of vec minus its part
        in the span, as a new integer dict with no entry at any pivot.

        It is empty iff vec is in the span.  Up to that scale it is linear
        in vec with the span as kernel, so residuals modulo a span of
        boundaries stand for classes.
        """
        v = integer_row(vec)
        self._reduce(v)
        return v


def echelon(columns):
    """Echelon of the span of columns, the nonzero ones inserted in the
    order given."""
    ech = QEchelon()
    for col in columns:
        if col:
            ech.insert(col)
    return ech


class ExactMatrix:
    """Sparse exact matrix stored by column, with no stored zeros.

    `columns[c]` is a sparse dict row -> nonzero int or Q, stored as given.
    """

    __slots__ = ("rows", "columns")

    def __init__(self, columns, rows):
        self.rows = rows
        self.columns = columns

    @property
    def cols(self):
        return len(self.columns)

    @property
    def entries(self):
        """{(row, col): value} for every stored entry."""
        return {(r, c): v for c, col in enumerate(self.columns)
                for r, v in col.items()}

    def echelon(self):
        """Echelon of the column span, the columns inserted last first."""
        return echelon(reversed(self.columns))
