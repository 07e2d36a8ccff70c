"""Exact rational linear algebra over sparse data.

Everything here is exact: no floats, no tolerances, no modular arithmetic.
Ranks, containment tests and solved coordinates all come from one
incremental echelon of integer rows, `QEchelon`.  A rational input vector
is cleared of its denominators on entry (`integer_row`); each elimination
step is fraction-free, vec <- m*vec - t*row, and divides out the content
of the row whenever m != 1 (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968), so entries
stay small without any rational arithmetic.  Every reduced vector is a
nonzero multiple of the one rational elimination along the same pivots
gives, so ranks, containment and solved coordinates are exactly those of
a rational echelon.  `solve` hands its coordinates out as ints over one
positive scale, so no Fraction is built here.  `QEchelon.quotient` solves
modulo a span eliminated once without tracking, such as the boundaries of
one slice.  The function `echelon` eliminates columns in the order given.
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
    """(D, D*vec) for a sparse rational vector, D the lcm of its denominators.

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
        return 1, row
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
    return den, row


class InvariantViolation(Exception):
    """A certified step of a computation failed; never silently ignored."""


def _divide(vec, g):
    for j in vec:
        vec[j] //= g


class QEchelon:
    """Integer echelon rows with optional coordinates over inserted generators.

    `rows` maps each pivot column to a pair (main, aug) of sparse integer
    dicts with main = sum aug[i] * generator_i.  The pair is primitive and
    main's pivot entry, at its smallest column, is positive.
    """

    __slots__ = ("rows", "track", "count")

    def __init__(self):
        self.rows = {}     # pivot col -> (main dict, aug dict)
        self.track = False
        self.count = 0

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec, aug):
        # invariant: vec = sum aug[i] * generator_i (aug may be None when
        # coordinates are not wanted).  Stored pivots present in vec are
        # visited in ascending order; reducing by a row only touches its
        # pivot and larger columns.
        rows = self.rows
        heap = [j for j in vec if j in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            t = vec.get(p)
            if not t:
                continue
            main, raug = rows[p]
            a = main[p]
            g = gcd(t, a)
            m, t = a // g, t // g
            if m != 1:
                for j in vec:
                    vec[j] *= m
                if aug is not None:
                    for j in aug:
                        aug[j] *= m
            for j, v in main.items():
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
            if aug is not None:
                for j, v in raug.items():
                    nv = aug.get(j, 0) - t * v
                    if nv:
                        aug[j] = nv
                    else:
                        aug.pop(j, None)
            if m != 1:
                g = gcd(*vec.values())
                if aug and g != 1:
                    g = gcd(g, *aug.values())
                if g > 1:
                    _divide(vec, g)
                    if aug:
                        _divide(aug, g)

    def insert(self, vec):
        """Insert generator; its coordinate index is the insertion count."""
        den, v = integer_row(vec)
        aug = {self.count: den} if self.track else None
        self.count += 1
        self._reduce(v, aug)
        if not v:
            return False
        return self._store(v, aug if aug is not None else {})

    def _store(self, v, aug):
        """Store the reduced nonzero v with coordinates aug as a primitive row."""
        p = min(v)
        g = gcd(*v.values(), *aug.values())
        if v[p] < 0:
            g = -g
        if g != 1:
            _divide(v, g)
            _divide(aug, g)
        self.rows[p] = (v, aug)
        return True

    def solve(self, vec):
        """(s, coords) with s*vec = sum coords[i] * generator_i, or None.

        Needs tracking (`quotient`).  s is a positive int, coords maps
        generator index -> nonzero int, and s and the coords share no
        factor, so coords[i] / s are the rational coordinates of vec.
        """
        if not self.track:
            raise ValueError("echelon was built without coordinate tracking")
        den, v = integer_row(vec)
        # vec enters as a would-be generator at the next index; its
        # coordinate there stays a positive scale s, and once vec reduces
        # to zero, s*vec + sum aug[i]*generator_i = 0
        aug = {self.count: den}
        self._reduce(v, aug)
        if v:
            return None
        s = aug.pop(self.count)
        g = gcd(s, *aug.values())
        return s // g, {j: -c // g for j, c in aug.items()}

    def quotient(self):
        """Tracked echelon that solves modulo this span.

        Its rows start as these rows with their coordinates dropped, so
        reducing by one only scales the tracked coordinates, and `solve`
        gives coordinates over the generators inserted into the view."""
        out = QEchelon()
        out.track = True
        out.rows = {p: (main, {}) for p, (main, _) in self.rows.items()}
        return out

    def contains(self, vec):
        _, v = integer_row(vec)
        self._reduce(v, None)
        return not v


def echelon(columns):
    """Untracked echelon of the span of columns, the nonzero ones inserted
    in the order given."""
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
