"""Exterior algebra of formal forms and multivector fields on R^n.

A graded element of exterior degree k is a sparse map from strictly
increasing axis tuples (i_1 < ... < i_k, axes 1-based) to polynomial
coefficients.  Forms are spanned by dx_{i_1} ^ ... ^ dx_{i_k}, multivectors
by e_{i_1} ^ ... ^ e_{i_k} with e_i = d/dx_i.

Grading: the scaling weight of a term is (coefficient degree + k) for
forms and (coefficient degree - k) for multivectors, i.e. the eigenvalue
of pullback under scalar multiplication.

Every sign of the algebra is one rule, `_merge_sign`: the sign of the
shuffle that merges two disjoint sorted index tuples into one.  It gives
dx_I ^ dx_J, d's dx_i ^ dx_I, and the contraction, which pairs the two
kinds through the determinant pairing <e_J, dx_I> = det(delta_{j,i}):
iota_{e_J}(dx_I) = s dx_R with R = I minus J and dx_I = s dx_J ^ dx_R
(the single-factor insertions applied first factor innermost).  With this
convention star(v) := iota_v(mu) sends e_1^...^e_n to 1 and the Lefschetz
bivector to df_1 ^ df_2, and star_inv reads its sign off the same rule.

A SliceOperator is one fixed linear map on forms of differential order at
most one (delta_pi, d, a ^ . for a fixed form a, or a vector field V
acting on functions) as a stencil, its rows read off the map's
coefficients; it expands the map term by term,
both on elements and as sparse columns between the slice bases below.
d is its stencil alone: `de_rham` applies it to an element.
"""

from functools import cache
from itertools import combinations
from operator import add

from .polynomials import Polynomial, monomials_of_degree
from .rationals import exact


FORM = "form"
MULTIVECTOR = "multivector"


@cache
def _merge_sign(a, b):
    """Sorted union of disjoint index tuples and the sign of the merge; None if overlap.

    Cached: R^4 has 16 index tuples, so at most 256 pairs."""
    if set(a) & set(b):
        return None, 0
    sign = 1
    for x in b:
        # count members of a greater than x: each is one transposition
        bigger = sum(1 for y in a if y > x)
        if bigger & 1:
            sign = -sign
    return tuple(sorted(a + b)), sign


class GradedElement:
    """Exterior-degree-k form or multivector with Polynomial coefficients."""

    __slots__ = ("n", "degree", "kind", "comps")

    def __init__(self, n, degree, kind, comps=None):
        if kind not in (FORM, MULTIVECTOR):
            raise ValueError("kind must be form or multivector")
        if not 0 <= degree <= n:
            raise ValueError("exterior degree out of range")
        self.n = n
        self.degree = degree
        self.kind = kind
        clean = {}
        if comps:
            for idx, p in comps.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(set(idx)) \
                        or (idx and not (1 <= idx[0] and idx[-1] <= n)):
                    raise ValueError("bad exterior index %r" % (idx,))
                if not isinstance(p, Polynomial):
                    p = Polynomial.constant(n, p)
                if p:
                    clean[idx] = p
        self.comps = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, n, degree, kind):
        return cls(n, degree, kind)

    @classmethod
    def from_polynomial(cls, p, kind=FORM):
        return cls(p.n, 0, kind, {(): p})

    @classmethod
    def basis(cls, n, kind, idx, coeff=None):
        idx = tuple(idx)
        c = coeff if coeff is not None else Polynomial.constant(n, 1)
        return cls(n, len(idx), kind, {idx: c})

    # -- structure -----------------------------------------------------

    def is_zero(self):
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def coefficient(self, idx):
        return self.comps.get(tuple(idx), Polynomial.zero(self.n))

    def _like(self, comps):
        out = GradedElement.__new__(GradedElement)
        out.n, out.degree, out.kind = self.n, self.degree, self.kind
        out.comps = {i: p for i, p in comps.items() if p}
        return out

    def __add__(self, other):
        self._check(other)
        comps = dict(self.comps)
        for idx, p in other.comps.items():
            _accumulate(comps, idx, p)
        return self._like(comps)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({i: -p for i, p in self.comps.items()})

    def __mul__(self, scalar):
        """Multiplication by a Polynomial or rational scalar."""
        if isinstance(scalar, GradedElement):
            raise TypeError("use wedge() for exterior products")
        return self._like({i: p * scalar for i, p in self.comps.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, GradedElement) and self.n == other.n
                and self.degree == other.degree and self.kind == other.kind
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.n, self.degree, self.kind,
                     frozenset(self.comps.items())))

    def _check(self, other, same_degree=True):
        if not isinstance(other, GradedElement):
            raise TypeError("expected a GradedElement")
        if self.n != other.n or self.kind != other.kind:
            raise ValueError("kind or dimension mismatch")
        if same_degree and self.degree != other.degree:
            raise ValueError("degree mismatch")

    # -- grading ---------------------------------------------------------

    def term_weight(self, coeff_degree):
        return coeff_degree + self.degree if self.kind == FORM else coeff_degree - self.degree

    def weights(self):
        ws = set()
        for p in self.comps.values():
            for d in p.homogeneous_parts():
                ws.add(self.term_weight(d))
        return sorted(ws)

    def map_coefficients(self, fn):
        return self._like({i: fn(p) for i, p in self.comps.items()})

    def __str__(self):
        if not self.comps:
            return "0"
        atom = "dx" if self.kind == FORM else "e"
        bits = []
        for idx in sorted(self.comps):
            p = self.comps[idx]
            if idx:
                group = "[" + "^".join("%s%d" % (atom, i) for i in idx) + "]"
                bits.append("(%s)*%s" % (p, group))
            else:
                bits.append("(%s)" % p)
        return " + ".join(bits)

    __repr__ = __str__


# -- products and differentials -----------------------------------------


def _accumulate(comps, idx, p):
    """Add the polynomial p into comps[idx]; a zero sum is dropped when the
    element is built."""
    s = comps.get(idx)
    comps[idx] = p if s is None else s + p


def _pair_product(a, b, rule, degree, kind):
    """The sum of sign * pa * pb at idx over the term pairs of a and b,
    where (idx, sign) = rule(ia, ib), or (None, 0) for a vanishing pair."""
    comps = {}
    for ia, pa in a.comps.items():
        for ib, pb in b.comps.items():
            idx, sign = rule(ia, ib)
            if idx is not None:
                term = pa * pb
                _accumulate(comps, idx, term if sign > 0 else -term)
    return GradedElement(a.n, degree, kind, comps)


def wedge(a, b):
    """Exterior product; same kind required, degree overflow gives zero."""
    a._check(b, same_degree=False)
    k = a.degree + b.degree
    if k > a.n:
        return GradedElement.zero(a.n, a.n, a.kind)
    return _pair_product(a, b, _merge_sign, k, a.kind)


def wedge_all(elems):
    out = elems[0]
    for e in elems[1:]:
        out = wedge(out, e)
    return out


def de_rham(a):
    """The de Rham differential on forms, by d's stencil `de_rham_operator`."""
    if a.kind != FORM:
        raise ValueError("de_rham acts on forms")
    return de_rham_operator(a.n).apply(a)


@cache
def _contract_sign(J, I):
    """iota_{e_J}(dx_I) = sign * dx_R with R = I minus J, as (R, sign);
    (None, 0) unless J lies in I.  dx_I = sign * dx_J ^ dx_R."""
    if not set(J) <= set(I):
        return None, 0
    rest = tuple(i for i in I if i not in J)
    return rest, _merge_sign(J, rest)[1]


def contract(u, v):
    """Interior product iota_u(v) of complementary kinds, deg(u) <= deg(v).

    The result has the kind of v.  On basis elements iota_{e_J}(dx_I) is
    s * dx_R with R = I minus J and dx_I = s * dx_J ^ dx_R: the factors of
    u are inserted first factor innermost, which realizes the determinant
    pairing on equal degrees.
    """
    if not isinstance(u, GradedElement) or not isinstance(v, GradedElement):
        raise TypeError("expected GradedElements")
    if u.n != v.n or u.kind == v.kind:
        raise ValueError("contraction needs complementary kinds")
    if u.degree > v.degree:
        raise ValueError("contraction degree overflow")
    return _pair_product(u, v, _contract_sign, v.degree - u.degree, v.kind)


def volume_form(n):
    return GradedElement.basis(n, FORM, tuple(range(1, n + 1)))


def star(v):
    """The volume isomorphism X -> iota_X(mu) from multivectors to forms."""
    if v.kind != MULTIVECTOR:
        raise ValueError("star acts on multivectors")
    return contract(v, volume_form(v.n))


def star_inv(a):
    """Inverse of star: dx_I goes to s * e_J, J the complement of I and
    dx_J ^ dx_I = s * mu."""
    if a.kind != FORM:
        raise ValueError("star_inv acts on forms")
    comps = {}
    for idx, p in a.comps.items():
        target = tuple(i for i in range(1, a.n + 1) if i not in idx)
        comps[target] = p if _merge_sign(target, idx)[1] > 0 else -p
    return GradedElement(a.n, a.n - a.degree, MULTIVECTOR, comps)


def divergence(v):
    """star_inv(d(star(v))), one multivector degree lower.

    For a vector field Y this is the function div(Y) with
    L_Y mu = div(Y) mu for the standard volume mu = dx1^...^dxn; for a
    bivector it is the modular field.
    """
    return star_inv(de_rham(star(v)))


def lie_derivative(v, g):
    """Lie derivative of a form g along a vector field v by Cartan's formula;
    `derivation_operator(v)` is v on functions."""
    if not isinstance(g, GradedElement) or g.kind != FORM:
        raise ValueError("lie_derivative acts on forms; on a function h, "
                         "apply derivation_operator(v) to "
                         "GradedElement.from_polynomial(h)")
    if v.kind != MULTIVECTOR or v.degree != 1 or v.n != g.n:
        raise ValueError("lie_derivative needs a vector field on g's R^n")
    if g.degree == 0:
        return contract(v, de_rham(g))
    if g.degree == g.n:     # d of a top form is zero
        return de_rham(contract(v, g))
    return contract(v, de_rham(g)) + de_rham(contract(v, g))


# -- weight-slice bases ------------------------------------------------------


class WeightSliceBasis:
    """Deterministic monomial basis of one (exterior degree, weight) slice.

    Elements are (index tuple, monomial) pairs, ordered lexicographically on
    the index tuple and then by the local monomial order, greatest first.
    So the basis is one block of `monomials` per index tuple: the element
    (J, m) sits at offset[J] + rank[m], where `offset` maps each index tuple
    of the degree to the start of its block and `rank` each monomial of the
    slice's coefficient degree to its place in a block.
    """

    __slots__ = ("n", "degree", "weight", "kind", "coefficient_degree",
                 "monomials", "rank", "offset")

    def __init__(self, n, degree, weight, kind):
        self.n = n
        self.degree = degree
        self.weight = weight
        self.kind = kind
        d = weight - degree if kind == FORM else weight + degree
        self.coefficient_degree = d
        monos = monomials_of_degree(n, d)
        tuples = combinations(range(1, n + 1), degree) if 0 <= degree <= n else ()
        self.monomials = monos
        self.rank = {m: i for i, m in enumerate(monos)}
        self.offset = {idx: i * len(monos) for i, idx in enumerate(tuples)}

    def __len__(self):
        return len(self.offset) * len(self.monomials)

    def coords(self, elem):
        """Sparse coordinates of a slice-homogeneous element; error if it leaves the slice."""
        if elem.kind != self.kind or elem.degree != self.degree or elem.n != self.n:
            raise ValueError("element does not match slice")
        rank = self.rank
        out = {}
        for idx, p in elem.comps.items():
            start = self.offset[idx]
            for m, c in p.terms.items():
                r = rank.get(m)
                if r is None:
                    raise ValueError("element has a term outside the (%d,%d) slice"
                                     % (self.degree, self.weight))
                out[start + r] = c
        return out


_BASIS_CACHE = {}


def enumerate_basis(degree, weight, kind=FORM, n=4):
    """Cached WeightSliceBasis for the (degree, weight) slice."""
    key = (n, degree, weight, kind)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = WeightSliceBasis(n, degree, weight, kind)
    return _BASIS_CACHE[key]


# -- fixed linear maps on slices ---------------------------------------------


def _stencil_row(entries):
    """The stencil row summed from (J, t, i, v) entries, where v adds to the
    constant c0 of (J, t) when i is None and to the coefficient of m_i (axis
    position i) otherwise.

    Entries are sorted by (J, t), vanishing ones are dropped and integral
    coefficients are stored as ints, so every reader gives the same tuple
    for the same map.
    """
    acc = {}
    for J, t, i, v in entries:
        c = acc.setdefault((J, t), {})
        c[i] = c.get(i, 0) + v
    row = []
    for J, t in sorted(acc):
        c = acc[(J, t)]
        c0 = c.pop(None, 0)
        lin = tuple((i, exact(v)) for i, v in sorted(c.items()) if v)
        if c0 or lin:
            row.append((J, t, exact(c0), lin))
    return tuple(row)


# (n, source coefficient degree, shift, target coefficient degree) -> table
_SHIFT_TABLES = {}


def _lowered(s, i):
    """The exponent s minus the unit exponent of axis i (1-based)."""
    return s[:i - 1] + (s[i - 1] - 1,) + s[i:]


class SliceOperator:
    """A fixed linear map fn on the forms of R^n, as a stencil.

    fn has polynomial coefficients and differential order at most one, so
    d brings down at most one exponent and

        fn(x^m dx_I) = sum (c0 + c.m) x^(m+t) dx_J

    over a short row of (J, t, c0, c) that depends on I and fn but not on m,
    with every shift t >= -1.  A shift t_i = -1 comes only from d/dx_i
    acting on x^m, so its coefficient is a multiple of m_i and no negative
    exponent is ever produced.  c is sparse, a tuple of (axis position,
    coefficient) pairs, and coefficients with denominator 1 are ints.

    `read(I)` gives the row of I; `rows` caches it from the first use on.
    The rows of delta_pi (poisson.py), d (`de_rham_operator`) and a vector
    field on functions (`derivation_operator`) are read off the
    coefficients of the map in closed form, and those of a wedge
    by a fixed form a (`wedge_operator`, a product with a polynomial being
    the wedge by a 0-form) off the one element a ^ dx_I.  fn of a degree-k
    form has degree k + shift, clamped to 0..n as the zero elements of the
    algebra are.  `apply` refuses a multivector and a form on another R^n,
    whose terms the rows do not describe.  `compose` composes the rows of
    fn o inner for another operator inner, so an identity between
    composites, such as delta_pi o delta_pi = 0, is checked once for every
    weight.
    """

    __slots__ = ("read", "n", "shift", "rows")

    def __init__(self, read, n, shift):
        self.read = read
        self.n = n
        self.shift = shift
        self.rows = {}

    def row(self, idx):
        """The row (J, t, c0, c) of fn(x^m dx_idx); cached."""
        row = self.rows.get(idx)
        if row is None:
            row = self.rows[idx] = self.read(idx)
        return row

    def compose(self, inner, idx):
        """fn(inner(x^m dx_idx)) for every m at once: {(K, u): q} over the
        nonzero coefficients q of x^(m+u) dx_K, each a polynomial of degree
        at most 2 in m, as a dict from () (the constant), i (for m_i) and
        (i, j) with i <= j (for m_i m_j), axis positions, to coefficients.

        The term (c0 + c.m) x^(m+t) dx_J of inner's row of idx meets the
        row (K, s, d0, d) of J at m + t and adds (c0 + c.m)(d0 + d.(m+t))
        at u = t + s.  That holds at every m >= 0: where m + t leaves the
        exponents, t_i = -1 and c0 + c.m is a multiple of m_i = 0 (so too
        for the second factor at m + t + s).  A polynomial in m that
        vanishes at every m >= -u is zero, so two composites agree on the
        terms of index idx, at every weight, exactly when these dicts are
        equal, and fn o fn vanishes there exactly when `compose(self, idx)`
        is empty.
        """
        acc = {}
        for J, t, c0, c in inner.row(idx):
            for K, s, d0, d in self.row(J):
                e0 = d0
                for j, dj in d:
                    e0 += dj * t[j]
                key = (K, tuple(map(add, t, s)))
                q = acc.get(key)
                if q is None:
                    q = acc[key] = {}
                # (c0 + c.m)(e0 + d.m), term by term
                if c0:
                    q[()] = q.get((), 0) + c0 * e0
                    for j, dj in d:
                        q[j] = q.get(j, 0) + c0 * dj
                for i, ci in c:
                    q[i] = q.get(i, 0) + ci * e0
                    for j, dj in d:
                        ij = (i, j) if i <= j else (j, i)
                        q[ij] = q.get(ij, 0) + ci * dj
        return {Ku: nonzero for Ku, q in acc.items()
                if (nonzero := {key: v for key, v in q.items() if v})}

    def columns(self, src, dst, skip=()):
        """Sparse columns of fn from the slice basis src into the slice basis
        dst, in src order.

        Each shift t of a row is one table: the rank in dst of m + t for
        every monomial m of src, None where m + t is not a monomial of dst.
        A table depends only on n, the two coefficient degrees and t, so it
        is built once per process (`_SHIFT_TABLES`), for every operator.
        The image of (I, m) at (J, t) then sits at dst.offset[J] +
        table[rank of m].  The columns at the src positions in `skip` are
        neither computed nor returned: a caller that has proved them
        dependent, or does not read them, leaves them out.
        """
        monos, rank = src.monomials, dst.rank
        out = []
        for idx, start in src.offset.items():
            entries = []
            for J, t, c0, c in self.row(idx):
                key = (self.n, src.coefficient_degree, t, dst.coefficient_degree)
                table = _SHIFT_TABLES.get(key)
                if table is None:
                    table = [rank.get(tuple(map(add, m, t))) for m in monos]
                    _SHIFT_TABLES[key] = table
                entries.append((dst.offset.get(J), table, c0, c))
            for r, m in enumerate(monos):
                if start + r in skip:
                    continue
                col = {}
                for off, table, c0, c in entries:
                    v = c0
                    for i, ci in c:
                        v += ci * m[i]
                    if v:
                        k = table[r]
                        if k is None or off is None:
                            raise ValueError(
                                "the image of the (%d,%d) slice leaves the "
                                "(%d,%d) slice" % (src.degree, src.weight,
                                                   dst.degree, dst.weight))
                        col[off + k] = v
                out.append(col)
        return out

    def image(self, src, dst, vectors):
        """The images under fn of sparse vectors over the slice basis src,
        as sparse vectors over dst, from the columns at their support alone."""
        support = sorted(set().union(*vectors))
        unread = set(range(len(src))).difference(support)
        cols = dict(zip(support, self.columns(src, dst, unread)))
        out = []
        for vec in vectors:
            img = {}
            for p, x in vec.items():
                for k, v in cols[p].items():
                    img[k] = img.get(k, 0) + v * x
            out.append({k: v for k, v in img.items() if v})
        return out

    def apply_terms(self, idx, terms, comps):
        """Add fn(sum c x^m dx_idx) for terms {m: c} into comps {J: {m: c}},
        zeros left in, and return comps: the loop of `apply` and the split's."""
        for J, t, c0, c in self.row(idx):
            out = comps.setdefault(J, {})
            for m, coeff in terms.items():
                v = c0
                for i, ci in c:
                    v += ci * m[i]
                if v:
                    mt = tuple(map(add, m, t))
                    out[mt] = out.get(mt, 0) + coeff * v
        return comps

    def apply(self, a):
        """fn(a) for any form a on R^n."""
        if a.kind != FORM:
            raise ValueError("the operator acts on forms, not %ss" % a.kind)
        if a.n != self.n:
            raise ValueError("dimension mismatch: an element on R^%d, an "
                             "operator on R^%d" % (a.n, self.n))
        comps = {}
        for idx, p in a.comps.items():
            self.apply_terms(idx, p.terms, comps)
        out = a._like({})     # unchecked: the rows make no bad index or exponent
        out.degree = min(max(a.degree + self.shift, 0), self.n)
        out.comps = {J: Polynomial._of(a.n, nonzero) for J, t in comps.items()
                     if (nonzero := {m: exact(c) for m, c in t.items() if c})}
        return out


@cache
def de_rham_operator(n):
    """The SliceOperator of d on the forms of R^n, its rows in closed form:
    d(x^m dx_I) = sum over i not in I of m_i x^(m - e_i) dx_i ^ dx_I."""
    def read(idx):
        entries = []
        for i in range(1, n + 1):
            J, sign = _merge_sign((i,), idx)
            if J is not None:
                entries.append((J, _lowered((0,) * n, i), i - 1, sign))
        return _stencil_row(entries)

    return SliceOperator(read, n, 1)


@cache
def wedge_operator(a):
    """The SliceOperator of b -> a ^ b for a fixed form a; cached.

    a ^ (x^m dx_I) = x^m (a ^ dx_I), so the row of I is read off a ^ dx_I
    alone: its terms c x^t dx_J, with no c in m."""
    def read(idx):
        image = wedge(a, GradedElement.basis(a.n, FORM, idx))
        return _stencil_row((J, t, None, v) for J, p in image.comps.items()
                            for t, v in p.terms.items())

    return SliceOperator(read, a.n, a.degree)


@cache
def derivation_operator(v):
    """The SliceOperator of h -> v(h) on functions for a fixed vector field
    v, its row in closed form from v's terms: for each term c x^s e_i,
    c x^s d_i(x^m) = c m_i x^(m + s - e_i).  It has a row for 0-forms only,
    and is the one reader of a field on functions in the package."""
    if v.kind != MULTIVECTOR or v.degree != 1:
        raise ValueError("derivation_operator needs a vector field")

    def read(idx):
        if idx:
            raise ValueError("a vector field acts on functions, not on "
                             "%d-forms" % len(idx))
        return _stencil_row(((), _lowered(s, i), i - 1, c)
                            for (i,), p in v.comps.items()
                            for s, c in p.terms.items())

    return SliceOperator(read, v.n, 0)
