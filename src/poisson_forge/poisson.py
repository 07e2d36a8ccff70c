"""Jacobi-Poisson structures and their differentials.

A Jacobi-Poisson structure on R^n is determined by n-2 functions through

    {g, h} mu = dg ^ dh ^ df_1 ^ ... ^ df_{n-2},

equivalently star(pi) = df_1 ^ ... ^ df_{n-2}.  The Koszul-Brylinski
differential on forms is defined as

    delta_pi = d o iota_pi - iota_pi o d,

with the determinant-pairing contraction of exterior.py; the sign is the
one that gives delta_pi(g mu) = dg ^ df_1 ^ df_2 on top forms, and it
satisfies star o d_pi = delta_pi o star for the unimodular case.

It is evaluated through a stencil.  d brings down exactly one exponent,
so for any polynomial bivector

    delta_pi(x^m dx_I) = sum (c0 + c.m) x^(m+t) dx_J

over a short table of (J, t, c0, c) that depends on I and pi but not on
m, with every shift t >= -1.  Each structure reads its table off the
definition above at m = (1,...,1) and its n unit steps, once per I on
first use; delta_pi of a form and the slice matrices of homology.py both
expand terms through it.

The Schouten bracket uses the odd-Poisson (superfield) formula with right
derivatives in the odd directions; it restricts to the Lie bracket on
vector fields and to X(g) on (vector, function), and [pi, pi] = 0.
"""

from operator import add

from .exterior import (FORM, MULTIVECTOR, GradedElement, contract, de_rham,
                       divergence, star, star_inv, volume_form, wedge,
                       wedge_all)
from .polynomials import Polynomial


class PoissonStructure:
    """Bivector + Casimirs + volume; immutable after construction.

    `_stencil` maps a form index tuple I to the delta_pi table of x^m dx_I
    (see _stencil_row); rows are added on first use.
    """

    __slots__ = ("n", "bivector", "casimirs", "volume", "_stencil")

    def __init__(self, bivector, casimirs, volume):
        self.n = bivector.n
        self.bivector = bivector
        self.casimirs = list(casimirs)
        self.volume = volume
        self._stencil = {}


def jacobi_poisson(fns, n):
    """Poisson structure with {x_a, x_b} mu = dx_a ^ dx_b ^ df_1 ^ ... ^ df_{n-2}."""
    if len(fns) != n - 2:
        raise ValueError("need exactly n-2 functions, got %d" % len(fns))
    for f in fns:
        if f.constant_term() != 0:
            raise ValueError("Casimir candidates must vanish at the origin")
    dfs = wedge_all([de_rham(GradedElement.from_polynomial(f)) for f in fns])
    mu = volume_form(n)
    top = tuple(range(1, n + 1))
    comps = {}
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            dxab = GradedElement.basis(n, FORM, (a, b))
            coeff = wedge(dxab, dfs).coefficient(top)
            if coeff:
                comps[(a, b)] = coeff
    pi = GradedElement(n, 2, MULTIVECTOR, comps)
    return PoissonStructure(pi, fns, mu)


# -- Schouten bracket --------------------------------------------------------


def _xi_right_derivative(a, i):
    """Right derivative d/d(xi_i) of a multivector in the odd variable xi_i."""
    if a.degree == 0:
        return GradedElement.zero(a.n, 0, MULTIVECTOR)
    comps = {}
    for idx, p in a.comps.items():
        if i not in idx:
            continue
        pos = idx.index(i)          # 0-based position
        k = len(idx)
        sign = -1 if (k - 1 - pos) & 1 else 1
        rest = idx[:pos] + idx[pos + 1:]
        q = p * sign if sign < 0 else p
        acc = comps.get(rest)
        acc = q if acc is None else acc + q
        if acc:
            comps[rest] = acc
        else:
            comps.pop(rest, None)
    return GradedElement(a.n, a.degree - 1, MULTIVECTOR, comps)


def _x_derivative(a, i):
    return a.map_coefficients(lambda p: p.diff(i))


def schouten(a, b):
    """Schouten bracket of multivector fields, degree deg(a) + deg(b) - 1."""
    if a.kind != MULTIVECTOR or b.kind != MULTIVECTOR:
        raise TypeError("schouten acts on multivectors")
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n, p, q = a.n, a.degree, b.degree
    deg = p + q - 1
    if deg < 0:
        return GradedElement.zero(n, 0, MULTIVECTOR)
    out = GradedElement.zero(n, min(deg, n), MULTIVECTOR)
    for i in range(1, n + 1):
        da = _xi_right_derivative(a, i)
        if da:
            db = _x_derivative(b, i)
            if db:
                out = out + wedge(da, db)
    sign = -1 if ((p - 1) * (q - 1)) & 1 else 1
    for i in range(1, n + 1):
        db = _xi_right_derivative(b, i)
        if db:
            da = _x_derivative(a, i)
            if da:
                term = wedge(db, da)
                out = out - term if sign > 0 else out + term
    return out


def d_pi(v, structure):
    """Lichnerowicz differential raising multivector degree by one.

    Written as the right bracket [v, pi]: with the superfield sign
    convention of schouten() this is the grading under which
    star o d_pi = delta_pi o star holds in every degree.
    """
    if isinstance(v, Polynomial):
        v = GradedElement.from_polynomial(v, MULTIVECTOR)
    return schouten(v, structure.bivector)


def delta_pi(a, structure):
    """Koszul-Brylinski differential on forms, lowering degree by one."""
    if a.kind != FORM:
        raise ValueError("delta_pi acts on forms")
    if a.n != structure.n:
        raise ValueError("dimension mismatch")
    if a.degree == 0:
        return GradedElement.zero(a.n, 0, FORM)
    comps = {}
    for idx, p in a.comps.items():
        for m, c in p.terms.items():
            for J, mt, v in _delta_term(structure, idx, m):
                terms = comps.setdefault(J, {})
                terms[mt] = terms.get(mt, 0) + c * v
    return GradedElement(a.n, a.degree - 1, FORM,
                         {J: Polynomial(a.n, t) for J, t in comps.items()})


def _delta_term(structure, idx, m):
    """delta_pi(x^m dx_idx) as a list of (J, exponent, nonzero coefficient).

    The coefficient is an int whenever the stencil's entries are.  A shift
    t_i = -1 comes only from d/dx_i acting on a monomial whose x_i exponent
    is m_i, so its coefficient is a multiple of m_i and is zero wherever
    m_i + t_i < 0: no negative exponent is ever returned.
    """
    out = []
    for J, t, c0, c in _stencil_row(structure, idx):
        v = c0
        for i, ci in c:
            v += ci * m[i]
        if v:
            out.append((J, tuple(map(add, m, t)), v))
    return out


def _stencil_row(structure, idx):
    """The (J, t, c0, c) of delta_pi(x^m dx_idx) = sum (c0 + c.m) x^(m+t) dx_J.

    c is sparse, a tuple of (axis position, coefficient) pairs.  The row is
    read off d o iota_pi - iota_pi o d at m = (1,...,1) and at its n unit
    steps m + e_i: the coefficient of x^(m+t) dx_J there is c0 + c.m, and
    since every t >= -1 no term is lost at these points.  Coefficients with
    denominator 1 are stored as ints.
    """
    row = structure._stencil.get(idx)
    if row is not None:
        return row
    n, k, pi = structure.n, len(idx), structure.bivector
    values = []
    if k:
        zero = GradedElement.zero(n, k - 1, FORM)
        ones = (1,) * n
        for m in [ones] + [ones[:i] + (2,) + ones[i + 1:] for i in range(n)]:
            a = GradedElement.basis(n, FORM, idx, Polynomial.monomial(n, m))
            first = de_rham(contract(pi, a)) if k >= 2 else zero
            second = contract(pi, de_rham(a)) if k < n else zero
            image = {}
            for J, p in (first - second).comps.items():
                for mt, coeff in p.terms.items():
                    image[(J, tuple(e - mi for e, mi in zip(mt, m)))] = coeff
            values.append(image)
    row = []
    for key in sorted(set().union(*values)):
        base = values[0].get(key, 0)
        c = [image.get(key, 0) - base for image in values[1:]]
        c0 = base - sum(c)
        row.append((key[0], key[1], _as_int(c0),
                    tuple((i, _as_int(ci)) for i, ci in enumerate(c) if ci)))
    row = structure._stencil[idx] = tuple(row)
    return row


def _as_int(q):
    return int(q) if q.denominator == 1 else q


def modular_field(structure):
    """Vector field X with star(X) = d(star(pi)); zero iff unimodular volume."""
    return divergence(structure.bivector, structure.volume)


# -- the identity suite ------------------------------------------------------


class IdentityCheck:
    __slots__ = ("name", "status", "detail")

    def __init__(self, name, status, detail=""):
        self.name = name
        self.status = status          # "pass" | "fail" | "info"
        self.detail = detail

    @property
    def ok(self):
        return self.status != "fail"

    def as_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


def _eq_check(name, lhs, rhs, detail=""):
    same = lhs == rhs
    return IdentityCheck(name, "pass" if same else "fail",
                         detail if same else detail or "left != right")


def verify_identity_suite(cat, max_weight=6):
    """Run the catalog identity suite; returns a list of IdentityCheck.

    Covers the star/contraction relations of E_i and T_i, the wedge
    relations of pi and W_i, the Lie-derivative table, and the homotopy
    identity star o d_pi = delta_pi o star slice-by-slice up to max_weight.
    Failures are reported, never raised.
    """
    from .exterior import enumerate_basis, lie_derivative

    checks = []
    P = cat.poisson
    top = GradedElement.basis(4, MULTIVECTOR, (1, 2, 3, 4))

    checks.append(_eq_check("star(pi) = df1^df2", star(cat.pi), cat.df1df2))
    checks.append(_eq_check("[pi, pi] = 0", schouten(cat.pi, cat.pi),
                            GradedElement.zero(4, 3, MULTIVECTOR)))
    checks.append(_eq_check("modular field vanishes", modular_field(P),
                            GradedElement.zero(4, 1, MULTIVECTOR)))

    # star relations for E_i and T_i
    checks.append(_eq_check("star(E1) = zeta1^d(zeta1)", cat.eps1,
                            wedge(cat.zeta1, cat.beta1)))
    checks.append(_eq_check("star(E1) = zeta2^d(zeta2)", cat.eps1,
                            wedge(cat.zeta2, cat.beta2)))
    checks.append(_eq_check("star(E2) = -zeta1^d(zeta2)", cat.eps2,
                            -wedge(cat.zeta1, cat.beta2)))
    checks.append(_eq_check("star(E2) = zeta2^d(zeta1)", cat.eps2,
                            wedge(cat.zeta2, cat.beta1)))
    checks.append(_eq_check("star(T1) = -1/4 df1^d(zeta1)", star(cat.T1),
                            wedge(cat.df1, cat.beta1) * _q(-1, 4)))
    checks.append(_eq_check("star(T1) = -1/4 df2^d(zeta2)", star(cat.T1),
                            wedge(cat.df2, cat.beta2) * _q(-1, 4)))
    checks.append(_eq_check("star(T2) = -1/4 df2^d(zeta1)", star(cat.T2),
                            wedge(cat.df2, cat.beta1) * _q(-1, 4)))
    checks.append(_eq_check("star(T2) = 1/4 df1^d(zeta2)", star(cat.T2),
                            wedge(cat.df1, cat.beta2) * _q(1, 4)))

    # contraction relations of T_i against zeta_j
    for name, field, form, want in [
            ("4 iota(T1) zeta1 = f1", cat.T1, cat.zeta1, cat.f1),
            ("4 iota(T2) zeta1 = f2", cat.T2, cat.zeta1, cat.f2),
            ("4 iota(T1) zeta2 = f2", cat.T1, cat.zeta2, cat.f2),
            ("4 iota(T2) zeta2 = -f1", cat.T2, cat.zeta2, -cat.f1)]:
        got = contract(field, form).coefficient(()) * 4
        checks.append(_eq_check(name, got, want))

    # Lie derivative table
    lie_table = [
        ("L_E1 f1 = f1", cat.E1, cat.f1, cat.f1),
        ("L_E1 f2 = f2", cat.E1, cat.f2, cat.f2),
        ("L_E2 f1 = f2", cat.E2, cat.f1, cat.f2),
        ("L_E2 f2 = -f1", cat.E2, cat.f2, -cat.f1),
        ("L_T1 f1 = 0", cat.T1, cat.f1, Polynomial.zero(4)),
        ("L_T1 f2 = 0", cat.T1, cat.f2, Polynomial.zero(4)),
        ("L_T2 f1 = 0", cat.T2, cat.f1, Polynomial.zero(4)),
        ("L_T2 f2 = 0", cat.T2, cat.f2, Polynomial.zero(4)),
    ]
    for name, field, fn, want in lie_table:
        checks.append(_eq_check(name, lie_derivative(field, fn), want))
    for i, zi in ((1, cat.zeta1), (2, cat.zeta2)):
        for j, tj in ((1, cat.T1), (2, cat.T2)):
            checks.append(_eq_check("L_T%d zeta%d = 0" % (j, i),
                                    lie_derivative(tj, zi),
                                    GradedElement.zero(4, 1, FORM)))

    # commuting fields
    zero1 = GradedElement.zero(4, 1, MULTIVECTOR)
    checks.append(_eq_check("[E1, E2] = 0", schouten(cat.E1, cat.E2), zero1))
    checks.append(_eq_check("[T1, T2] = 0", schouten(cat.T1, cat.T2), zero1))
    for i, ei in ((1, cat.E1), (2, cat.E2)):
        for j, tj in ((1, cat.T1), (2, cat.T2)):
            checks.append(_eq_check("[E%d, T%d] = 0" % (i, j),
                                    schouten(ei, tj), zero1))

    # wedge relations
    checks.append(_eq_check("star_inv(zeta1^zeta2) = -E1^E2",
                            star_inv(wedge(cat.zeta1, cat.zeta2)),
                            -wedge(cat.E1, cat.E2)))
    ratio = _wedge_ratio(cat.pi, wedge(cat.T1, cat.T2))
    checks.append(IdentityCheck(
        "pi = -8 T1^T2",
        "pass" if ratio == -8 else "fail",
        "computed pi = %s * T1^T2; the -8 of the source text is inconsistent "
        "with the star/contraction normalization of T_i" % ratio
        if ratio != -8 else ""))
    if ratio is not None and ratio != -8:
        checks.append(IdentityCheck("pi = %s T1^T2 (computed)" % ratio, "info",
                                    "exact proportionality constant"))
    for i, wi in ((1, cat.W1), (2, cat.W2)):
        checks.append(_eq_check("pi ^ W%d = 0" % i, wedge(cat.pi, wi),
                                GradedElement.zero(4, 4, MULTIVECTOR)))
        checks.append(_eq_check("W%d ^ W%d = 2 e1^e2^e3^e4" % (i, i),
                                wedge(wi, wi), top * 2))
    checks.append(_eq_check("16 E1^E2^T1^T2 = (f1^2+f2^2) e1^e2^e3^e4",
                            wedge_all([cat.E1, cat.E2, cat.T1, cat.T2]) * 16,
                            top * (cat.f1 * cat.f1 + cat.f2 * cat.f2)))

    # homotopy identity star o d_pi = delta_pi o star, slice by slice
    eq4_ok = True
    eq4_bad = ""
    for k in range(0, 5):
        for w in range(-k, max_weight + 1):
            basis = enumerate_basis(k, w, MULTIVECTOR)
            for idx, m in basis:
                v = GradedElement.basis(4, MULTIVECTOR, idx,
                                        Polynomial.monomial(4, m))
                if star(d_pi(v, P)) != delta_pi(star(v), P):
                    eq4_ok = False
                    eq4_bad = "first failure at degree %d weight %d" % (k, w)
                    break
            if not eq4_ok:
                break
        if not eq4_ok:
            break
    checks.append(IdentityCheck("star o d_pi = delta_pi o star (X_mu = 0)",
                                "pass" if eq4_ok else "fail", eq4_bad))

    # recorded values, not assertions: star_inv(df1 ^ zeta_i)
    for i, zi in ((1, cat.zeta1), (2, cat.zeta2)):
        val = star_inv(wedge(cat.df1, zi))
        checks.append(IdentityCheck("star_inv(df1^zeta%d) recorded" % i, "info",
                                    str(val)))
    return checks


def _q(a, b):
    from .rationals import Q
    return Q(a, b)


def _wedge_ratio(target, source):
    """Exact constant c with target = c * source, or None."""
    if not source.comps:
        return None
    idx, p = next(iter(source.comps.items()))
    m, c = p.leading_term()
    tc = target.coefficient(idx).coefficient(m)
    ratio = tc / c
    return ratio if target == source * ratio else None
