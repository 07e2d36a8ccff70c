"""Jacobi-Poisson structures and their differentials.

A Jacobi-Poisson structure on R^n is determined by n-2 functions through

    {g, h} mu = dg ^ dh ^ df_1 ^ ... ^ df_{n-2},

equivalently star(pi) = df_1 ^ ... ^ df_{n-2}.  The Koszul-Brylinski
differential on forms is defined as

    delta_pi = d o iota_pi - iota_pi o d,

with the determinant-pairing contraction of exterior.py; the sign is the
one that gives delta_pi(g mu) = dg ^ df_1 ^ df_2 on top forms, and it
satisfies star o d_pi = delta_pi o star for the unimodular case.

A structure's `delta` is delta_pi on forms as a SliceOperator of
exterior.py, its rows of (J, t, c0, c) read off pi's terms in closed
form, once per index tuple I on first use.  delta_pi of a form,
`structure.delta.apply(a)`, the slice matrices of homology.py and the
normalizer's certificate d_pi(s*X) = s*(r_i - c_i) pi, read as
delta_pi(star(s*X)) = s*(r_i - c_i) df_1 ^ df_2, all expand terms through
it.  The Lichnerowicz differential X -> [X, pi] on multivectors has no
stencil: the function `d_pi` evaluates it by the Schouten bracket, so the
identity suite's homotopy check, which compares star o d_pi o star_inv on
five monomials per row with delta_pi's stencil, is a route independent
of the stencil.

The Schouten bracket uses the odd-Poisson (superfield) formula with right
derivatives in the odd directions, signed by the merge sign of exterior.py;
it restricts to the Lie bracket on vector fields and to X(g) on (vector,
function), and [pi, pi] = 0.

The identity suite returns its verdicts as finished report rows,
{"name", "status", "detail"}, in the order the report prints them; it
takes no weight.
"""

from functools import partial
from itertools import combinations

from .exterior import (FORM, MULTIVECTOR, GradedElement, SliceOperator,
                       _contract_sign, _lowered, _merge_sign, _stencil_row,
                       contract, de_rham, derivation_operator, divergence,
                       lie_derivative, star, star_inv, wedge, wedge_all)
from .polynomials import Polynomial
from .rationals import Q


class PoissonStructure:
    """Bivector on R^n with the standard volume; immutable after construction.

    `delta` (delta_pi on forms) is a SliceOperator whose rows are read off
    pi's terms on first use.
    """

    __slots__ = ("n", "bivector", "delta")

    def __init__(self, bivector):
        self.n = bivector.n
        self.bivector = bivector
        self.delta = SliceOperator(partial(_koszul_brylinski_row, bivector),
                                   self.n, -1)


def jacobi_poisson(fns, n):
    """Poisson structure with {x_a, x_b} mu = dx_a ^ dx_b ^ df_1 ^ ... ^ df_{n-2}."""
    if len(fns) != n - 2:
        raise ValueError("need exactly n-2 functions, got %d" % len(fns))
    for f in fns:
        if f.constant_term() != 0:
            raise ValueError("Casimir candidates must vanish at the origin")
    dfs = wedge_all([de_rham(GradedElement.from_polynomial(f)) for f in fns])
    top = tuple(range(1, n + 1))
    comps = {}
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            dxab = GradedElement.basis(n, FORM, (a, b))
            coeff = wedge(dxab, dfs).coefficient(top)
            if coeff:
                comps[(a, b)] = coeff
    pi = GradedElement(n, 2, MULTIVECTOR, comps)
    return PoissonStructure(pi)


# -- Schouten bracket --------------------------------------------------------


def _xi_right_derivative(a, i):
    """Right derivative d/d(xi_i) of a multivector in the odd variable xi_i:
    xi_I = s * xi_R ^ xi_i with R = I minus i goes to s * xi_R."""
    if a.degree == 0:
        return GradedElement.zero(a.n, 0, MULTIVECTOR)
    comps = {}
    for idx, p in a.comps.items():
        if i in idx:
            # distinct I give distinct R, so nothing accumulates
            rest = tuple(j for j in idx if j != i)
            comps[rest] = p if _merge_sign(rest, (i,))[1] > 0 else -p
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


def _koszul_brylinski_row(pi, idx):
    """The stencil row of delta_pi = d o iota_pi - iota_pi o d at x^m dx_idx.

    With pi = sum p_ab e_a^e_b and p_ab = sum c x^s: iota_{e_ab} dx_I =
    sign dx_R, and d(c x^(s+m) dx_R) brings down s_i + m_i at dx_i ^ dx_R;
    d(x^m dx_I) brings down m_i at dx_i ^ dx_I = sign dx_K, and
    iota_{e_ab} dx_K = sign dx_R.  Each term has t = s - e_i.
    """
    entries = []
    for ab, p in pi.comps.items():
        R, sign = _contract_sign(ab, idx)
        if R is not None:
            for i in range(1, pi.n + 1):
                J, sign_i = _merge_sign((i,), R)
                if J is None:
                    continue
                for s, c in p.terms.items():
                    v = sign * sign_i * c
                    t = _lowered(s, i)
                    entries.append((J, t, i - 1, v))
                    if s[i - 1]:
                        entries.append((J, t, None, s[i - 1] * v))
        for i in range(1, pi.n + 1):
            K, sign = _merge_sign((i,), idx)
            if K is None:
                continue
            R, sign_ab = _contract_sign(ab, K)
            if R is not None:
                for s, c in p.terms.items():
                    entries.append((R, _lowered(s, i), i - 1,
                                    -sign * sign_ab * c))
    return _stencil_row(entries)


def modular_field(structure):
    """Vector field X with star(X) = d(star(pi)); zero iff the standard
    volume is unimodular."""
    return divergence(structure.bivector)


# -- the identity suite ------------------------------------------------------


def _eq_check(name, lhs, rhs):
    same = lhs == rhs
    return {"name": name, "status": "pass" if same else "fail",
            "detail": "" if same else "left != right"}


def verify_identity_suite(cat):
    """Run the catalog identity suite; returns its report rows.

    Each row is {"name", "status", "detail"}, status "pass", "fail" or
    "info".

    Covers the star/contraction relations of E_i and T_i, the wedge
    relations of pi and W_i, the Lie-derivative table (on functions by
    `derivation_operator`, on 1-forms by Cartan), and the homotopy
    identity star o d_pi = delta_pi o star.  Both sides of the homotopy
    identity are first-order maps with shifts t >= -1, so on x^m dx_I
    their values at m = (1,1,1,1) and its four unit steps fix the row of I
    (exterior.SliceOperator): comparing them there, for each I, covers
    every weight at once.  delta_pi is expanded through its closed stencil
    rows, star o d_pi o star_inv through the Schouten bracket.
    Failures are reported, never raised.
    """
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
                            wedge(cat.df1, cat.beta1) * Q(-1, 4)))
    checks.append(_eq_check("star(T1) = -1/4 df2^d(zeta2)", star(cat.T1),
                            wedge(cat.df2, cat.beta2) * Q(-1, 4)))
    checks.append(_eq_check("star(T2) = -1/4 df2^d(zeta1)", star(cat.T2),
                            wedge(cat.df2, cat.beta1) * Q(-1, 4)))
    checks.append(_eq_check("star(T2) = 1/4 df1^d(zeta2)", star(cat.T2),
                            wedge(cat.df1, cat.beta2) * Q(1, 4)))

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
        got = derivation_operator(field).apply(GradedElement.from_polynomial(fn))
        checks.append(_eq_check(name, got.coefficient(()), want))
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
    checks.append({
        "name": "pi = -8 T1^T2",
        "status": "pass" if ratio == -8 else "fail",
        "detail": "computed pi = %s * T1^T2; the -8 of the source text is "
                  "inconsistent with the star/contraction normalization of "
                  "T_i" % ratio if ratio != -8 else ""})
    if ratio is not None and ratio != -8:
        checks.append({"name": "pi = %s T1^T2 (computed)" % ratio,
                       "status": "info",
                       "detail": "exact proportionality constant"})
    for i, wi in ((1, cat.W1), (2, cat.W2)):
        checks.append(_eq_check("pi ^ W%d = 0" % i, wedge(cat.pi, wi),
                                GradedElement.zero(4, 4, MULTIVECTOR)))
        checks.append(_eq_check("W%d ^ W%d = 2 e1^e2^e3^e4" % (i, i),
                                wedge(wi, wi), top * 2))
    checks.append(_eq_check("16 E1^E2^T1^T2 = (f1^2+f2^2) e1^e2^e3^e4",
                            wedge_all([cat.E1, cat.E2, cat.T1, cat.T2]) * 16,
                            top * (cat.f1 * cat.f1 + cat.f2 * cat.f2)))

    # the homotopy identity on multivectors of degree k, read on forms of
    # degree 4-k (both sides vanish for k = 4), at the five monomials that
    # fix a row of either side: x^(1,1,1,1) and, for i = 0..3, x^(m + e_i)
    monomials = [Polynomial.monomial(4, tuple(1 + (j == i) for j in range(4)))
                 for i in range(-1, 4)]
    eq4_bad = next(("first failure at degree %d, row of dx%s"
                    % (k, "^dx".join(map(str, idx)))
                    for k in range(4)
                    for idx in combinations(range(1, 5), 4 - k)
                    if any(P.delta.apply(a) != star(d_pi(star_inv(a), P))
                           for a in (GradedElement.basis(4, FORM, idx, xm)
                                     for xm in monomials))), "")
    checks.append({"name": "star o d_pi = delta_pi o star (X_mu = 0)",
                   "status": "fail" if eq4_bad else "pass", "detail": eq4_bad})

    # recorded values, not assertions: star_inv(df1 ^ zeta_i)
    for i, zi in ((1, cat.zeta1), (2, cat.zeta2)):
        val = star_inv(wedge(cat.df1, zi))
        checks.append({"name": "star_inv(df1^zeta%d) recorded" % i,
                       "status": "info", "detail": str(val)})
    return checks


def _wedge_ratio(target, source):
    """Exact constant c with target = c * source, or None."""
    if not source.comps:
        return None
    idx, p = next(iter(source.comps.items()))
    m, c = p.leading_term()
    tc = target.coefficient(idx).coefficient(m)
    ratio = Q(tc, c)
    return ratio if target == source * ratio else None
