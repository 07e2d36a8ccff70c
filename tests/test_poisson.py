import random
from itertools import combinations

import pytest

from poisson_forge.exterior import (FORM, MULTIVECTOR, GradedElement,
                                    contract, de_rham, enumerate_basis, star,
                                    star_inv, wedge)
from poisson_forge.poisson import (d_pi, jacobi_poisson,
                                   modular_field, schouten,
                                   verify_identity_suite)
from poisson_forge.polynomials import Polynomial
from poisson_forge.rationals import Q
from test_exterior import basis_element, element_at, weight_slice
from test_signs import de_rham_by_position


def x(i):
    return Polynomial.variable(4, i)


def rand_mv(rng, k, max_extra=2):
    basis = enumerate_basis(k, rng.randrange(-k, -k + max_extra + 1),
                            MULTIVECTOR)
    comps = {}
    for _ in range(3):
        idx, m = element_at(basis, rng.randrange(len(basis)))
        comps.setdefault(idx, {})[m] = rng.randint(-2, 2)
    return GradedElement(4, k, MULTIVECTOR,
                         {i: Polynomial(4, t) for i, t in comps.items()})


# -- jacobi_poisson -----------------------------------------------------


def test_explicit_bivector(cat):
    quarter = cat.pi * Q(1, 4)
    assert quarter.coefficient((3, 4)) == x(1) * x(1) + x(2) * x(2)
    assert quarter.coefficient((1, 2)) == x(3) * x(3) + x(4) * x(4)
    assert quarter.coefficient((1, 3)) == -(x(1) * x(4) - x(2) * x(3))
    assert quarter.coefficient((2, 4)) == -(x(1) * x(4) - x(2) * x(3))
    assert quarter.coefficient((2, 3)) == x(1) * x(3) + x(2) * x(4)
    assert quarter.coefficient((1, 4)) == -(x(1) * x(3) + x(2) * x(4))


def test_defining_relation_on_coordinate_pairs(cat):
    # {x_a, x_b} mu = dx_a ^ dx_b ^ df1 ^ df2
    for a in range(1, 5):
        for b in range(a + 1, 5):
            dxa = GradedElement.basis(4, FORM, (a,))
            dxb = GradedElement.basis(4, FORM, (b,))
            bracket = contract(cat.pi, wedge(dxa, dxb)).coefficient(())
            rhs = wedge(wedge(dxa, dxb), cat.df1df2)
            assert cat.mu * bracket == rhs


def test_casimirs(cat):
    for f in (cat.f1, cat.f2):
        df = de_rham(GradedElement.from_polynomial(f))
        for b in range(1, 5):
            dxb = GradedElement.basis(4, FORM, (b,))
            assert contract(cat.pi, wedge(df, dxb)).coefficient(()).is_zero()
        assert d_pi(f, cat.poisson).is_zero()


def test_jacobi_poisson_errors():
    with pytest.raises(ValueError):
        jacobi_poisson([x(1)], 4)
    with pytest.raises(ValueError):
        jacobi_poisson([x(1), Polynomial.constant(4, 1) + x(2)], 4)


def test_star_of_pi(cat):
    assert star(cat.pi) == cat.df1df2


# -- Schouten bracket ---------------------------------------------------


def test_schouten_on_low_degrees(cat):
    e1 = GradedElement.basis(4, MULTIVECTOR, (1,))
    g = GradedElement.from_polynomial(x(1), MULTIVECTOR)
    assert schouten(e1, g) == GradedElement.from_polynomial(
        Polynomial.constant(4, 1), MULTIVECTOR)
    # vector fields: the Lie bracket [x2 d1, x1 d2] = x2 d2 - x1 d1
    X = e1 * x(2)
    Y = GradedElement.basis(4, MULTIVECTOR, (2,)) * x(1)
    expect = GradedElement.basis(4, MULTIVECTOR, (2,)) * x(2) - e1 * x(1)
    assert schouten(X, Y) == expect


def test_schouten_pi_pi_zero(cat):
    assert schouten(cat.pi, cat.pi).is_zero()


def test_schouten_graded_antisymmetry():
    rng = random.Random(31)
    for _ in range(12):
        p, q = rng.randrange(3), rng.randrange(3)
        a, b = rand_mv(rng, p), rand_mv(rng, q)
        # [a,b] = -(-1)^{(p-1)(q-1)} [b,a]
        lhs = schouten(a, b)
        rhs = schouten(b, a)
        if ((p - 1) * (q - 1)) % 2:
            assert lhs == rhs
        else:
            assert lhs == -rhs


def test_schouten_leibniz():
    rng = random.Random(37)
    for _ in range(8):
        p, q, r = 1 + rng.randrange(2), rng.randrange(2), rng.randrange(2)
        a, b, c = rand_mv(rng, p), rand_mv(rng, q), rand_mv(rng, r)
        lhs = schouten(a, wedge(b, c))
        rhs = wedge(schouten(a, b), c)
        term = wedge(b, schouten(a, c))
        if ((p - 1) * q) % 2:
            rhs = rhs - term
        else:
            rhs = rhs + term
        assert lhs == rhs


def test_schouten_graded_jacobi():
    rng = random.Random(41)
    for _ in range(6):
        p, q, r = (1 + rng.randrange(2) for _ in range(3))
        a, b, c = rand_mv(rng, p), rand_mv(rng, q), rand_mv(rng, r)
        lhs = schouten(a, schouten(b, c))
        rhs = schouten(schouten(a, b), c)
        term = schouten(b, schouten(a, c))
        if ((p - 1) * (q - 1)) % 2:
            rhs = rhs - term
        else:
            rhs = rhs + term
        assert lhs == rhs


# -- the differentials --------------------------------------------------


def test_d_pi_examples(cat):
    assert d_pi(cat.f1, cat.poisson).is_zero()
    assert d_pi(modular_field(cat.poisson), cat.poisson).is_zero()
    # homotopy cross-check: d_pi(E1) = star_inv(delta_pi(eps1))
    assert d_pi(cat.E1, cat.poisson) == star_inv(cat.poisson.delta.apply(cat.eps1))
    assert d_pi(cat.E1, cat.poisson).is_zero()


def test_d_pi_squared_zero(cat):
    rng = random.Random(43)
    for _ in range(10):
        v = rand_mv(rng, rng.randrange(3))
        assert d_pi(d_pi(v, cat.poisson), cat.poisson).is_zero()


def test_delta_examples(cat):
    gmu = cat.mu * x(1)
    dx1 = GradedElement.basis(4, FORM, (1,))
    assert cat.poisson.delta.apply(gmu) == wedge(dx1, cat.df1df2)
    assert cat.poisson.delta.apply(cat.zeta1).is_zero()
    assert cat.poisson.delta.apply(cat.mu).is_zero()


def test_delta_squared_and_anticommutation(cat):
    for k in range(1, 5):
        for w in range(k, 11):
            basis = enumerate_basis(k, w, FORM)
            for i in range(len(basis)):
                a = basis_element(basis, i)
                da = cat.poisson.delta.apply(a)
                if k >= 2:
                    assert cat.poisson.delta.apply(da).is_zero()
                # d delta + delta d = 0 (at top degree da must be d-closed)
                if k == 4:
                    assert de_rham(da).is_zero()
                else:
                    assert (de_rham(da) +
                            cat.poisson.delta.apply(de_rham(a))).is_zero()


# -- the delta_pi stencil against its definition ------------------------


def delta_reference(a, structure):
    """delta_pi = d o iota_pi - iota_pi o d, composed on the whole form,
    with d by the elementwise formula rather than d's stencil."""
    pi = structure.bivector
    if a.degree == 0:
        return GradedElement.zero(a.n, 0, FORM)
    zero = GradedElement.zero(a.n, a.degree - 1, FORM)
    first = de_rham_by_position(contract(pi, a)) if a.degree >= 2 else zero
    second = contract(pi, de_rham_by_position(a)) if a.degree < a.n else zero
    return first - second


def rational_structures():
    """Two non-Lefschetz structures whose stencils hold non-integers."""
    y = [Polynomial.variable(3, i) for i in range(1, 4)]
    on_r4 = jacobi_poisson([x(1) ** 3 * Q(1, 2) + x(2) * x(3) * x(4) * Q(-2, 3)
                            + x(4) * x(4),
                            x(2) ** 3 * Q(3, 5) + x(1) * x(1) * x(3)
                            - x(1) * x(4) * Q(1, 7)], 4)
    on_r3 = jacobi_poisson([y[0] * y[1] * y[2] * Q(1, 3) + y[2] ** 3 * Q(-5, 2)
                            + y[0] * y[0]], 3)
    return [on_r4, on_r3]


def rand_rational_form(rng, n, k):
    """A non-homogeneous degree-k form on R^n with rational coefficients."""
    axes = list(combinations(range(1, n + 1), k))
    comps = {}
    for _ in range(rng.randint(1, 5)):
        m = tuple(rng.randrange(4) for _ in range(n))
        comps.setdefault(rng.choice(axes), {})[m] = \
            Q(rng.randint(-9, 9), rng.randint(1, 6))
    return GradedElement(n, k, FORM,
                         {i: Polynomial(n, t) for i, t in comps.items()})


def test_delta_stencil_matches_definition_on_basis(cat):
    for k in range(5):
        for w in range(k, 9):
            basis = enumerate_basis(k, w, FORM)
            for i in range(len(basis)):
                a = basis_element(basis, i)
                assert cat.poisson.delta.apply(a) == \
                    delta_reference(a, cat.poisson), (k, w, i)


def test_delta_stencil_matches_definition_on_rational_structures(cat):
    structures = rational_structures()
    for P in structures:
        n = P.n
        for k in range(n + 1):
            for w in range(k, 7):
                basis = enumerate_basis(k, w, FORM, n)
                for i in range(len(basis)):
                    a = basis_element(basis, i)
                    assert P.delta.apply(a) == delta_reference(a, P), (n, k, w, i)
        entries = [e for row in P.delta.rows.values() for _, _, c0, c in row
                   for e in (c0,) + tuple(ci for _, ci in c)]
        assert any(isinstance(e, type(Q(1))) for e in entries)
        assert all(isinstance(e, (int, type(Q(1)))) for e in entries)
    rng = random.Random(53)
    for P in [cat.poisson] + structures:
        for _ in range(40):
            a = rand_rational_form(rng, P.n, rng.randrange(P.n + 1))
            assert P.delta.apply(a) == delta_reference(a, P)


def test_lefschetz_stencil_is_integral(cat):
    for k in range(5):
        for idx in combinations(range(1, 5), k):
            for _, t, c0, c in cat.poisson.delta.row(idx):
                assert min(t) >= -1 and list(t).count(-1) <= 1
                assert all(type(e) is int
                           for e in (c0,) + tuple(v for _, v in c))


def test_delta_matrix_columns_match_definition(engine, cat):
    for k in range(1, 5):
        for w in range(k, 7):
            src, dst = engine.basis(k, w), engine.basis(k - 1, w)
            columns = engine.delta_matrix(k, w).columns
            assert len(columns) == len(src)
            for i, col in enumerate(columns):
                want = dst.coords(delta_reference(basis_element(src, i),
                                                  cat.poisson))
                assert col == want, (k, w, i)


def test_delta_pi_rejects_non_forms(cat):
    for k in range(5):
        v = GradedElement.basis(4, MULTIVECTOR, tuple(range(1, k + 1)), x(1))
        with pytest.raises(ValueError, match="acts on forms"):
            cat.poisson.delta.apply(v)
    on_r3 = rational_structures()[1]
    with pytest.raises(ValueError, match="dimension mismatch"):
        on_r3.delta.apply(GradedElement.basis(4, FORM, (1, 2), x(1)))


def test_delta_commutes_with_weight_slice(cat):
    rng = random.Random(47)
    for _ in range(8):
        k = 1 + rng.randrange(4)
        basis = enumerate_basis(k, k + rng.randrange(3), FORM)
        a = basis_element(basis, rng.randrange(len(basis))) * \
            (Polynomial.constant(4, 1) + x(1))
        da = cat.poisson.delta.apply(a)
        for w in set(a.weights()) | set(da.weights()):
            assert cat.poisson.delta.apply(weight_slice(a, w)) == \
                weight_slice(da, w)


def test_degree_formula_oracle(cat):
    """The four closed per-degree formulas, used as an independent oracle.

    Degrees 1 and 4 are as printed in the source (reading the bivector
    contraction as iota'_pi = -contract(pi, .)).  In degrees 2 and 3 the
    printed star-route terms carry a sign inconsistent with the printed
    contraction identity and with degrees 1/4; direct slice computation
    fixes them as below, and kernels are unaffected either way.  d is the
    elementwise formula, so the oracle applies no SliceOperator.
    """
    P = cat.poisson
    d = de_rham_by_position

    def iota_pi_paper(a):
        return -contract(cat.pi, a)

    for w in range(1, 7):
        for k in range(1, 5):
            basis = enumerate_basis(k, w, FORM)
            for i in range(len(basis)):
                a = basis_element(basis, i)
                got = P.delta.apply(a)
                if k == 1:
                    want = iota_pi_paper(d(a))
                elif k == 2:
                    want = -contract(star_inv(d(a)), cat.df1df2) \
                        - d(iota_pi_paper(a))
                elif k == 3:
                    want = iota_pi_paper(d(a)) + d(
                        contract(star_inv(a), cat.df1df2))
                else:
                    g = star_inv(a).coefficient(())
                    want = wedge(d(GradedElement.from_polynomial(g)), cat.df1df2)
                assert got == want, (k, w, i)


def test_homotopy_identity(cat):
    # star o d_pi = delta_pi o star on multivector slices of weight <= 8
    for k in range(0, 5):
        for w in range(-k, 9):
            basis = enumerate_basis(k, w, MULTIVECTOR)
            for i in range(len(basis)):
                v = basis_element(basis, i)
                assert star(d_pi(v, cat.poisson)) == \
                    cat.poisson.delta.apply(star(v))


# -- modular field ------------------------------------------------------


def test_modular_field(cat):
    assert modular_field(cat.poisson).is_zero()
    from poisson_forge.poisson import PoissonStructure
    zero = PoissonStructure(GradedElement.zero(4, 2, MULTIVECTOR))
    assert modular_field(zero).is_zero()
    scaled = PoissonStructure(cat.pi * (Polynomial.constant(4, 1) + x(1)))
    dx1 = GradedElement.basis(4, FORM, (1,))
    expect = star_inv(wedge(dx1, cat.df1df2))
    assert modular_field(scaled) == expect


# -- the identity suite -------------------------------------------------


def test_identity_suite_passes(cat):
    checks = verify_identity_suite(cat)
    failures = [c["name"] for c in checks if c["status"] == "fail"]
    # the single -8 proportionality printed in the source text cannot hold
    # together with the star and contraction normalization of T_i; the
    # computed constant is -16 and the suite reports it
    assert failures == ["pi = -8 T1^T2"]
    detail = next(c["detail"] for c in checks if c["name"] == "pi = -8 T1^T2")
    assert "-16" in detail
    assert any(c["name"].startswith("star_inv(df1^zeta") for c in checks)


def test_identity_suite_detects_sabotage(cat):
    import copy
    broken = copy.copy(cat)
    broken.zeta1 = -cat.zeta1
    checks = verify_identity_suite(broken)
    bad = {c["name"] for c in checks if c["status"] == "fail"}
    assert "star(E1) = zeta1^d(zeta1)" in bad


def _homotopy_check(cat, coefficient):
    """The homotopy verdict of the suite with pi = coefficient e1^e2."""
    import copy
    from poisson_forge.poisson import PoissonStructure
    bent = copy.copy(cat)
    bent.pi = GradedElement.basis(4, MULTIVECTOR, (1, 2), coefficient)
    bent.poisson = PoissonStructure(bent.pi)
    assert not modular_field(bent.poisson).is_zero()
    checks = {c["name"]: c for c in verify_identity_suite(bent)}
    check = checks["star o d_pi = delta_pi o star (X_mu = 0)"]
    return check["status"], check["detail"]


def test_identity_suite_reports_the_first_homotopy_failure(cat):
    # pi = x1^2 e1^e2 is Poisson and of weight 0 with modular field
    # 2 x1 e2, so the homotopy identity fails on the constant function:
    # d_pi(1) = 0 while delta_pi(mu) = d(star(pi)) = 2 x1 dx1^dx3^dx4
    assert _homotopy_check(cat, x(1) ** 2) == \
        ("fail", "first failure at degree 0, row of dx1^dx2^dx3^dx4")


def test_identity_suite_catches_a_delta_row_wrong_in_one_m_coefficient(cat):
    # a private structure whose delta_pi row of dx1^dx2^dx3^dx4 gains the
    # term (m_1 - 1) x^m dx1^dx2^dx3: zero at m = (1,1,1,1), so only a check
    # that also compares m + e_1 sees it.  The shared catalog is untouched.
    import copy
    from poisson_forge.poisson import PoissonStructure
    P = PoissonStructure(cat.pi)
    top = (1, 2, 3, 4)
    P.delta.rows[top] = P.delta.row(top) + (((1, 2, 3), (0,) * 4, -1,
                                             ((0, 1),)),)
    bent = copy.copy(cat)
    bent.poisson = P
    checks = {c["name"]: c for c in verify_identity_suite(bent)}
    check = checks["star o d_pi = delta_pi o star (X_mu = 0)"]
    assert (check["status"], check["detail"]) == \
        ("fail", "first failure at degree 0, row of dx1^dx2^dx3^dx4")
    assert checks == {c["name"]: c for c in verify_identity_suite(cat)} | {
        check["name"]: check}
    assert cat.poisson.delta.row(top) == PoissonStructure(cat.pi).delta.row(top)


def test_identity_suite_reports_a_bivector_of_nonzero_weight(cat):
    # pi = x1^3 e1^e2 is Poisson and of weight 1, so delta_pi moves each
    # slice up one weight; its modular field 3 x1^2 e2 breaks the identity
    # on the constant function as above, and the suite reports it
    assert _homotopy_check(cat, x(1) ** 3) == \
        ("fail", "first failure at degree 0, row of dx1^dx2^dx3^dx4")
