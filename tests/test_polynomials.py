import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import poisson_forge
from poisson_forge.exterior import de_rham, wedge
from poisson_forge.polynomials import (Polynomial, monomial_cmp, monomial_key,
                                       monomials_of_degree)
from poisson_forge.rationals import Q


def x(i, n=4):
    return Polynomial.variable(n, i)


def is_homogeneous(p):
    degs = {sum(m) for m in p.terms}
    return len(degs) <= 1


def test_local_order_prefers_low_degree():
    # the constant monomial dominates anything of positive degree
    assert monomial_cmp((0, 0, 0, 0), (1, 0, 0, 0)) == 1


def test_local_order_first_index_tiebreak():
    assert monomial_cmp((1, 0, 0, 0), (0, 1, 0, 0)) == 1
    assert monomial_cmp((0, 2, 0, 0), (1, 0, 1, 0)) == -1


def test_monomials_of_degree_come_in_the_local_order():
    # slice bases list monomials in this order without sorting them, and
    # share one tuple per (n, d)
    for n in range(1, 6):
        for d in range(14):
            monos = monomials_of_degree(n, d)
            assert monos == tuple(sorted(monos, key=monomial_key)), (n, d)
            assert monomials_of_degree(n, d) is monos
    assert monomials_of_degree(4, -1) == ()


def test_local_order_total_and_antisymmetric():
    rng = random.Random(7)
    monos = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(40)]
    for a in monos:
        for b in monos:
            ca, cb = monomial_cmp(a, b), monomial_cmp(b, a)
            assert ca == -cb
            assert (ca == 0) == (a == b)
    # transitivity via sorting consistency
    ordered = sorted(monos, key=monomial_key)
    for a, b in zip(ordered, ordered[1:]):
        assert monomial_cmp(a, b) >= 0


def test_constant_is_unique_maximum():
    monos = monomials_of_degree(4, 0) + monomials_of_degree(4, 1) \
        + monomials_of_degree(4, 2)
    top = min(monos, key=monomial_key)
    assert top == (0, 0, 0, 0)


def test_monomial_cmp_dimension_mismatch():
    with pytest.raises(ValueError):
        monomial_cmp((1, 0), (1, 0, 0))


def test_ring_laws_random():
    rng = random.Random(11)

    def rand_poly():
        terms = {tuple(rng.randrange(3) for _ in range(4)): rng.randint(-4, 4)
                 for _ in range(5)}
        return Polynomial(4, terms)

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a - a == Polynomial.zero(4)


def test_homogeneous_parts_rebuild():
    p = x(1) ** 3 + x(2) * x(3) + Polynomial.constant(4, 5)
    parts = p.homogeneous_parts()
    assert sorted(parts) == [0, 2, 3]
    total = Polynomial.zero(4)
    for part in parts.values():
        assert is_homogeneous(part)
        total = total + part
    assert total == p


def test_diff():
    p = x(1) ** 2 * x(2)
    assert p.diff(1) == 2 * x(1) * x(2)
    assert p.diff(2) == x(1) ** 2
    assert p.diff(4).is_zero()


def test_leading_term():
    f1 = x(1) ** 2 - x(2) ** 2 + x(3) ** 2 - x(4) ** 2
    m, c = f1.leading_term()
    assert m == (2, 0, 0, 0) and c == 1
    assert (Polynomial.constant(4, 1) + x(1)).leading_term()[0] == (0, 0, 0, 0)
    assert (x(2) + x(1)).leading_term()[0] == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        Polynomial.zero(4).leading_term()


def test_exact_coefficients():
    p = Polynomial.constant(4, Q(1, 3)) * 3
    assert p == Polynomial.constant(4, 1)
    with pytest.raises(TypeError):
        Polynomial.constant(4, 0.5)


def test_integral_results_are_ints(cat):
    # sums, products and derivatives of rational polynomials keep the
    # "int when integral" rule of rationals.exact, not Fraction(n, 1)
    half = Q(1, 2)
    polys = [x(1) * half + x(1) * half, (x(1) * half) * (x(1) * 2),
             (x(1) ** 2 * half).diff(1), (x(1) * half + x(2)) ** 2 * 4,
             (x(1) * Q(2, 3) - x(2) * Q(1, 6)) * (x(1) * 3 + x(3) * 6)]
    assert [str(p) for p in polys[:3]] == ["x1", "x1^2", "x1"]
    forms = [de_rham(cat.zeta1 * cat.f1), de_rham(cat.zeta2 * cat.f1),
             cat.beta1, wedge(cat.zeta1, cat.beta2)]
    polys += [p for a in forms for p in a.comps.values()]
    coeffs = [c for p in polys for c in p.terms.values()]
    assert any(type(c) is not int for c in coeffs)
    assert all(type(c) is int for c in coeffs if c.denominator == 1)


def test_no_true_division_in_the_package():
    # int / int is a float: exact quotients are written Q(a, b)
    for path in sorted(Path(poisson_forge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.Div), (path.name, node.lineno)


def schoolbook_inverse(h, d):
    """1/h through total degree d by the Fraction recurrence r_0 = 1/c,
    r_k = -(1/c) sum_{j=1..k} h_j r_{k-j}, with c the constant term: the
    independent route to the integer-first `Polynomial.inverse`."""
    inv = Q(1, h.constant_term())
    parts = h.homogeneous_parts()
    slices = [Polynomial.constant(h.n, inv)]
    for k in range(1, d + 1):
        acc = Polynomial.zero(h.n)
        for j, part in parts.items():
            if 0 < j <= k:
                acc = acc + part * slices[k - j]
        slices.append(acc * -inv)
    return sum(slices, Polynomial.zero(h.n))


@st.composite
def invertible_series(draw):
    """(g, d): d <= 8, and g on R^4 with a nonzero rational constant term of
    either sign and up to five terms of degree 1..4 with rational
    coefficients, some of degree above d."""
    d = draw(st.integers(0, 8))
    sign = draw(st.sampled_from((1, -1)))
    constant = sign * draw(st.builds(Q, st.integers(1, 12), st.integers(1, 5)))
    terms = {(0, 0, 0, 0): constant}
    monos = st.sampled_from([m for k in range(1, 5)
                             for m in monomials_of_degree(4, k)])
    coeffs = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
    for m, c in draw(st.lists(st.tuples(monos, coeffs), max_size=5)):
        terms[m] = c
    return Polynomial(4, terms), d


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(invertible_series())
def test_inverse_matches_the_fraction_recurrence(args):
    g, d = args
    h = g.inverse(d)
    assert h == schoolbook_inverse(g, d)
    assert all(type(c) is int for c in h.terms.values() if c.denominator == 1)
    product = g * h
    assert Polynomial(4, {m: c for m, c in product.terms.items()
                          if sum(m) <= d}) == Polynomial.constant(4, 1)
    # one positive denominator and an integer numerator per slice
    slices = g.inverse_slices(d)
    assert len(slices) == d + 1
    for k, (N, den) in enumerate(slices):
        assert type(den) is int and den > 0
        assert all(type(v) is int and v and sum(m) == k for m, v in N.items())


def test_inverse_refuses_a_zero_constant_term():
    # formerly a bare ZeroDivisionError from Fraction(1, 0)
    with pytest.raises(ValueError, match="zero constant term"):
        Polynomial.variable(4, 1).inverse(3)
    with pytest.raises(ValueError, match="zero constant term"):
        (x(1) * Q(1, 2) + x(2) ** 2).inverse(0)


def test_inverse_refuses_a_negative_degree():
    # formerly the slice 1/c, as if d were 0
    with pytest.raises(ValueError, match="through degree -1"):
        (Polynomial.constant(4, 3) + x(1)).inverse(-1)
    assert (Polynomial.constant(4, 3) + x(1)).inverse(0) == \
        Polynomial.constant(4, Q(1, 3))
