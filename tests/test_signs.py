"""The merge sign against the sign routes it replaced.

Every index sign of exterior.py and poisson.py comes from one rule, the
sign of merging two sorted index tuples.  The reference routes below are
the position counts each operation used before: contraction one factor
at a time, star_inv through a sign table read off star, the position of
dx_i in de Rham's dx_i ^ dx_I, and the position of xi_i in the odd right
derivative.  They must agree with the package on every index pair up to
n = 5, and on random elements of R^4.  The package's d is its stencil
alone, so `de_rham_by_position`, the elementwise formula, is also the
route d is checked against wherever a test needs d independently.
"""

from itertools import combinations

from hypothesis import given, strategies as st

from poisson_forge.exterior import (FORM, MULTIVECTOR, GradedElement, contract,
                                    de_rham, star, star_inv)
from poisson_forge.poisson import _xi_right_derivative
from poisson_forge.polynomials import Polynomial
from test_properties import CHECKS, elements, forms


def _subsets(n):
    return [idx for k in range(n + 1)
            for idx in combinations(range(1, n + 1), k)]


def _collect(n, degree, kind, terms):
    """GradedElement from (index, signed polynomial) terms, summing repeats."""
    comps = {}
    for idx, p in terms:
        comps[idx] = comps[idx] + p if idx in comps else p
    return GradedElement(n, degree, kind, comps)


# -- reference routes --------------------------------------------------------


def _insert_single(i, idx):
    """Contract one axis-i factor into a sorted index tuple: (sign, rest) or None."""
    if i not in idx:
        return None
    pos = idx.index(i)
    return (-1 if pos & 1 else 1), idx[:pos] + idx[pos + 1:]


def contract_by_factors(u, v):
    """iota_u(v), the factors of u inserted one at a time, first innermost."""
    terms = []
    for iu, pu in u.comps.items():
        for iv, pv in v.comps.items():
            sign, rest = 1, iv
            for i in iu:
                hit = _insert_single(i, rest)
                if hit is None:
                    break
                s, rest = hit
                sign *= s
            else:
                terms.append((rest, pu * pv * sign))
    return _collect(v.n, v.degree - u.degree, v.kind, terms)


def star_inv_by_table(a):
    """Inverse of star through the table of star on basis multivectors."""
    table = {}
    for idx in _subsets(a.n):
        (image, p), = star(GradedElement.basis(a.n, MULTIVECTOR, idx)).comps.items()
        table[image] = (idx, p.constant_term())
    return _collect(a.n, a.n - a.degree, MULTIVECTOR,
                    [(table[idx][0], p * table[idx][1])
                     for idx, p in a.comps.items()])


def de_rham_by_position(a):
    """d(p dx_I) = sum_i d_i p dx_i ^ dx_I, term by term, with the sign of
    moving dx_i past the smaller indices of I."""
    if a.degree == a.n:
        return GradedElement.zero(a.n, a.n, FORM)
    terms = []
    for idx, p in a.comps.items():
        for i in range(1, a.n + 1):
            if i not in idx:
                pos = sum(1 for j in idx if j < i)
                terms.append((tuple(sorted(idx + (i,))),
                              p.diff(i) * (-1 if pos & 1 else 1)))
    return _collect(a.n, a.degree + 1, FORM, terms)


def xi_right_derivative_by_position(a, i):
    """d/d(xi_i) from the right, the sign of moving xi_i past the larger indices."""
    if a.degree == 0:
        return GradedElement.zero(a.n, 0, MULTIVECTOR)
    terms = []
    for idx, p in a.comps.items():
        if i in idx:
            pos = idx.index(i)
            terms.append((idx[:pos] + idx[pos + 1:],
                          p * (-1 if (len(idx) - 1 - pos) & 1 else 1)))
    return _collect(a.n, a.degree - 1, MULTIVECTOR, terms)


# -- every index pair up to n = 5 ----------------------------------------------


def test_contraction_signs_on_every_index_pair():
    cases = 0
    for n in range(1, 6):
        for J in _subsets(n):
            for I in _subsets(n):
                if len(J) > len(I):
                    continue
                for u_kind, v_kind in ((MULTIVECTOR, FORM), (FORM, MULTIVECTOR)):
                    u = GradedElement.basis(n, u_kind, J)
                    v = GradedElement.basis(n, v_kind, I)
                    assert contract(u, v) == contract_by_factors(u, v)
                cases += set(J) <= set(I)
    assert cases == 363


def test_star_inv_and_odd_derivative_signs_on_every_index_pair():
    cases = 0
    for n in range(1, 6):
        for I in _subsets(n):
            a = GradedElement.basis(n, FORM, I)
            assert star_inv(a) == star_inv_by_table(a)
            cases += 1
            v = GradedElement.basis(n, MULTIVECTOR, I)
            for i in I:
                assert _xi_right_derivative(v, i) == \
                    xi_right_derivative_by_position(v, i)
                cases += 1
    assert cases == 191


def test_de_rham_signs_on_every_index_pair():
    for n in range(1, 6):
        for I in _subsets(n):
            for i in range(1, n + 1):
                a = GradedElement.basis(n, FORM, I, Polynomial.variable(n, i))
                assert de_rham(a) == de_rham_by_position(a)


# -- random elements of R^4 ------------------------------------------------------


@st.composite
def contraction_pairs(draw):
    """(u, v) of complementary kinds with deg(u) <= deg(v)."""
    u_kind = draw(st.sampled_from((FORM, MULTIVECTOR)))
    v_kind = MULTIVECTOR if u_kind == FORM else FORM
    k = draw(st.integers(0, 4))
    l = draw(st.integers(k, 4))
    return draw(elements(u_kind, k)), draw(elements(v_kind, l))


@CHECKS
@given(contraction_pairs())
def test_contract_matches_the_factor_route(uv):
    u, v = uv
    assert contract(u, v) == contract_by_factors(u, v)


@CHECKS
@given(forms)
def test_star_inv_and_de_rham_match_their_references(a):
    assert star_inv(a) == star_inv_by_table(a)
    assert de_rham(a) == de_rham_by_position(a)


@CHECKS
@given(elements(MULTIVECTOR), st.integers(1, 4))
def test_odd_derivative_matches_the_position_count(a, i):
    assert _xi_right_derivative(a, i) == xi_right_derivative_by_position(a, i)
