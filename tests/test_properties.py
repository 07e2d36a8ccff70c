"""Property tests on random small forms and vector fields (hypothesis).

The examples are derandomized, so every run checks the same inputs, and
no example database is written.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from poisson_forge.exterior import (FORM, MULTIVECTOR, GradedElement, contract,
                                    de_rham, divergence)
from poisson_forge.parsing import parse_polynomial
from poisson_forge.poisson import schouten
from poisson_forge.polynomials import Polynomial
from poisson_forge.rationals import exact

CHECKS = settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
monomials = st.tuples(*[st.integers(0, 2)] * 4)


@st.composite
def elements(draw, kind, degree=None):
    """A sparse element of R^4 with up to four terms of x-degree <= 8."""
    k = draw(st.integers(0, 4)) if degree is None else degree
    axes = list(combinations(range(1, 5), k))
    comps = {}
    for idx, m, c in draw(st.lists(st.tuples(st.sampled_from(axes), monomials,
                                             coefficients), max_size=4)):
        comps.setdefault(idx, {})[m] = c
    return GradedElement(4, k, kind,
                         {i: Polynomial(4, t) for i, t in comps.items()})


forms = elements(FORM)
vector_fields = elements(MULTIVECTOR, 1)
polynomials = elements(FORM, 0).map(lambda a: a.coefficient(()))


@CHECKS
@given(forms)
def test_delta_squared_zero(cat, a):
    assert cat.poisson.delta.apply(cat.poisson.delta.apply(a)).is_zero()


@CHECKS
@given(forms)
def test_d_delta_anticommute(cat, a):
    # delta_pi lands in degree k-1 and d in k+1: at k = 0 and k = 4 one of
    # the two compositions is zero on its own
    P = cat.poisson
    if a.degree == 0:
        assert P.delta.apply(de_rham(a)).is_zero()
    elif a.degree == 4:
        assert de_rham(P.delta.apply(a)).is_zero()
    else:
        assert (de_rham(P.delta.apply(a)) + P.delta.apply(de_rham(a))).is_zero()


@CHECKS
@given(forms)
def test_d_squared_zero(a):
    assert de_rham(de_rham(a)).is_zero()


@CHECKS
@given(vector_fields, vector_fields)
def test_schouten_antisymmetric_on_vector_fields(u, v):
    assert schouten(u, v) == -schouten(v, u)
    assert schouten(u, u).is_zero()


def _brackets_in_range(pqr):
    # every bracket of the identity has degree in 0..4: schouten gives a
    # degree-0 zero for degree -1 and cuts off above 4, and elements of
    # different degrees never compare equal
    p, q, r = pqr
    return (all(1 <= s <= 5 for s in (p + q, p + r, q + r))
            and p + q + r <= 6)


@CHECKS
@given(st.tuples(*[st.integers(0, 4)] * 3).filter(_brackets_in_range)
       .flatmap(lambda pqr: st.tuples(*[elements(MULTIVECTOR, k) for k in pqr])))
def test_schouten_graded_jacobi_mixed_degrees(abc):
    # [a, [b, c]] = [[a, b], c] + (-1)^((p-1)(q-1)) [b, [a, c]]
    a, b, c = abc
    term = schouten(b, schouten(a, c))
    if (a.degree - 1) * (b.degree - 1) % 2:
        term = -term
    assert schouten(a, schouten(b, c)) == schouten(schouten(a, b), c) + term


@CHECKS
@given(polynomials, polynomials)
def test_tangent_fields_rescale_pi_by_their_divergence(cat, h, u):
    # Y = u * X_h kills f1 and f2, so [Y, pi] = -div(Y) pi: the identity
    # that keeps the normalizer's flow on the ray of pi
    dh = de_rham(GradedElement.from_polynomial(h))
    field = contract(dh, cat.pi) * u
    for df in (cat.df1, cat.df2):
        assert contract(field, df).is_zero()
    assert schouten(field, cat.pi) == cat.pi * -divergence(field).coefficient(())


@CHECKS
@given(st.dictionaries(monomials, st.builds(Fraction, st.integers(-99, 99),
                                            st.integers(1, 99)), max_size=6))
def test_print_parse_roundtrip(terms):
    p = Polynomial(4, terms)
    assert parse_polynomial(str(p)) == p


# -- int-first scalars against a Fraction-only reference route -----------

scalars = st.one_of(st.integers(-6, 6),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def _ref_diff(a, i):
    out = {}
    for m, c in a.items():
        if m[i - 1]:
            dm = m[:i - 1] + (m[i - 1] - 1,) + m[i:]
            out[dm] = out.get(dm, Fraction(0)) + c * m[i - 1]
    return out


def _stored(p):
    """p's terms, after checking that each is an int or a Fraction."""
    assert all(type(c) in (int, Fraction) for c in p.terms.values())
    return p.terms


@CHECKS
@given(st.dictionaries(monomials, scalars, max_size=5),
       st.dictionaries(monomials, scalars, max_size=5), scalars,
       st.integers(0, 3), st.integers(1, 4))
def test_int_first_arithmetic_matches_fraction_reference(ta, tb, s, k, i):
    a, b = Polynomial(4, ta), Polynomial(4, tb)
    ra = {m: Fraction(c) for m, c in ta.items() if c}
    rb = {m: Fraction(c) for m, c in tb.items() if c}
    # every entry point stores an integral scalar as an int
    for p in (a, b, a * s, s * b, Polynomial.constant(4, s),
              Polynomial.monomial(4, (0, 1, 0, 2), s)):
        assert all(type(c) is int for c in _stored(p).values()
                   if c.denominator == 1)
    assert _stored(a + b) == _ref_add(ra, rb)
    assert _stored(a - b) == _ref_add(ra, {m: -c for m, c in rb.items()})
    assert _stored(a * b) == _ref_mul(ra, rb)
    power = {(0, 0, 0, 0): Fraction(1)}
    for _ in range(k):
        power = _ref_mul(power, ra)
    assert _stored(a ** k) == power
    assert _stored(a.diff(i)) == _ref_diff(ra, i)
    parts = {}
    for m, c in ra.items():
        parts.setdefault(sum(m), {})[m] = c
    assert {e: _stored(p) for e, p in a.homogeneous_parts().items()} == parts
    assert _stored(a * s) == {m: c * s for m, c in ra.items() if s}


def test_floats_and_bools_never_become_coefficients():
    with pytest.raises(TypeError):
        Polynomial(4, {(0, 1, 0, 0): 0.5})
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(TypeError):
        Polynomial.variable(4, 1) * 0.5
    assert type(exact(True)) is int
    assert _stored(Polynomial(4, {(1, 0, 0, 0): True})) == {(1, 0, 0, 0): 1}
