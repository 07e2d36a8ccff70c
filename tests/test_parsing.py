import random

import pytest

from poisson_forge.exterior import FORM, MULTIVECTOR
from poisson_forge.parsing import (ParseError, parse_expression, parse_form,
                                   parse_polynomial, print_polynomial)
from poisson_forge.polynomials import Polynomial, monomials_of_degree
from poisson_forge.rationals import Q


def x(i):
    return Polynomial.variable(4, i)


def test_parse_examples(cat):
    assert parse_polynomial("x1^2 - x2^2 + x3^2 - x4^2") == cat.f1
    assert parse_polynomial("0").is_zero()
    assert parse_polynomial("x1*(x3 + x4) - x1*x3") == x(1) * x(4)


def test_rationals_and_whitespace():
    assert parse_polynomial(" 2/3 * x1 ") == x(1) * Q(2, 3)
    assert parse_polynomial("1/2+1/2") == Polynomial.constant(4, 1)
    assert parse_polynomial("-x1 + x1").is_zero()


def test_forms_and_multivectors(cat):
    z = parse_form("1/2*(-x3*[dx1] + x4*[dx2] + x1*[dx3] - x2*[dx4])")
    assert z == cat.zeta1
    mv = parse_form("[e1^e2]")
    assert mv.kind == MULTIVECTOR and mv.degree == 2
    w = parse_form("[dx1^dx3] - [dx2^dx4]")
    assert w == cat.beta1
    anti = parse_form("[dx2^dx1]")
    assert anti == -parse_form("[dx1^dx2]")


def test_roundtrip_polynomials():
    rng = random.Random(29)
    for _ in range(25):
        d = rng.randrange(0, 5)
        monos = monomials_of_degree(4, d)
        p = Polynomial(4, {m: Q(rng.randint(-9, 9), rng.randint(1, 5))
                           for m in rng.sample(monos, min(4, len(monos)))})
        assert parse_polynomial(print_polynomial(p)) == p


def test_roundtrip_elements(cat):
    for elem in (cat.zeta1, cat.zeta2, cat.beta2, cat.df1df2, cat.mu,
                 cat.pi, cat.E1, cat.W1):
        assert parse_form(str(elem)) == elem


def test_errors():
    with pytest.raises(ParseError):
        parse_polynomial("x1^-2")
    with pytest.raises(ParseError):
        parse_polynomial("x9")
    with pytest.raises(ParseError):
        parse_polynomial("x1 +")
    with pytest.raises(ParseError):
        parse_polynomial("(x1")
    with pytest.raises(ParseError):
        parse_polynomial("x1 $ x2")
    with pytest.raises(ParseError):
        parse_form("[dx1^e2]")
    with pytest.raises(ParseError):
        parse_form("[dx1 dx2]")
    with pytest.raises(ParseError):
        parse_polynomial("1/0")
    with pytest.raises(ParseError):
        parse_expression("[dx1]^2")
    with pytest.raises(ParseError):
        parse_polynomial("x1²")          # unicode superscript rejected


def test_error_offsets():
    try:
        parse_polynomial("x1 + $")
    except ParseError as exc:
        assert exc.pos == 5
    else:
        raise AssertionError("expected ParseError")


def test_polynomial_vs_form_contract():
    with pytest.raises(ParseError):
        parse_polynomial("[dx1]")
    p = parse_form("x1*x2")
    assert p.kind == FORM and p.degree == 0


def test_mixed_degree_addition_rejected():
    with pytest.raises(ParseError):
        parse_expression("[dx1] + [dx1^dx2]")
    with pytest.raises(ParseError):
        parse_expression("[dx1] + [e1]")
