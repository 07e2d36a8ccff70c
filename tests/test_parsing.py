import random

import pytest

from poisson_forge.parsing import ParseError, parse_polynomial
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


def test_roundtrip_polynomials():
    rng = random.Random(29)
    for _ in range(25):
        d = rng.randrange(0, 5)
        monos = monomials_of_degree(4, d)
        p = Polynomial(4, {m: Q(rng.randint(-9, 9), rng.randint(1, 5))
                           for m in rng.sample(monos, min(4, len(monos)))})
        assert parse_polynomial(str(p)) == p


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
        parse_polynomial("1/0")
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
    # the grammar has no wedge groups: a bracket is an unexpected character
    with pytest.raises(ParseError, match=r"unexpected character '\['"):
        parse_polynomial("[dx1]")
    with pytest.raises(ParseError, match=r"unexpected character 'd'"):
        parse_polynomial("dx1")

