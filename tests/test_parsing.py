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


def test_expansion_past_the_working_weight_cap_is_refused():
    # a product of two sums, or a power of a sum, is refused at its operator
    # before it is expanded past MAX_DEGREE; monomial factors are exempt
    with pytest.raises(ParseError, match=r"^power of degree 40 beyond "
                       r"configured maximum 20 \(at offset 13\)$") as exc:
        parse_polynomial("(x1+x2+x3+x4)^40")
    assert exc.value.pos == 13
    with pytest.raises(ParseError, match=r"^product of degree 21 beyond "
                       r"configured maximum 20 \(at offset 10\)$") as exc:
        parse_polynomial("(1+x1)^20 * (1+x2)")
    assert exc.value.pos == 10
    assert len(parse_polynomial("(1+x1+x2+x3+x4)^20").terms) == 10626
    assert parse_polynomial("(1+x1)^20 * x2^5").degree() == 25
    assert parse_polynomial("x1^21 * x2").degree() == 22
    assert parse_polynomial("(x1^30 + x2)^1").degree() == 30
