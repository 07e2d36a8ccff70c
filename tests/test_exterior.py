import random
import re
from math import comb

import pytest

from poisson_forge.exterior import (FORM, MULTIVECTOR, GradedElement,
                                    contract, de_rham, enumerate_basis,
                                    lie_derivative, star, star_inv,
                                    volume_form, wedge)
from poisson_forge.polynomials import Polynomial


def element_at(basis, i):
    """The (index tuple, monomial) pair at position i of a WeightSliceBasis."""
    block, r = divmod(i, len(basis.monomials))
    return list(basis.offset)[block], basis.monomials[r]


def basis_element(basis, i):
    """The i-th element of a WeightSliceBasis as a graded element."""
    idx, m = element_at(basis, i)
    return GradedElement.basis(basis.n, basis.kind, idx,
                               Polynomial.monomial(basis.n, m))


def homogeneous_part(p, d):
    """The terms of total degree d of the polynomial p."""
    return Polynomial(p.n, {m: c for m, c in p.terms.items() if sum(m) == d})


def weight_slice(elem, w):
    """Component of scaling weight exactly w."""
    d = w - elem.degree if elem.kind == FORM else w + elem.degree
    if d < 0:
        return GradedElement.zero(elem.n, elem.degree, elem.kind)
    return elem._like({i: homogeneous_part(p, d)
                       for i, p in elem.comps.items()})


def rand_element(rng, k, kind, max_deg=3):
    comps = {}
    basis = enumerate_basis(k, k + rng.randrange(max_deg), kind)
    for _ in range(3):
        idx, m = element_at(basis, rng.randrange(len(basis)))
        comps.setdefault(idx, {})[m] = rng.randint(-3, 3)
    return GradedElement(4, k, kind,
                         {i: Polynomial(4, t) for i, t in comps.items()})


def test_wedge_spec_examples(cat):
    assert wedge(cat.df1, cat.df1).is_zero()
    top = GradedElement.basis(4, MULTIVECTOR, (1, 2, 3, 4))
    assert wedge(cat.W1, cat.W1) == top * 2
    assert wedge(cat.W2, cat.W2) == top * 2
    lhs = wedge(wedge(wedge(cat.E1, cat.E2), cat.T1), cat.T2) * 16
    assert lhs == top * (cat.f1 * cat.f1 + cat.f2 * cat.f2)


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(23)
    for _ in range(20):
        ka, kb, kc = rng.randrange(3), rng.randrange(3), rng.randrange(2)
        a = rand_element(rng, ka, FORM)
        b = rand_element(rng, kb, FORM)
        c = rand_element(rng, kc, FORM)
        ab = wedge(a, b)
        ba = wedge(b, a)
        if (ka * kb) % 2:
            assert ab == -ba
        else:
            assert ab == ba
        assert wedge(ab, c) == wedge(a, wedge(b, c))


def test_wedge_kind_and_overflow():
    a = GradedElement.basis(4, FORM, (1, 2))
    v = GradedElement.basis(4, MULTIVECTOR, (1, 2))
    with pytest.raises(ValueError):
        wedge(a, v)
    big = wedge(wedge(a, a), a)           # degree overflow collapses to zero
    assert big.is_zero()


def test_de_rham_examples(cat):
    b1 = GradedElement(4, 2, FORM, {(1, 3): Polynomial.constant(4, 1),
                                    (2, 4): Polynomial.constant(4, -1)})
    assert de_rham(cat.zeta1) == b1
    assert de_rham(GradedElement.basis(4, FORM, (1,))).is_zero()
    df1 = de_rham(GradedElement.from_polynomial(cat.f1))
    x = [Polynomial.variable(4, i) for i in range(1, 5)]
    expect = GradedElement(4, 1, FORM, {(1,): 2 * x[0], (2,): -2 * x[1],
                                        (3,): 2 * x[2], (4,): -2 * x[3]})
    assert df1 == expect


def test_d_squared_zero_on_slices():
    for k in range(0, 4):
        for w in range(k, 11):
            basis = enumerate_basis(k, w, FORM)
            for i in range(len(basis)):
                assert de_rham(de_rham(basis_element(basis, i))).is_zero()


def test_star_roundtrip_on_slices():
    for k in range(0, 5):
        for w in range(-k, 11 - k):
            mv = enumerate_basis(k, w, MULTIVECTOR)
            for i in range(len(mv)):
                v = basis_element(mv, i)
                assert star_inv(star(v)) == v
        for w in range(k, 11):
            fb = enumerate_basis(k, w, FORM)
            for i in range(len(fb)):
                a = basis_element(fb, i)
                assert star(star_inv(a)) == a


def test_star_examples(cat):
    assert star(GradedElement.basis(4, MULTIVECTOR, (1, 2, 3, 4))) == \
        GradedElement.from_polynomial(Polynomial.constant(4, 1))
    assert star(cat.pi) == cat.df1df2
    assert star(cat.E1) == wedge(cat.zeta1, cat.beta1)


def test_contract_examples(cat):
    got = contract(cat.T1, cat.zeta1).coefficient(())
    assert got * 4 == cat.f1
    assert contract(cat.E1, cat.df1).coefficient(()) == cat.f1
    d1 = GradedElement.basis(4, MULTIVECTOR, (1,))
    dx2 = GradedElement.basis(4, FORM, (2,))
    assert contract(d1, dx2).is_zero()
    with pytest.raises(ValueError):
        contract(cat.pi, cat.zeta1)      # degree 2 into degree 1


def test_contraction_vs_wedge_exhaustive():
    # iota_alpha(star_inv beta) = (-1)^{k(4-k)} star_inv(beta ^ alpha)
    # for all basis pairs of combined weight <= 6 with k + l <= 4
    for k in range(0, 4):
        for l in range(0, 5 - k):
            sign = -1 if (k * (4 - k)) % 2 else 1
            for wa in range(k, 7):
                for wb in range(l, 7):
                    if wa + wb > 6:
                        continue
                    A = enumerate_basis(k, wa, FORM)
                    B = enumerate_basis(l, wb, FORM)
                    for i in range(len(A)):
                        alpha = basis_element(A, i)
                        for j in range(len(B)):
                            beta = basis_element(B, j)
                            lhs = contract(alpha, star_inv(beta))
                            rhs = star_inv(wedge(beta, alpha)) * sign
                            assert lhs == rhs


def test_weight_slices(cat):
    assert weight_slice(cat.zeta1, 2) == cat.zeta1
    mixed = GradedElement.from_polynomial(cat.f1 + Polynomial.variable(4, 1))
    assert weight_slice(mixed, 2) == GradedElement.from_polynomial(cat.f1)
    assert weight_slice(cat.pi, 0) == cat.pi
    assert cat.pi.weights() == [0]
    total = GradedElement.zero(4, 0, FORM)
    for w in mixed.weights():
        total = total + weight_slice(mixed, w)
    assert total == mixed


def test_enumerate_basis_sizes():
    assert len(enumerate_basis(2, 2, FORM)) == 6
    assert len(enumerate_basis(0, 3, FORM)) == 20
    assert len(enumerate_basis(5, 5, FORM)) == 0
    for k in range(0, 5):
        for w in range(k, 8):
            expect = comb(4, k) * comb(3 + w - k, 3)
            assert len(enumerate_basis(k, w, FORM)) == expect


def from_coords(basis, vec):
    """Element of a slice basis from dense list or sparse dict of coordinates."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    comps = {}
    for i, c in items:
        if not c:
            continue
        idx, m = element_at(basis, i)
        comps.setdefault(idx, {})[m] = c
    return GradedElement(basis.n, basis.degree, basis.kind,
                         {idx: Polynomial(basis.n, t) for idx, t in comps.items()})


def test_basis_coords_roundtrip():
    basis = enumerate_basis(2, 4, FORM)
    elem = basis_element(basis, 5) * 3 - basis_element(basis, 17) * 2
    coords = basis.coords(elem)
    assert from_coords(basis, coords) == elem


def test_lie_derivative_examples(cat):
    form0 = GradedElement.from_polynomial
    assert lie_derivative(cat.E2, form0(cat.f1)) == form0(cat.f2)
    assert lie_derivative(cat.T1, form0(cat.f2)).is_zero()
    d1 = GradedElement.basis(4, MULTIVECTOR, (1,))
    assert lie_derivative(d1, form0(Polynomial.variable(4, 1))) == \
        form0(Polynomial.constant(4, 1))
    assert lie_derivative(cat.T2, cat.zeta1).is_zero()
    for g in (Polynomial.variable(3, 1), Polynomial.variable(5, 5)):
        with pytest.raises(ValueError, match="vector field on g's R"):
            lie_derivative(cat.T1, form0(g))
    # a function is refused, with the two ways to act on it named, and so
    # is a multivector
    for g in (cat.f1, Polynomial.variable(3, 1), cat.T2):
        with pytest.raises(ValueError, match=re.escape(
                "lie_derivative acts on forms; on a function h, apply "
                "derivation_operator(v) to GradedElement.from_polynomial(h)")):
            lie_derivative(cat.T1, g)


def test_volume_form():
    mu = volume_form(4)
    assert mu.degree == 4 and mu.coefficient((1, 2, 3, 4)) == \
        Polynomial.constant(4, 1)
