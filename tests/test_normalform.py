import random

import pytest

from poisson_forge.division import ideal_slice_echelon
from poisson_forge.exterior import FORM, GradedElement, enumerate_basis
from poisson_forge.homology import a_monomials, f_monomials
from poisson_forge.linalg import QEchelon
from poisson_forge.normalform import (OrderedIdealBasis, _divides,
                                      lefschetz_ideal_basis, linear_membership,
                                      normal_form)
from poisson_forge.polynomials import Polynomial, monomials_of_degree


def x(i):
    return Polynomial.variable(4, i)


def leading_monomials(basis):
    return [g.leading_term()[0] for g in basis.generators]


def is_reduced_wrt(f, basis):
    """No monomial of f divisible by a leading monomial of the basis."""
    lms = leading_monomials(basis)
    return all(not any(_divides(mg, m) for mg in lms) for m in f.terms)


def casimir_intersection_check(d_max, cat):
    """Slicewise intersection checks of the Jacobian ideal with the Casimir
    ring and the module <x_1..x_4> over R[[x2^2, x4]].

    Verifies, for every degree d <= d_max:
      * J_d intersect span(f-monomials) = span((f1^2+f2^2) * f-monomials),
      * the same after enlarging by the module slice M_d,
      * span(f-monomials) intersect M_d = 0.
    Returns (ok, table of per-degree dimension data).
    """
    ff = cat.f1 * cat.f1 + cat.f2 * cat.f2
    ok = True
    table = []
    for d in range(d_max + 1):
        slice_basis = enumerate_basis(0, d, FORM, 4)

        def coords(p):
            return slice_basis.coords(GradedElement.from_polynomial(p))

        j_ech = ideal_slice_echelon(cat.ideal_generators, d, 4)
        f_vecs = [coords(p) for _, p in f_monomials(cat, d)]
        m_vecs = [coords(a * x(i)) for i in range(1, 5)
                  for a in a_monomials(d - 1)]
        expect_vecs = [coords(ff * p) for _, p in f_monomials(cat, d - 4)]

        dim_f = _span_dim(f_vecs)
        dim_m = _span_dim(m_vecs)
        dim_fm = _span_dim(f_vecs + m_vecs)
        dim_j = j_ech.rank
        inter_f = dim_f + dim_j - _span_dim(f_vecs + _rows(j_ech))
        inter_fm = dim_fm + dim_j - _span_dim(f_vecs + m_vecs + _rows(j_ech))
        expected = _span_dim(expect_vecs)
        expected_inside = all(j_ech.contains(v) for v in expect_vecs)
        row_ok = (inter_f == expected and inter_fm == expected
                  and dim_f + dim_m == dim_fm and expected_inside)
        ok = ok and row_ok
        table.append({"degree": d, "dim_J": dim_j, "dim_F": dim_f,
                      "dim_M": dim_m, "intersection_F": inter_f,
                      "intersection_FM": inter_fm, "expected": expected,
                      "ok": row_ok})
    return ok, table


def _rows(ech):
    return [dict(main) for main, _ in ech.rows.values()]


def _span_dim(vectors):
    ech = QEchelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


def test_leading_monomial_examples(cat):
    m, c = cat.f1.leading_term()
    assert m == (2, 0, 0, 0) and c == 1
    assert (Polynomial.constant(4, 1) + x(1)).leading_term()[0] == (0,) * 4
    assert (x(2) + x(1)).leading_term()[0] == (1, 0, 0, 0)


def test_basis_is_reduced(cat):
    G = lefschetz_ideal_basis()
    assert G.reduced
    # sabotage: non-unit leading coefficient
    bad = OrderedIdealBasis([g * 2 for g in cat.ideal_generators])
    assert not bad.reduced
    # sabotage: one leading monomial divides another
    bad2 = OrderedIdealBasis([x(1), x(1) * x(3) + x(2) * x(4)])
    assert not bad2.reduced
    with pytest.raises(ValueError):
        normal_form(x(1), bad)


def test_normal_form_examples(cat):
    G = lefschetz_ideal_basis()
    assert normal_form(x(1) * x(4), G)[0] == x(2) * x(3)
    assert normal_form(cat.f1 * cat.f1 + cat.f2 * cat.f2, G)[0].is_zero()
    assert normal_form(x(1), G)[0] == x(1)


def test_nf_f1_powers(cat):
    G = lefschetz_ideal_basis()
    rad = x(2) * x(2) + x(4) * x(4)
    for m in range(1, 5):
        assert normal_form(cat.f1 ** m, G)[0] == (rad ** m) * ((-2) ** m)


def test_nf_idempotent_and_reduced(cat):
    G = lefschetz_ideal_basis()
    rng = random.Random(17)
    for _ in range(30):
        d = rng.randrange(1, 7)
        terms = {m: rng.randint(-3, 3)
                 for m in rng.sample(monomials_of_degree(4, d),
                                     min(6, len(monomials_of_degree(4, d))))}
        f = Polynomial(4, terms)
        r = normal_form(f, G)[0]
        assert normal_form(r, G)[0] == r
        assert is_reduced_wrt(r, G)


def test_certificate(cat):
    G = lefschetz_ideal_basis()
    rng = random.Random(19)
    for _ in range(40):
        d = rng.randrange(1, 8)
        monos = monomials_of_degree(4, d)
        f = Polynomial(4, {m: rng.randint(-4, 4)
                           for m in rng.sample(monos, min(5, len(monos)))})
        r, qs = normal_form(f, G)
        rebuilt = r
        for q, g in zip(qs, G.generators):
            rebuilt = rebuilt + q * g
        assert rebuilt == f
        # f - r in the ideal, certified by the linear oracle as well
        assert linear_membership(f - r, G)


def test_crosscheck_examples(cat):
    G = lefschetz_ideal_basis()

    def crosscheck(f):
        nf_member = normal_form(f, G)[0].is_zero()
        lin_member = linear_membership(f, G)
        return nf_member, lin_member, nf_member == lin_member

    for m in (2, 3):
        nf_m, lin_m, agree = crosscheck(cat.f1 ** m)
        assert agree
    # built from generators: member by both paths
    f = cat.ideal_generators[0] * x(3) * x(4) - cat.ideal_generators[2] * x(1) * x(2)
    nf_m, lin_m, agree = crosscheck(f)
    assert nf_m and lin_m and agree
    nf_m, lin_m, agree = crosscheck(x(1) * x(2) * x(3))
    assert not nf_m and not lin_m and agree


def test_casimir_intersection(cat):
    ok, table = casimir_intersection_check(6, cat)
    assert ok
    by_degree = {row["degree"]: row for row in table}
    assert by_degree[4]["intersection_F"] == 1      # spanned by f1^2 + f2^2
    assert by_degree[2]["intersection_F"] == 0
    assert by_degree[3]["intersection_FM"] == 0     # odd degree: M meets J in 0


def test_zero_and_constants(cat):
    G = lefschetz_ideal_basis()
    assert normal_form(Polynomial.zero(4), G)[0].is_zero()
    assert normal_form(Polynomial.constant(4, 7), G)[0] == Polynomial.constant(4, 7)
