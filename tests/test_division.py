import pytest

from poisson_forge import division
from poisson_forge.catalog import (TWIN_DEN, TWIN_P, TWIN_Q, _gaussian_linear,
                                   certify_twin, toric_twin)
from poisson_forge.cli import main
from poisson_forge.division import (DivisionProblem, _submodule_echelon,
                                    _wedge_kernel_echelon,
                                    division_group_basis, division_group_dim,
                                    ideal_dim_binomial_print, ideal_slice_dim,
                                    ideal_slice_echelon, lefschetz_problem,
                                    submodule_contains, twin_problem,
                                    verify_division_basis)
from poisson_forge.exterior import (FORM, GradedElement, de_rham,
                                    enumerate_basis, wedge, wedge_all,
                                    wedge_operator)
from poisson_forge.linalg import ExactMatrix, InvariantViolation, QEchelon
from poisson_forge.polynomials import Polynomial
from test_exterior import basis_element
from test_linalg import kernel_basis
from test_polynomials import is_homogeneous


def x(i):
    return Polynomial.variable(4, i)


def division_group_dim_via_kernel_basis(prob):
    """Second route: explicit kernel basis, then quotient by the submodule.

    Used as an independent cross-check of division_group_dim.
    """
    alpha = wedge_all(prob.forms)
    aw = alpha.weights()
    n = alpha.n
    p, w = prob.p, prob.w
    src = enumerate_basis(p, w, FORM, n)
    if len(src) == 0:
        return 0
    if not aw or p + alpha.degree > n:
        kernel = [{i: 1} for i in range(len(src))]
    else:
        dst = enumerate_basis(p + alpha.degree, w + aw[0], FORM, n)
        cols = [dst.coords(wedge(basis_element(src, i), alpha))
                for i in range(len(src))]
        mat = ExactMatrix(cols, len(dst))
        kernel = kernel_basis(mat)
    sub = []
    for a in prob.forms:
        u = a.weights()[0]
        lower = enumerate_basis(p - 1, w - u, FORM, n)
        for i in range(len(lower)):
            img = wedge(a, basis_element(lower, i))
            if img:
                sub.append(src.coords(img))
    return quotient_dim(kernel, sub)


def quotient_dim(ambient, sub):
    """dim span(ambient) - dim span(sub); sub must lie inside span(ambient)."""
    amb = QEchelon()
    for a in ambient:
        amb.insert(_as_sparse(a))
    sech = QEchelon()
    for s in sub:
        sv = _as_sparse(s)
        if not amb.contains(sv):
            raise ValueError("subspace vector outside the ambient span")
        sech.insert(sv)
    return amb.rank - sech.rank


def _as_sparse(v):
    if isinstance(v, dict):
        return v
    return {i: x for i, x in enumerate(v) if x}


def test_quotient_dim():
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert quotient_dim(basis, []) == 4
    assert quotient_dim(basis, [[1, 1, 0, 0], [0, 0, 1, -1]]) == 2
    assert quotient_dim([[1, 0], [0, 1], [1, 1]], [[1, 1]]) == 1
    with pytest.raises(ValueError):
        quotient_dim([[1, 0, 0]], [[0, 1, 0]])


def test_d1_vanishes():
    for w in range(1, 13):
        assert division_group_dim(lefschetz_problem(1, w)) == 0


def test_d2_dimensions():
    for d in range(0, 11):
        dim = division_group_dim(lefschetz_problem(2, d + 2))
        assert dim == 2 * (d + 1)


def test_d2_nonzero_refutes_depth_bound():
    # an isolated-intersection depth of 3 would force D^2 = 0; it is not
    assert division_group_dim(lefschetz_problem(2, 2)) == 2


def test_constant_coefficient_forms_divide_freely():
    dx1 = GradedElement.basis(4, FORM, (1,))
    dx2 = GradedElement.basis(4, FORM, (2,))
    for w in range(2, 8):
        prob = DivisionProblem([dx1, dx2], 2, w)
        assert division_group_dim(prob) == 0


def test_two_path_agreement():
    for p, w in [(1, 3), (1, 6), (2, 2), (2, 5), (2, 8), (3, 4), (3, 6)]:
        prob = lefschetz_problem(p, w)
        assert division_group_dim(prob) == \
            division_group_dim_via_kernel_basis(prob)


def full_insert_reference(prob):
    """(kernel_dim, submodule rank) of a slice on R^4 with every wedge and
    submodule column built by `wedge` and inserted; nothing is skipped."""
    alpha = wedge_all(prob.forms)
    src = enumerate_basis(prob.p, prob.w, FORM, 4)
    dst = enumerate_basis(prob.p + alpha.degree, prob.w + alpha.weights()[0],
                          FORM, 4)
    ech = QEchelon()
    for i in range(len(src) if prob.p + alpha.degree <= 4 else 0):
        ech.insert(dst.coords(wedge(alpha, basis_element(src, i))))
    sub = QEchelon()
    for a in prob.forms:
        lower = enumerate_basis(prob.p - 1, prob.w - a.weights()[0], FORM, 4)
        for i in range(len(lower)):
            sub.insert(src.coords(wedge(a, basis_element(lower, i))))
    return len(src) - ech.rank, sub.rank


def dx(i):
    return GradedElement.basis(4, FORM, (i,))


# the Lefschetz pair, its toric twin, and three forms of two weights, whose
# submodule echelon skips at two levels of Koszul relations
DIVIDING = {
    "lefschetz": lambda: lefschetz_problem(1, 1).forms,
    "twin": lambda: list(toric_twin().forms),
    "three forms": lambda: [lefschetz_problem(1, 1).forms[0], dx(2) * x(4),
                            dx(1)],
}


def test_skipped_wedge_columns_keep_the_ranks():
    # neither the wedge columns at the submodule's pivots nor the submodule
    # columns at the pivots of its Koszul relations are built
    for name, forms in DIVIDING.items():
        for p in (1, 2, 3):
            for w in range(p, 10):
                prob = DivisionProblem(forms(), p, w)
                kernel_dim, sub = _wedge_kernel_echelon(prob)
                assert (kernel_dim, sub.rank) == \
                    full_insert_reference(prob), (name, p, w)


def test_koszul_skip_leaves_no_dependent_submodule_column(monkeypatch):
    # on the twin the Koszul complex of d(t1 t3), d(t2 t4) is exact in the
    # tested degrees, so every submodule column that is built raises the rank
    inserted = []

    def counting(columns):
        columns = [col for col in columns if col]
        ech = QEchelon()
        inserted.append((len(columns), sum(map(ech.insert, columns))))
        return ech

    monkeypatch.setattr(division, "echelon", counting)
    prob = twin_problem(3, 8)
    sub = _submodule_echelon(prob.forms, prob.dividing.weights, 3, 8)
    assert sub.rank == 210
    assert len(inserted) == 6          # (3, 8), two at p = 2, three at p = 1
    assert all(built == useful for built, useful in inserted)


def test_kernel_certificate_catches_a_form_that_alpha_does_not_absorb(
        monkeypatch, capsys):
    # alpha + x1^2 dx1^dx2 keeps the weight of df1^df2, but df1 ^ alpha != 0,
    # so the submodule no longer lies in the kernel of the wedge map.  The
    # per-forms cache is cleared, so alpha is built through the patch, and
    # the failed build leaves nothing in it.
    extra = GradedElement.basis(4, FORM, (1, 2), x(1) * x(1))
    monkeypatch.setattr(division, "wedge_all",
                        lambda forms: wedge_all(forms) + extra)
    division._dividing.cache_clear()
    message = r"a_1 \^ alpha != 0 for the dividing forms"
    with pytest.raises(InvariantViolation, match=message):
        division_group_dim(lefschetz_problem(2, 5))
    assert division._dividing.cache_info().currsize == 0
    assert main(["division", "--p", "3", "--max-degree", "2"]) == 1
    out = capsys.readouterr().out
    assert "a_1 ^ alpha != 0 for the dividing forms" in out
    assert "FAIL" in out


def test_dividing_data_is_built_once_per_tuple_of_forms(cat):
    first = lefschetz_problem(2, 5).dividing
    assert lefschetz_problem(3, 7).dividing is first
    assert first.alpha == cat.df1df2 and first.weights == (2, 2)
    assert first.weight == 4
    with pytest.raises(ValueError, match="nonzero and weight-homogeneous"):
        DivisionProblem([cat.df1, GradedElement.zero(4, 1, FORM)], 2, 4)


def test_koszul_certificate_catches_forms_that_do_not_anticommute(
        monkeypatch):
    # a wedge of two 1-forms that picks up x1 dx1^dx2 breaks a_i ^ a_j =
    # -a_j ^ a_i, on which the skipped submodule columns rest
    extra = GradedElement.basis(4, FORM, (1, 2), x(1))

    def skewed(a, b):
        return wedge(a, b) + (extra if a.degree == b.degree == 1 else
                              GradedElement.zero(4, a.degree + b.degree, FORM))

    monkeypatch.setattr(division, "wedge", skewed)
    division._dividing.cache_clear()
    with pytest.raises(InvariantViolation,
                       match=r"a_1 \^ a_1 \+ a_1 \^ a_1 != 0"):
        division_group_dim(twin_problem(2, 4))
    assert division._dividing.cache_info().currsize == 0


def test_twin_substitution_is_certified(cat):
    twin = toric_twin()
    assert toric_twin() is twin
    t = [x(i) for i in range(1, 5)]
    assert twin.forms == (de_rham(GradedElement.from_polynomial(t[0] * t[2])),
                          de_rham(GradedElement.from_polynomial(t[1] * t[3])))
    # df1 ^ df2 = (i/2) d(t1 t3) ^ d(t2 t4): 12 terms on the left, 4 in the
    # twin's wedge
    alpha = wedge(*twin.forms)
    assert sum(len(p.terms) for p in alpha.comps.values()) == 4
    assert sum(len(p.terms) for p in cat.df1df2.comps.values()) == 12
    certify_twin(twin.P, twin.den, twin.Q)


def _flipped(rows, j, part, k):
    """The Gaussian matrix rows with the sign of one coefficient flipped."""
    out = [[list(r) for r in row] for row in rows]
    out[j][part][k] = -out[j][part][k]
    return out


@pytest.mark.parametrize("j, part, k", [(0, 0, 0), (1, 1, 2), (3, 0, 3)])
def test_twin_certificate_catches_one_wrong_coefficient_of_P(j, part, k):
    P = _gaussian_linear(_flipped(TWIN_P, j, part, k))
    with pytest.raises(InvariantViolation, match="send f1 [+-] i f2 to t"):
        certify_twin(P, TWIN_DEN, _gaussian_linear(TWIN_Q))


@pytest.mark.parametrize("j, part, k", [(0, 0, 3), (2, 1, 2)])
def test_twin_certificate_catches_one_wrong_coefficient_of_Q(j, part, k):
    Q = _gaussian_linear(_flipped(TWIN_Q, j, part, k))
    with pytest.raises(InvariantViolation,
                       match="send Q%d\\(x\\) back to t%d" % (j + 1, j + 1)):
        certify_twin(_gaussian_linear(TWIN_P), TWIN_DEN, Q)
    with pytest.raises(InvariantViolation):
        certify_twin(_gaussian_linear(TWIN_P), TWIN_DEN + 1,
                     _gaussian_linear(TWIN_Q))


def test_twin_and_x_division_dimensions_agree():
    # the x forms of lefschetz_problem are the independent route
    for w in range(1, 13):
        assert division_group_dim(twin_problem(1, w)) == 0
        assert division_group_dim(lefschetz_problem(1, w)) == 0
    for p, w_max in ((2, 8), (3, 10)):
        for w in range(p, w_max + 1):
            assert division_group_dim(twin_problem(p, w)) == \
                division_group_dim(lefschetz_problem(p, w)), (p, w)


def test_basis_instantiation(cat):
    b0 = division_group_basis(lefschetz_problem(2, 2))
    assert b0 == [cat.beta1, cat.beta2]
    b1 = division_group_basis(lefschetz_problem(2, 3))
    assert b1 == [cat.beta2 * x(1), cat.beta2 * x(3),
                  cat.beta2 * x(2), cat.beta2 * x(4)]
    for d in range(0, 8):
        count, dim, indep, inker = verify_division_basis(
            lefschetz_problem(2, d + 2))
        assert count == dim == 2 * (d + 1)
        assert indep and inker
    with pytest.raises(ValueError):
        division_group_basis(lefschetz_problem(1, 3))


def test_relation_classes_vanish(cat):
    prob = lefschetz_problem(2, 4)
    assert submodule_contains(prob, cat.beta1 * cat.f1 - cat.beta2 * cat.f2)
    assert submodule_contains(prob, cat.beta1 * cat.f2 + cat.beta2 * cat.f1)
    assert not submodule_contains(lefschetz_problem(2, 2), cat.beta1)


def test_ideal_slices():
    assert ideal_slice_dim(0) == (0, 1)
    assert ideal_slice_dim(1) == (0, 4)
    for d in range(1, 11):
        dim_j, quot = ideal_slice_dim(d)
        assert quot == 2 * (d + 1)
        if d >= 2:
            assert dim_j == ideal_dim_binomial_print(d)


def regular_sequence_check(seq, w_max, n=4):
    """Degreewise regular-sequence verification up to total degree w_max.

    For each step i the multiplication by seq[i] must be injective on
    R / <seq[0..i-1]> in every degree that fits below w_max.  Returns
    (ok, first failing (step, degree) or None).
    """
    for f in seq:
        if not is_homogeneous(f) or f.is_zero():
            raise ValueError("regular-sequence check needs homogeneous nonzero polys")
    for i, f in enumerate(seq):
        prev = seq[:i]
        e = f.degree()
        for d in range(0, w_max - e + 1):
            ideal_lo = ideal_slice_echelon(prev, d, n)
            ideal_hi = ideal_slice_echelon(prev, d + e, n)
            times_f = wedge_operator(GradedElement.from_polynomial(f))
            products = times_f.columns(enumerate_basis(0, d, FORM, n),
                                       enumerate_basis(0, d + e, FORM, n))
            kills = sum(not ideal_hi.insert(col) for col in products)
            # multiplication kernel on the quotient must be exactly the ideal slice
            if kills != ideal_lo.rank:
                return False, (i, d)
    return True, None


def test_regular_sequences(cat):
    ok, fail = regular_sequence_check(
        [x(1) * x(3) + x(2) * x(4), x(1) * x(4) - x(2) * x(3)], 8)
    assert ok and fail is None
    ok, fail = regular_sequence_check([cat.f1, cat.f2], 8)
    assert ok and fail is None
    ok, fail = regular_sequence_check([x(1), x(1)], 6)
    assert not ok and fail == (1, 0)
    with pytest.raises(ValueError):
        regular_sequence_check([x(1) + x(2) * x(3)], 4)


def test_problem_validation(cat):
    with pytest.raises(ValueError):
        DivisionProblem([], 1, 2)
    with pytest.raises(ValueError):
        DivisionProblem([cat.beta1], 1, 2)        # a 2-form cannot divide
    with pytest.raises(ValueError):
        DivisionProblem([cat.df1], 2, 1)          # weight below degree
