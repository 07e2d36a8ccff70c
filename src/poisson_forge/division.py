"""de Rham-Saito division groups and slices of polynomial ideals.

For 1-forms a_1, ..., a_k the p-th division group is

    D^p(a_1,...,a_k) = { b in Omega^p : b ^ a_1 ^ ... ^ a_k = 0 }
                       / sum_i a_i ^ Omega^{p-1}.

All inputs here are weight-homogeneous, so the groups split into weight
slices.  The dimension of a slice is a rank difference: the kernel
dimension of wedging with a_1 ^ ... ^ a_k, less the rank of the submodule,
both eliminated on the slice's basis.  Every column is read off the
SliceOperator of a wedge (`exterior.wedge_operator`); a product with a
polynomial g, as in the ideal slices, is the wedge by the 0-form g.  The
submodule lies in the kernel, so the wedge columns at its pivots are left
out.  The submodule's own Koszul relations a_i ^ (a_j ^ c) + a_j ^ (a_i ^
c) = 0 are left out the same way: the block of a_i skips the pivots of
the echelon of sum_{j>=i} a_j ^ Omega^{p-2} (`_submodule_echelon`).  What
does not depend on the slice is built once per tuple of dividing forms
(`_dividing`): the forms' weights, alpha = a_1 ^ ... ^ a_k, the exact
checks a_i ^ alpha = 0 and a_i ^ a_j + a_j ^ a_i = 0 (i <= j) that the
skipped columns rest on, and the wedge operator of alpha.

The Lefschetz case (a_i = df_i) has D^1 = 0 but D^2 nonzero with explicit
generators c*beta_1 + (p*x1 + q1*x3 + q2)*beta_2, which is the measured
failure of the isolated-singularity depth bound.  Its D^1 and D^3 tables
are computed on the toric twin (`catalog.toric_twin`, `twin_problem`),
on the forms d(t1 t3), d(t2 t4) of 2 terms each, whose wedge has 4 terms
against the 12 of df1 ^ df2.  The slice dimensions are the same:

- the x forms have rational coefficients, so every rank, and with it every
  D^p slice dimension, is the same over Q and over C;
- over C, df1 and df2 are unit combinations of d(f1 + i f2) and
  d(f1 - i f2), so both pairs span the same submodule, and df1 ^ df2 =
  (i/2) d(f1 + i f2) ^ d(f1 - i f2) has the same kernel;
- the certified substitution x = P t is linear and invertible, keeps the
  scaling weight and commutes with d and ^, so it maps each (p, w) slice
  of D^p(d(f1 + i f2), d(f1 - i f2)) onto that of D^p(d(t1 t3), d(t2 t4));
- the twin forms have integer coefficients, so their ranks over C are
  those over Q that the slices compute.

D^2's classification, its relation classes and the Jacobian ideal slices
stay in x, where the forms of the classification live.
"""

from collections import namedtuple
from functools import cache
from math import comb

from .catalog import lefschetz_catalog, toric_twin
from .exterior import (FORM, GradedElement, enumerate_basis, wedge, wedge_all,
                       wedge_operator)
from .linalg import InvariantViolation, echelon
from .polynomials import Polynomial


class DivisionProblem:
    """Forms a_1..a_k, exterior degree p, weight w of the tested slice.

    `dividing` is the data of the forms that every slice shares
    (`_dividing`)."""

    __slots__ = ("forms", "p", "w", "dividing")

    def __init__(self, forms, p, w):
        if not forms:
            raise ValueError("need at least one dividing 1-form")
        self.dividing = _dividing(tuple(forms))
        if w < p:
            raise ValueError("weight below exterior degree")
        self.forms = list(forms)
        self.p = p
        self.w = w


# (weights, alpha, weight of alpha, wedge by alpha) per tuple of dividing forms
Dividing = namedtuple("Dividing", "weights alpha weight wedge")


@cache
def _dividing(forms):
    """The Dividing data of a tuple of 1-forms, built once per tuple.

    The forms must be nonzero weight-homogeneous 1-forms on one R^n.  alpha =
    a_1 ^ ... ^ a_k, and a_i ^ alpha = 0 and a_i ^ a_j + a_j ^ a_i = 0 for
    i <= j are checked exactly here, before any slice skips a wedge or a
    submodule column on their strength (`_wedge_kernel_echelon`,
    `_submodule_echelon`).
    """
    n = forms[0].n
    weights = []
    for a in forms:
        if a.kind != FORM or a.degree != 1 or a.n != n:
            raise ValueError("dividing elements must be 1-forms")
        ws = a.weights()
        if len(ws) != 1:
            raise ValueError("dividing forms must be nonzero and "
                             "weight-homogeneous")
        weights.append(ws[0])
    alpha = wedge_all(forms)
    for i, a in enumerate(forms, 1):
        if wedge(a, alpha):
            raise InvariantViolation(
                "a_%d ^ alpha != 0 for the dividing forms: the submodule "
                "is not inside the kernel of the wedge map" % i)
    for i, a in enumerate(forms, 1):
        for j, b in enumerate(forms[i - 1:], i):
            if wedge(a, b) + wedge(b, a):   # a_i ^ a_i = 0 where i = j
                raise InvariantViolation(
                    "a_%d ^ a_%d + a_%d ^ a_%d != 0 for the dividing forms: "
                    "the Koszul relations are not in the submodule's kernel"
                    % (i, j, j, i))
    # when alpha is zero every wedge column is empty
    return Dividing(tuple(weights), alpha, sum(weights), wedge_operator(alpha))


def _submodule_echelon(forms, weights, p, w):
    """Echelon of sum_i a_i ^ Omega^{p-1} inside the (p, w) slice.

    The columns are the blocks a_i ^ Omega^{p-1}, i in order.  For a vector
    v = sum_{j>=i} a_j ^ c_j with smallest index at a pivot of the echelon
    of sum_{j>=i} a_j ^ Omega^{p-2}, the vector with v in block i and a_i ^
    c_j in block j > i is in the kernel of the columns, since a_i ^ a_j +
    a_j ^ a_i = 0 for i <= j (checked once per tuple, `_dividing`), and its
    smallest index is that pivot in block i.  These smallest indices are
    distinct, so the columns at them are skipped with the span kept
    (`linalg`).
    """
    n = forms[0].n
    src = enumerate_basis(p, w, FORM, n)
    cols = []
    for i, (a, u) in enumerate(zip(forms, weights)):
        skip = (_submodule_echelon(forms[i:], weights[i:], p - 1, w - u).rows
                if p >= 2 else ())
        cols += wedge_operator(a).columns(
            enumerate_basis(p - 1, w - u, FORM, n), src, skip=skip)
    return echelon(cols)


def _wedge_kernel_echelon(prob):
    """(kernel_dim, submodule echelon) of the slice.

    The submodule echelon comes first.  Its rows lie in the kernel of
    b -> alpha ^ b, because a_i ^ alpha = 0 for every dividing form (checked
    once per tuple of forms, `_dividing`).  So the wedge column at a row's
    pivot, its smallest index, is a combination of the columns after it,
    and by downward induction over the pivots the other columns have the
    same span: the pivot columns are neither assembled nor eliminated.
    """
    weights, alpha, u, wedge_alpha = prob.dividing
    src = enumerate_basis(prob.p, prob.w, FORM, alpha.n)
    sub = _submodule_echelon(prob.forms, weights, prob.p, prob.w)
    dst = enumerate_basis(prob.p + alpha.degree, prob.w + u, FORM, alpha.n)
    # a ^ b = +-b ^ a, so the rank is that of b -> b ^ alpha
    ech = echelon(wedge_alpha.columns(src, dst, skip=sub.rows))
    return len(src) - ech.rank, sub


def division_group_dim(prob):
    """dim of the (p, w) slice of D^p(a_1,...,a_k)."""
    kernel_dim, sub = _wedge_kernel_echelon(prob)
    return kernel_dim - sub.rank


def lefschetz_problem(p, w):
    cat = lefschetz_catalog()
    return DivisionProblem([cat.df1, cat.df2], p, w)


def twin_problem(p, w):
    """The (p, w) slice of D^p(d(t1 t3), d(t2 t4)) on the toric twin, of the
    same dimension as that of `lefschetz_problem` (module docstring)."""
    return DivisionProblem(list(toric_twin().forms), p, w)


def division_group_basis(prob):
    """Instantiated generators of D^2(df1, df2) at one coefficient degree.

    Images of the classification map (c, p, (q1, q2)) -> c*beta_1 +
    (p*x1 + q1*x3 + q2)*beta_2 at all parameter monomials of the slice,
    in deterministic order.
    """
    cat = lefschetz_catalog()
    if prob.p != 2 or prob.forms != [cat.df1, cat.df2]:
        raise ValueError("basis instantiation only supports D^2(df1, df2)")
    d = prob.w - 2          # coefficient degree of the slice
    if d < 0:
        return []
    # parameter monomials as exponents of x1..x4: x2^(d-1) x1, then
    # x2^i x4^(d-1-i) x3 and x2^i x4^(d-i), larger x2-power first (the
    # local tie-break)
    exponents = ([(1, d - 1, 0, 0)]
                 + [(0, i, 1, d - 1 - i) for i in range(d - 1, -1, -1)]
                 if d >= 1 else [])
    exponents += [(0, i, 0, d - i) for i in range(d, -1, -1)]
    return ([cat.beta1] if d == 0 else []) + [
        cat.beta2 * Polynomial.monomial(4, m) for m in exponents]


def verify_division_basis(prob):
    """(count, dim, independent, all_in_kernel) for the instantiated basis."""
    reps = division_group_basis(prob)
    kernel_dim, sub = _wedge_kernel_echelon(prob)
    dim = kernel_dim - sub.rank
    all_kernel = all(prob.dividing.wedge.apply(r).is_zero() for r in reps)
    src = enumerate_basis(prob.p, prob.w, FORM, 4)
    independent = all(sub.insert(src.coords(r)) for r in reps)
    return len(reps), dim, independent, all_kernel


def submodule_contains(prob, form):
    """Is the form inside sum_i a_i ^ Omega^{p-1} on its slice?"""
    src = enumerate_basis(prob.p, prob.w, FORM, form.n)
    return _submodule_echelon(prob.forms, prob.dividing.weights, prob.p,
                              prob.w).contains(src.coords(form))


# -- Jacobian ideal slices ----------------------------------------------------


def ideal_slice_echelon(generators, d, n=4):
    """Echelonized degree-d slice of the ideal generated by homogeneous polys."""
    basis = enumerate_basis(0, d, FORM, n)
    return echelon(col for g in generators
                   for col in wedge_operator(GradedElement.from_polynomial(g))
                   .columns(enumerate_basis(0, d - g.degree(), FORM, n),
                            basis))


def ideal_slice_dim(d):
    """(dim J_d, dim R_d / J_d) for the Lefschetz Jacobian ideal."""
    cat = lefschetz_catalog()
    if d < 0:
        raise ValueError("degree must be non-negative")
    dim_j = ideal_slice_echelon(cat.ideal_generators, d).rank
    total = comb(d + 3, 3)
    return dim_j, total - dim_j


def ideal_dim_binomial_print(d):
    """The closed binomial count of dim J_d quoted in the source analysis."""
    if d < 2:
        return 0
    val = 2 * comb(d - 1, 1) + 2 * comb(d + 1, 3)
    if d >= 4:
        val -= comb(d - 1, 3)
    return val
