"""Every SliceOperator the package builds against the map it wraps.

Each instance is checked four ways: its rows equal the rows read off the
map at five points (`sampled`, the reference reader kept here for any
map of order at most one); its slice columns equal the coordinates
of the map on each basis element, on every slice of coefficient degree at
most 8 - k (so up to weight 8 for forms); they also equal the columns
found by looking each image term up in a dict of the target's positions,
the reference for the monomial-shift tables, skipped columns included;
and `apply` equals the map on random non-homogeneous
rational forms (hypothesis).  The map of d is the elementwise formula
(`de_rham_by_position`, test_signs.py), since `exterior.de_rham` is d's
stencil itself; the two also agree on random forms of every degree on
R^3 and R^4.  d_pi has no stencil of its own: its
entries pair delta_pi's stencil with star o d_pi o star_inv, d_pi by the
Schouten bracket, which is the identity through which the normalizer's
torus certificate reads d_pi(h V) off delta_pi(h star V).  The stencils
of the torus fields V1 = 2 T1 and V2 = 2 T2 on functions have the Lie
derivative on 0-forms by Cartan's formula (`lie_derivative`, iota_V d)
as their map, and also equal it on every monomial through degree 4, as
does the stencil of a field with constant and quadratic coefficients.  The two rational structures of
test_poisson.py do not preserve the weight, so they have no slice
matrices; their rows are checked against the five-point rows, and their
images against the map basis element by basis element there.  The closed
rows of delta_pi are also checked on random bivectors that need
not be Poisson, and on those the composed rows of delta_pi o delta_pi
(`SliceOperator.compose`, the complex certificate) vanish exactly when
[pi, pi] = 0.  The composed rows equal one map applied after the other
for the composites of the torus certificate and for the square of a Lie
derivative.  The tangency conditions of the reference step systems of
test_homology.py are wedges by df1 and df2 on the 3-form tau; their rows
are checked against (iota_X df_k) mu for X = star_inv(tau), read off the
contraction.
"""

from itertools import combinations
from operator import add

import pytest
from hypothesis import given, strategies as st

from poisson_forge.exterior import (FORM, MULTIVECTOR, GradedElement,
                                    SliceOperator, _stencil_row, contract,
                                    de_rham, de_rham_operator,
                                    derivation_operator, divergence,
                                    enumerate_basis, lie_derivative, star,
                                    star_inv, wedge, wedge_operator)
from poisson_forge.poisson import PoissonStructure, d_pi, jacobi_poisson, schouten
from poisson_forge.polynomials import Polynomial, monomials_of_degree
from poisson_forge.rationals import Q
from test_exterior import basis_element, element_at
from test_poisson import delta_reference, rational_structures
from test_properties import CHECKS, coefficients
from test_signs import de_rham_by_position

NAMES = ["delta Lefschetz", "delta rational R^4", "delta rational R^3",
         "d_pi Lefschetz", "d_pi rational R^4", "d_pi rational R^3",
         "d", "df1 ^ .", "df2 ^ .", "df1^df2 ^ .",
         "contract(star_inv(.), df1)", "contract(star_inv(.), df2)",
         "x1^2+x2^2 * .", "x3^2+x4^2 * .", "x1*x3+x2*x4 * .", "x1*x4-x2*x3 * .",
         "V1 on functions", "V2 on functions"]


def sampled(fn, n, shift):
    """The operator of fn, its rows read off fn at m = (1,...,1) and at
    the n unit steps m + e_i.

    The coefficient of x^(m+t) dx_J there is c0 + c.m, and since every
    t >= -1 no term is lost at these points.
    """
    ones = (1,) * n

    def read(idx):
        values = []
        for m in [ones] + [ones[:i] + (2,) + ones[i + 1:] for i in range(n)]:
            image = fn(GradedElement.basis(n, FORM, idx,
                                           Polynomial.monomial(n, m)))
            values.append({(J, tuple(e - mi for e, mi in zip(mt, m))): v
                           for J, p in image.comps.items()
                           for mt, v in p.terms.items()})
        base = values[0]
        entries = [(J, t, None, v) for (J, t), v in base.items()]
        # c_i is the value at m + e_i less the value at m, c0 = base - sum c
        for i, image in enumerate(values[1:]):
            for J, t in set(image) | set(base):
                ci = image.get((J, t), 0) - base.get((J, t), 0)
                entries += [(J, t, i, ci), (J, t, None, -ci)]
        return _stencil_row(entries)

    return SliceOperator(read, n, shift)


def differentials(name, P):
    """The delta_pi and d_pi instances of one unimodular structure: its
    delta_pi stencil against delta_pi's definition, and against d_pi by
    the Schouten bracket through star o d_pi = delta_pi o star."""
    return {"delta " + name: (P.delta, lambda a: delta_reference(a, P),
                              P.n, range(P.n + 1), 0),
            "d_pi " + name: (P.delta, lambda a: star(d_pi(star_inv(a), P)),
                             P.n, range(P.n + 1), 0)}


@pytest.fixture(scope="module")
def instances(cat, engine):
    """name -> (operator, the map, n, source degrees, weight shift)."""
    on_r4, on_r3 = rational_structures()
    out = {"d": (engine._d, de_rham_by_position, 4, range(4), 0)}
    for name, P in [("Lefschetz", cat.poisson), ("rational R^4", on_r4),
                    ("rational R^3", on_r3)]:
        out.update(differentials(name, P))
    for a, name in [(cat.df1, "df1"), (cat.df2, "df2"), (cat.df1df2, "df1^df2")]:
        out[name + " ^ ."] = (wedge_operator(a), lambda b, a=a: wedge(a, b), 4,
                              range(5 - a.degree), 2 * a.degree)
    # the reference step systems' tangency rows: df_k ^ tau = (iota_X df_k) mu
    for i, df in enumerate((cat.df1, cat.df2), start=1):
        out["contract(star_inv(.), df%d)" % i] = (
            wedge_operator(df),
            lambda tau, df=df: cat.mu * contract(star_inv(tau),
                                                 df).coefficient(()),
            4, [3], 2)
    for name, g in zip(NAMES[-6:-2], cat.ideal_generators):
        out[name] = (wedge_operator(GradedElement.from_polynomial(g)),
                     lambda b, g=g: b * g, 4, [0], 2)
    # the torus fields of the normalizer's split and step identity, against
    # Cartan's formula on 0-forms
    for name, V in zip(NAMES[-2:], (cat.T1 * 2, cat.T2 * 2)):
        out[name] = (derivation_operator(V), lambda h, V=V: lie_derivative(V, h),
                     4, [0], 0)
    assert sorted(out) == sorted(NAMES)
    return out


def five_point_rows_agree(op, fn, n, degrees):
    reference = sampled(fn, n, op.shift)
    for k in degrees:
        for idx in combinations(range(1, n + 1), k):
            assert op.row(idx) == reference.row(idx), idx


@pytest.mark.parametrize("name", NAMES)
def test_rows_equal_the_five_point_rows(instances, name):
    op, fn, n, degrees, _ = instances[name]
    five_point_rows_agree(op, fn, n, degrees)


@pytest.mark.parametrize("name", [n for n in NAMES if "rational" not in n])
def test_columns_are_coordinates_of_the_map(instances, name):
    op, fn, n, degrees, shift = instances[name]
    for k in degrees:
        # coefficient degrees d through 8 - k, so the weights k..8 for forms
        for d in range(9 - k):
            src = enumerate_basis(k, d + k, FORM, n)
            images = [fn(basis_element(src, i)) for i in range(len(src))]
            if not images:
                continue
            dst = enumerate_basis(images[0].degree, d + k + shift, FORM, n)
            assert op.columns(src, dst) == [dst.coords(a) for a in images], \
                (k, d)


def position_columns(op, src, dst, skip=()):
    """The columns of op with each image term (J, m + t) looked up in a
    dict of dst's positions: the reference for the shift tables."""
    positions = {element_at(dst, i): i for i in range(len(dst))}
    out = []
    for j in range(len(src)):
        if j in skip:
            continue
        idx, m = element_at(src, j)
        col = {}
        for J, t, c0, c in op.row(idx):
            v = c0 + sum(ci * m[i] for i, ci in c)
            if v:
                key = (J, tuple(map(add, m, t)))
                if key not in positions:
                    raise ValueError("the image of the (%d,%d) slice leaves "
                                     "the (%d,%d) slice" % (src.degree,
                                                            src.weight,
                                                            dst.degree,
                                                            dst.weight))
                col[positions[key]] = v
        out.append(col)
    return out


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("name", NAMES)
def test_table_columns_equal_the_position_route(instances, name):
    # the rational structures do not preserve the weight: both routes must
    # refuse with the same text there
    op, _, n, degrees, shift = instances[name]
    for k in degrees:
        for d in range(9 - k):
            w = d + k
            src = enumerate_basis(k, w, FORM, n)
            dst = enumerate_basis(min(max(k + op.shift, 0), n), w + shift,
                                  FORM, n)
            for skip in ((), set(range(0, len(src), 2))):
                assert outcome(op.columns, src, dst, skip=skip) == \
                    outcome(position_columns, op, src, dst, skip), (k, w, skip)


def test_columns_into_an_empty_slice(engine):
    # d of the constants: every coefficient is 0, so no term needs a place
    # in the empty (1, 0) slice
    assert len(enumerate_basis(1, 0)) == 0
    assert engine._d.columns(enumerate_basis(0, 0), enumerate_basis(1, 0)) \
        == [{}]
    with pytest.raises(ValueError, match=r"\(0,1\) slice leaves the \(1,0\)"):
        engine._d.columns(enumerate_basis(0, 1), enumerate_basis(1, 0))


def test_coords_refuse_a_term_outside_the_slice():
    x1 = Polynomial.variable(4, 1)
    a = GradedElement.basis(4, FORM, (1, 2), x1 * x1 + x1)
    assert enumerate_basis(2, 4).coords(GradedElement.basis(4, FORM, (1, 2),
                                                            x1 * x1)) == {0: 1}
    for basis in (enumerate_basis(2, 4), enumerate_basis(2, 1)):
        with pytest.raises(ValueError, match=r"outside the \(2,%d\) slice"
                           % basis.weight):
            basis.coords(a)


def test_columns_name_both_slices_when_the_image_leaves_dst():
    # the rational structure on R^4 does not preserve the weight
    with pytest.raises(ValueError, match=r"\(2,5\) slice leaves the \(1,5\) slice"):
        rational_structures()[0].delta.columns(enumerate_basis(2, 5),
                                               enumerate_basis(1, 5))


@st.composite
def elements(draw, n, degrees, kind=FORM):
    """An element on R^n of one of the degrees, up to four terms of x-degree
    <= 2n."""
    k = draw(st.sampled_from(list(degrees)))
    axes = list(combinations(range(1, n + 1), k))
    comps = {}
    for idx, m, c in draw(st.lists(st.tuples(
            st.sampled_from(axes), st.tuples(*[st.integers(0, 2)] * n),
            coefficients), max_size=4)):
        comps.setdefault(idx, {})[m] = c
    return GradedElement(n, k, kind,
                         {i: Polynomial(n, t) for i, t in comps.items()})


@pytest.mark.parametrize("name", NAMES)
@CHECKS
@given(data=st.data())
def test_apply_equals_the_map(instances, name, data):
    op, fn, n, degrees, _ = instances[name]
    a = data.draw(elements(n, degrees))
    assert op.apply(a) == fn(a)


@pytest.mark.parametrize("n", [3, 4])
@CHECKS
@given(data=st.data())
def test_de_rham_equals_the_elementwise_formula(n, data):
    # exterior.de_rham applies d's stencil, the top degree included
    a = data.draw(elements(n, range(n + 1)))
    assert de_rham(a) == de_rham_by_position(a)


def test_apply_refuses_the_other_kind(cat, engine):
    # every operator acts on forms; a multivector's terms are not the rows'
    v = GradedElement.basis(4, MULTIVECTOR, (1, 2), Polynomial.variable(4, 1))
    for op in (cat.poisson.delta, engine._d, wedge_operator(cat.df1)):
        with pytest.raises(ValueError, match="acts on forms, not multivectors"):
            op.apply(v)


@CHECKS
@given(data=st.data())
def test_closed_rows_of_random_bivectors(data):
    # rational, non-homogeneous and in general not Poisson: the closed rows
    # read pi's terms and nothing else
    n = data.draw(st.sampled_from([3, 4]))
    P = PoissonStructure(data.draw(elements(n, [2], MULTIVECTOR)))
    five_point_rows_agree(P.delta, lambda a: delta_reference(a, P), n,
                          range(n + 1))


@st.composite
def bivectors(draw, n):
    """A rational bivector on R^n: random, so mostly not Poisson, or the
    Jacobi-Poisson structure of n - 2 random functions vanishing at 0."""
    if draw(st.booleans()):
        return draw(elements(n, [2], MULTIVECTOR))
    fns = []
    for _ in range(n - 2):
        f = draw(elements(n, [0])).coefficient(())
        fns.append(f - f.constant_term())
    return jacobi_poisson(fns, n).bivector


def compose_at(op, inner, idx, m):
    """fn(inner(x^m dx_idx)) from op.compose(inner, idx), evaluated at m."""
    comps = {}
    for (K, u), q in op.compose(inner, idx).items():
        v = 0
        for key, c in q.items():
            for i in (key if isinstance(key, tuple) else (key,)):
                c *= m[i]
            v += c
        mu = tuple(map(add, m, u))
        if min(mu) < 0:
            assert v == 0, (idx, m, K, u)
        elif v:
            comps.setdefault(K, {})[mu] = v
    return {K: Polynomial(len(m), t) for K, t in comps.items()}


@pytest.mark.parametrize("n", [3, 4])
@CHECKS
@given(data=st.data())
def test_stencil_square_certifies_exactly_the_poisson_bivectors(n, data):
    # an independent route for the complex certificate: delta_pi o delta_pi
    # vanishes on every row exactly when [pi, pi] = 0
    pi = data.draw(bivectors(n))
    P = PoissonStructure(pi)
    tuples = [idx for k in range(n + 1)
              for idx in combinations(range(1, n + 1), k)]
    certified = not any(P.delta.compose(P.delta, idx) for idx in tuples)
    assert certified == schouten(pi, pi).is_zero()
    # and the composed rows are delta_pi o delta_pi, including at m_i = 0
    idx = data.draw(st.sampled_from(tuples))
    m = data.draw(st.tuples(*[st.integers(0, 2)] * n))
    a = GradedElement.basis(n, FORM, idx, Polynomial.monomial(n, m))
    assert P.delta.apply(P.delta.apply(a)).comps == \
        compose_at(P.delta, P.delta, idx, m)


@pytest.mark.parametrize("n", [3, 4])
@CHECKS
@given(data=st.data())
def test_square_composes_a_map_of_order_one_with_itself(n, data):
    # the square of delta_pi has order one, so its quadratic terms
    # in m cancel; the Lie derivative along a vector field squares to
    # order two, which exercises them (on every degree, top forms included)
    X = data.draw(elements(n, [1], MULTIVECTOR))
    op = sampled(lambda a: lie_derivative(X, a), n, 0)
    idx = data.draw(st.sampled_from([idx for k in range(n + 1) for idx in
                                     combinations(range(1, n + 1), k)]))
    m = data.draw(st.tuples(*[st.integers(0, 2)] * n))
    a = GradedElement.basis(n, FORM, idx, Polynomial.monomial(n, m))
    assert lie_derivative(X, lie_derivative(X, a)).comps == \
        compose_at(op, op, idx, m)


def torus_composites(cat):
    """name -> (fn, inner) for the composites of the torus certificate."""
    V1, V2 = cat.T1 * 2, cat.T2 * 2
    return {"delta_pi o (. star V1)": (cat.poisson.delta,
                                       wedge_operator(star(V1))),
            "(df1^df2) o L_V2": (wedge_operator(cat.df1df2),
                                 derivation_operator(V2)),
            "d o (. star V2)": (de_rham_operator(4), wedge_operator(star(V2)))}


@pytest.mark.parametrize("name", ["delta_pi o (. star V1)", "(df1^df2) o L_V2",
                                  "d o (. star V2)"])
def test_compose_equals_apply_after_apply(cat, name):
    # on every monomial function through degree 4, m_i = 0 included
    op, inner = torus_composites(cat)[name]
    for d in range(5):
        for m in monomials_of_degree(4, d):
            h = GradedElement.from_polynomial(Polynomial.monomial(4, m))
            assert op.apply(inner.apply(h)).comps == \
                compose_at(op, inner, (), m), m


def test_derivation_stencil_is_the_lie_derivative(cat):
    # V1 and V2, and a field with constant and quadratic coefficients
    x1, x2, x4 = (Polynomial.variable(4, i) for i in (1, 2, 4))
    mixed = GradedElement(4, 1, MULTIVECTOR, {
        (1,): Polynomial.constant(4, 3), (2,): x1 * x4 * -2 + x2 * x2,
        (4,): Polynomial.constant(4, Q(1, 2)) + x1 * x1})
    for V in (cat.T1 * 2, cat.T2 * 2, mixed):
        op = derivation_operator(V)
        assert op.shift == 0
        for d in range(5):
            for m in monomials_of_degree(4, d):
                h = GradedElement.from_polynomial(Polynomial.monomial(4, m))
                assert op.apply(h) == lie_derivative(V, h), m
    with pytest.raises(ValueError, match="acts on functions, not on 1-forms"):
        derivation_operator(mixed).row((1,))
    with pytest.raises(ValueError, match="needs a vector field"):
        derivation_operator(cat.pi)


@pytest.mark.parametrize("n", [3, 4])
@CHECKS
@given(data=st.data())
def test_lie_derivative_of_a_top_form_is_the_divergence(n, data):
    # L_X(g mu) = div(g X) mu, with div(Y) = sum_i d_i Y_i written out here
    # rather than read off `divergence`, which is checked against it too
    X = data.draw(elements(n, [1], MULTIVECTOR))
    g = data.draw(elements(n, [0])).coefficient(())
    div = Polynomial.zero(n)
    for i in range(1, n + 1):
        div = div + (X.coefficient((i,)) * g).diff(i)
    assert divergence(X * g).coefficient(()) == div
    mu = GradedElement.basis(n, FORM, tuple(range(1, n + 1)))
    assert lie_derivative(X, mu * g) == mu * div
