"""Every SliceOperator the package builds against the map it wraps.

Each instance is checked two ways: its slice columns equal the coordinates
of fn on each basis element, on every slice up to weight 8, and `apply`
equals fn on random non-homogeneous rational forms (hypothesis).  The two
rational structures of test_poisson.py do not preserve the weight, so they
have no slice matrices; their rows are checked there, basis element by
basis element.
"""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from poisson_forge.division import _times, _wedge_by
from poisson_forge.exterior import FORM, GradedElement, enumerate_basis
from poisson_forge.polynomials import Polynomial
from test_exterior import basis_element
from test_poisson import rational_structures
from test_properties import CHECKS, coefficients

NAMES = ["delta Lefschetz", "delta rational R^4", "delta rational R^3",
         "d", "df1 ^ .", "df2 ^ .", "df1^df2 ^ .",
         "contract(star_inv(.), df1)", "contract(star_inv(.), df2)",
         "x1^2+x2^2 * .", "x3^2+x4^2 * .", "x1*x3+x2*x4 * .", "x1*x4-x2*x3 * ."]


@pytest.fixture(scope="module")
def instances(cat, engine):
    """name -> (operator, n, source degrees, weight shift)."""
    on_r4, on_r3 = rational_structures()
    out = {"delta Lefschetz": (cat.poisson.delta, 4, range(5), 0),
           "delta rational R^4": (on_r4.delta, 4, range(5), 0),
           "delta rational R^3": (on_r3.delta, 3, range(4), 0),
           "d": (engine._d, 4, range(4), 0),
           "df1 ^ .": (_wedge_by(cat.df1), 4, range(4), 2),
           "df2 ^ .": (_wedge_by(cat.df2), 4, range(4), 2),
           "df1^df2 ^ .": (_wedge_by(cat.df1df2), 4, range(3), 4)}
    for i, op in enumerate(engine._tangency, start=1):
        out["contract(star_inv(.), df%d)" % i] = (op, 4, [3], -2)
    for name, g in zip(NAMES[-4:], cat.ideal_generators):
        out[name] = (_times(g), 4, [0], 2)
    assert sorted(out) == sorted(NAMES)
    return out


@pytest.mark.parametrize("name", [n for n in NAMES if "rational" not in n])
def test_columns_are_coordinates_of_the_map(instances, name):
    op, n, degrees, shift = instances[name]
    for k in degrees:
        for w in range(k, 9):
            src = enumerate_basis(k, w, FORM, n)
            images = [op.fn(basis_element(src, i)) for i in range(len(src))]
            if not images:
                continue
            dst = enumerate_basis(images[0].degree, w + shift, FORM, n)
            assert op.columns(src, dst) == [dst.coords(a) for a in images], (k, w)


def test_columns_name_both_slices_when_the_image_leaves_dst():
    # the rational structure on R^4 does not preserve the weight
    with pytest.raises(ValueError, match=r"\(2,5\) slice leaves the \(1,5\) slice"):
        rational_structures()[0].delta.columns(enumerate_basis(2, 5),
                                               enumerate_basis(1, 5))


@st.composite
def forms(draw, n, degrees):
    """A form on R^n of one of the degrees, up to four terms of x-degree <= 2n."""
    k = draw(st.sampled_from(list(degrees)))
    axes = list(combinations(range(1, n + 1), k))
    comps = {}
    for idx, m, c in draw(st.lists(st.tuples(
            st.sampled_from(axes), st.tuples(*[st.integers(0, 2)] * n),
            coefficients), max_size=4)):
        comps.setdefault(idx, {})[m] = c
    return GradedElement(n, k, FORM,
                         {i: Polynomial(n, t) for i, t in comps.items()})


@pytest.mark.parametrize("name", NAMES)
@CHECKS
@given(data=st.data())
def test_apply_equals_the_map(instances, name, data):
    op, n, degrees, _ = instances[name]
    a = data.draw(forms(n, degrees))
    assert op.apply(a) == op.fn(a)
