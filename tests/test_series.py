"""The reference series and the identities between them.

Two rational series sums are compared by expanding both through t^N,
with N the sum of max(num) + sum(den) over every series involved.  That
is exact: over the product of all denominators, the numerator of
(left - right) has degree at most N, so it vanishes once its first N + 1
coefficients do.
"""

from fractions import Fraction
from math import comb

import pytest

from poisson_forge.series import (H_SERIES, KERNEL3_PRINTED, KERNEL_SERIES,
                                  RationalSeries)


def forms_series(m, n=4):
    """Series of m-forms on R^n: binom(n,m) t^m / (1-t)^n."""
    return RationalSeries({m: comb(n, m)}, (1,) * n)


def same_sum(left, right):
    """sum(left) == sum(right) as rational series; each side a list of
    (sign, series)."""
    terms = left + [(-sign, s) for sign, s in right]
    n = sum(max(s.num) + sum(s.den) for _, s in terms)
    total = [0] * (n + 1)
    for sign, s in terms:
        total = [a + sign * b for a, b in zip(total, s.expand(n))]
    return not any(total)


def test_expand_examples():
    s = RationalSeries({0: 1, 1: 4, 2: 4}, (2, 2))
    assert s.expand(4) == [1, 4, 6, 8, 11]
    assert RationalSeries({4: 1}, (1, 1, 1, 1)).expand(5) == [0, 0, 0, 0, 1, 4]
    assert RationalSeries({0: 1}, (1,)).expand(3) == [1, 1, 1, 1]


def test_series_refuses_non_integers_and_stores_no_zero():
    for num, den in (({0: 0.5}, ()), ({1.9: 2}, ()), ({0: 1}, (2.7,)),
                     ({0: 2.0}, ())):
        with pytest.raises(TypeError):
            RationalSeries(num, den)
    for num, den in (({0: Fraction(1, 2)}, ()), ({Fraction(3, 2): 1}, ()),
                     ({0: 1}, (Fraction(5, 2),))):
        with pytest.raises(ValueError):
            RationalSeries(num, den)
    s = RationalSeries({0: 0, 1: Fraction(4, 2), 2: Fraction(0, 3)},
                       (Fraction(2), 2))
    assert s.num == {1: 2} and s.den == (2, 2)
    assert str(s) == "(2*t)/(1-t^2)^2"
    assert s.expand(3) == [0, 2, 0, 4]


def test_kernel_sum_reproduces_h1():
    assert same_sum([(1, KERNEL_SERIES[1]), (1, KERNEL_SERIES[2]),
                     (-1, forms_series(2))], [(1, H_SERIES[1])])


def test_exact_sequences_all_degrees():
    # H_k = ker delta_k - im delta_{k+1} = ker delta_k + ker delta_{k+1}
    # - Omega^{k+1}, with ker delta_0 = Omega^0
    kernels = {0: forms_series(0), **KERNEL_SERIES}
    for k in range(4):
        assert same_sum([(1, kernels[k]), (1, kernels[k + 1]),
                         (-1, forms_series(k + 1))], [(1, H_SERIES[k])]), k
    assert same_sum([(1, KERNEL_SERIES[4])], [(1, H_SERIES[4])])


def test_kernel_series_are_the_papers_two_term_forms():
    around = (2, 2)            # 1/(1-t^2)^2
    line = (1, 1, 1, 1)        # 1/(1-t)^4
    printed = {
        1: [RationalSeries({0: -1, 2: 2}, around),
            RationalSeries({0: 1, 2: 2}, line)],
        2: [RationalSeries({4: 3}, around), RationalSeries({2: 2, 4: 1}, line)],
        3: [RationalSeries({4: 3}, around), RationalSeries({4: 1}, line)],
    }
    for k, parts in printed.items():
        assert same_sum([(1, KERNEL_SERIES[k])], [(1, p) for p in parts]), k
    assert same_sum([(1, KERNEL3_PRINTED)],
                    [(1, RationalSeries({4: 1}, around)),
                     (1, RationalSeries({4: 1}, line))])


def test_printed_kernel3_differs():
    assert KERNEL3_PRINTED.expand(12) != KERNEL_SERIES[3].expand(12)
    # and it breaks the short exact sequence that forces the corrected line
    assert not same_sum([(1, KERNEL_SERIES[2]), (1, KERNEL3_PRINTED),
                         (-1, forms_series(3))], [(1, H_SERIES[2])])


def test_forms_series():
    assert forms_series(2).expand(3) == [0, 0, 6, 24]
    assert str(forms_series(0)) == "(1)/(1-t)^4"
