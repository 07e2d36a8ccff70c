import random
from math import comb

from poisson_forge.series import (H_SERIES, KERNEL3_PRINTED, KERNEL_SERIES,
                                  RationalSeries)


def forms_series(m, n=4):
    """Series of m-forms on R^n: binom(n,m) t^m / (1-t)^n."""
    return RationalSeries({m: comb(n, m)}, (1,) * n)


def test_expand_examples():
    s = RationalSeries({0: 1, 1: 4, 2: 4}, (2, 2))
    assert s.expand(4) == [1, 4, 6, 8, 11]
    assert RationalSeries({4: 1}, (1, 1, 1, 1)).expand(5) == [0, 0, 0, 0, 1, 4]
    assert RationalSeries({0: 1}, (1,)).expand(3) == [1, 1, 1, 1]


def test_arith_pointwise():
    rng = random.Random(2)
    for _ in range(10):
        a = RationalSeries({i: rng.randint(-3, 3) for i in range(4)},
                           tuple(rng.choice([1, 2]) for _ in range(2)))
        b = RationalSeries({i: rng.randint(-3, 3) for i in range(4)},
                           tuple(rng.choice([1, 2, 3]) for _ in range(2)))
        for op, pyop in ((RationalSeries.add, lambda x, y: x + y),
                         (RationalSeries.sub, lambda x, y: x - y)):
            c = op(a, b)
            ea, eb, ec = a.expand(12), b.expand(12), c.expand(12)
            assert ec == [pyop(u, v) for u, v in zip(ea, eb)]
    x = RationalSeries({1: 2}, (2,))
    assert x.sub(x).expand(6) == [0] * 7


def test_kernel_sum_reproduces_h1():
    lhs = KERNEL_SERIES[1].add(KERNEL_SERIES[2]).sub(forms_series(2))
    assert lhs == H_SERIES[1]
    assert lhs.expand(12) == H_SERIES[1].expand(12)


def test_exact_sequences_all_degrees():
    pairs = [(0, forms_series(0), KERNEL_SERIES[1], forms_series(1)),
             (1, KERNEL_SERIES[1], KERNEL_SERIES[2], forms_series(2)),
             (2, KERNEL_SERIES[2], KERNEL_SERIES[3], forms_series(3)),
             (3, KERNEL_SERIES[3], KERNEL_SERIES[4], forms_series(4))]
    for k, ker_k, ker_next, omega in pairs:
        assert ker_k.add(ker_next).sub(omega) == H_SERIES[k]
    assert KERNEL_SERIES[4] == H_SERIES[4]


def test_printed_kernel3_differs():
    assert KERNEL3_PRINTED.expand(12) != KERNEL_SERIES[3].expand(12)


def test_normalized_cancellation():
    s = RationalSeries({0: 1, 1: -1}, (1, 1))     # (1-t)/(1-t)^2 = 1/(1-t)
    n = s.normalized()
    assert n.den == (1,)
    assert n.expand(5) == [1] * 6
    assert s == n


def test_forms_series():
    assert forms_series(2).expand(3) == [0, 0, 6, 24]
    assert str(forms_series(0)) == "(1)/(1-t)^4"
