"""Exact scalars.

Every coefficient in this package is exact: an `int` when it is integral,
and a fractions.Fraction `Q` (arbitrary-precision numerator, positive
denominator, lowest terms) only where a denominator exists.  `exact` is
the one normalizer that makes this decision.  A division between
coefficients is written `Q(a, b)`, never `a / b`, which turns two ints
into a float.  Floats are refused everywhere.
"""

from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)


def as_q(x):
    """Coerce an int / Fraction / numeric string to Q."""
    if isinstance(x, float):
        raise TypeError("floating point coefficients are not allowed")
    return Q(x)


def exact(x):
    """x as an exact scalar: an int when integral, else a Q; floats raise."""
    if type(x) is int:
        return x
    q = as_q(x)
    return q.numerator if q.denominator == 1 else q
