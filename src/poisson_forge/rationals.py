"""Exact scalars.

Every coefficient in this package is exact: an `int` when it is integral,
and a fractions.Fraction `Q` (arbitrary-precision numerator, positive
denominator, lowest terms) only where a denominator exists.  `exact` is
the one normalizer that makes this decision.  A division between
coefficients is written `Q(a, b)`, never `a / b`, which turns two ints
into a float.  Floats are refused everywhere.
"""

from fractions import Fraction as Q


def exact(x):
    """x as an exact scalar: an int when integral, else a Q; floats raise."""
    if type(x) is int:
        return x
    if type(x) is not Q:
        if isinstance(x, float):
            raise TypeError("floating point coefficients are not allowed")
        x = Q(x)
    return x.numerator if x.denominator == 1 else x
