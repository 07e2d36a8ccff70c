"""Exact rational scalars.

Every coefficient in this package is an exact rational: arbitrary-precision
integer numerator, positive integer denominator, always in lowest terms.
That is fractions.Fraction, the one scalar type `Q`.
"""

from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)


def as_q(x):
    """Coerce an int / Fraction / numeric string to Q."""
    if isinstance(x, float):
        raise TypeError("floating point coefficients are not allowed")
    return Q(x)
