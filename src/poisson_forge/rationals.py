"""Exact rational scalars.

Every coefficient in this package is an exact rational: arbitrary-precision
integer numerator, positive integer denominator, always in lowest terms.
gmpy2's mpq gives that contract with much better speed than Fraction; we
fall back to fractions.Fraction when gmpy2 is unavailable.
"""

from fractions import Fraction

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    Q = Fraction

QZERO = Q(0)
QONE = Q(1)


def as_q(x):
    """Coerce an int / Fraction / mpq / numeric string to the package rational type."""
    if isinstance(x, float):
        raise TypeError("floating point coefficients are not allowed")
    return Q(x)
