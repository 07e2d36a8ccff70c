"""The distinguished objects of the Lefschetz singularity on R^4.

The singularity is the real form of (z,w) -> z^2 + w^2 with z = x1 + i*x2,
w = x3 + i*x4:

    f1 = x1^2 - x2^2 + x3^2 - x4^2,      f2 = 2*(x1*x2 + x3*x4).

zeta_1, zeta_2 are the dual rotation 1-forms, beta_i = d(zeta_i).  E and T
are the complex fields z d/dz + w d/dw and z d/dw - w d/dz; E_1, E_2, T_1,
T_2 are their real and imaginary parts (so each carries a 1/2).  W_i is
the bivector star^{-1}(d zeta_i) and eps_i the 3-form star(E_i).

Everything here is validated by the identity suite in poisson.py; the
explicit coefficients below are fixed by those identities.
"""

from functools import cache

from .exterior import (FORM, MULTIVECTOR, GradedElement, de_rham, star,
                       star_inv, volume_form, wedge)
from .poisson import jacobi_poisson
from .polynomials import Polynomial
from .rationals import Q


def _x(i):
    return Polynomial.variable(4, i)


def _dx(i):
    return GradedElement.basis(4, FORM, (i,))


def _e(i):
    return GradedElement.basis(4, MULTIVECTOR, (i,))


def _combo(kind, coeffs):
    """1-form / vector field with the given polynomial coefficients on axes 1..4."""
    mk = _dx if kind == FORM else _e
    out = GradedElement.zero(4, 1, kind)
    for i, c in enumerate(coeffs, start=1):
        out = out + mk(i) * c
    return out


class LefschetzCatalog:
    """Named elements of the Lefschetz case; construct via lefschetz_catalog()."""

    def __init__(self):
        x1, x2, x3, x4 = (_x(i) for i in range(1, 5))
        half = Q(1, 2)

        self.n = 4
        self.f1 = x1 * x1 - x2 * x2 + x3 * x3 - x4 * x4
        self.f2 = 2 * (x1 * x2 + x3 * x4)

        self.zeta1 = _combo(FORM, (-x3 * half, x4 * half, x1 * half, -x2 * half))
        self.zeta2 = _combo(FORM, (-x4 * half, -x3 * half, x2 * half, x1 * half))
        self.beta1 = de_rham(self.zeta1)
        self.beta2 = de_rham(self.zeta2)

        self.E1 = _combo(MULTIVECTOR, (x1 * half, x2 * half, x3 * half, x4 * half))
        self.E2 = _combo(MULTIVECTOR, (x2 * half, -x1 * half, x4 * half, -x3 * half))
        self.T1 = _combo(MULTIVECTOR, (-x3 * half, -x4 * half, x1 * half, x2 * half))
        self.T2 = _combo(MULTIVECTOR, (-x4 * half, x3 * half, x2 * half, -x1 * half))

        self.mu = volume_form(4)
        self.df1 = de_rham(GradedElement.from_polynomial(self.f1))
        self.df2 = de_rham(GradedElement.from_polynomial(self.f2))
        self.df1df2 = wedge(self.df1, self.df2)

        self.W1 = star_inv(self.beta1)
        self.W2 = star_inv(self.beta2)
        self.eps1 = star(self.E1)
        self.eps2 = star(self.E2)

        # generators of the Jacobian ideal J(df1, df2), already a reduced
        # standard basis for the local order
        self.ideal_generators = [
            x1 * x1 + x2 * x2,
            x3 * x3 + x4 * x4,
            x1 * x3 + x2 * x4,
            x1 * x4 - x2 * x3,
        ]

        self.poisson = jacobi_poisson([self.f1, self.f2], 4)
        self.pi = self.poisson.bivector


@cache
def lefschetz_catalog():
    return LefschetzCatalog()
