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

The toric twin (Monnier, Lett. Math. Phys. 2002) is the complex linear
substitution x = P t with t = Q x,

    t1 = (x1 - x4) + i(x2 + x3),   t3 = (x1 + x4) + i(x2 - x3),

t2 and t4 their conjugates, in which f1 + i f2 = (z + i w)(z - i w) =
t1 t3 and f1 - i f2 = t2 t4.  `toric_twin` certifies both identities and
Q(P(t)) = t once per process, in Gaussian-rational arithmetic held as
pairs (re, im) of Polynomials, and hands out the substitution with the
twin's integer 1-forms d(t1 t3), d(t2 t4), written in the package's
coordinates x1..x4 standing for t1..t4.
"""

from collections import namedtuple
from functools import cache

from .exterior import (FORM, MULTIVECTOR, GradedElement, de_rham, star,
                       star_inv, volume_form, wedge)
from .linalg import InvariantViolation
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


# -- the toric twin -----------------------------------------------------------

# Row j holds (real parts, imaginary parts) of the coefficients of t1..t4 in
# TWIN_DEN * x_j (TWIN_P) and of x1..x4 in t_j (TWIN_Q).
TWIN_DEN = 4
TWIN_P = (((1, 1, 1, 1), (0, 0, 0, 0)), ((0, 0, 0, 0), (-1, 1, -1, 1)),
          ((0, 0, 0, 0), (-1, 1, 1, -1)), ((-1, -1, 1, 1), (0, 0, 0, 0)))
TWIN_Q = (((1, 0, 0, -1), (0, 1, 1, 0)), ((1, 0, 0, -1), (0, -1, -1, 0)),
          ((1, 0, 0, 1), (0, 1, -1, 0)), ((1, 0, 0, 1), (0, -1, 1, 0)))

# x_j = P[j] / den and t_j = Q[j], each a Gaussian linear polynomial (re, im)
# with integer coefficients, and the twin's dividing forms d(t1 t3), d(t2 t4)
ToricTwin = namedtuple("ToricTwin", "P den Q forms")


def _gaussian_linear(rows):
    """The rows of a Gaussian integer matrix as linear (re, im) pairs."""
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    return tuple(tuple(Polynomial(4, dict(zip(units, part))) for part in row)
                 for row in rows)


def _pullback(f, images):
    """f(images) as (re, im): a Gaussian polynomial f = (re, im) with the
    Gaussian polynomials `images` substituted for x1..x4."""
    zero = Polynomial.zero(4)
    re, im = zero, zero
    for part, poly in enumerate(f):
        for m, c in poly.terms.items():
            a, b = Polynomial.constant(4, c), zero
            if part:                        # i*c
                a, b = b, a
            for (u, v), e in zip(images, m):
                for _ in range(e):
                    a, b = a * u - b * v, a * v + b * u
            re, im = re + a, im + b
    return re, im


def certify_twin(P, den, Q):
    """Check that x = P t / den sends f1 + i f2 to t1 t3 and f1 - i f2 to
    t2 t4, and that Q(P(t) / den) = t, exactly; InvariantViolation
    otherwise.  f1, f2 and Q are homogeneous of degrees 2, 2 and 1, so
    each side is compared times den^2 or den."""
    cat = lefschetz_catalog()
    t = [_x(i) for i in range(1, 5)]
    checks = [((cat.f1, cat.f2), t[0] * t[2] * den ** 2,
               "f1 + i f2 to t1 t3"),
              ((cat.f1, -cat.f2), t[1] * t[3] * den ** 2,
               "f1 - i f2 to t2 t4")]
    checks += [(q, t[k] * den, "Q%d(x) back to t%d" % (k + 1, k + 1))
               for k, q in enumerate(Q)]
    for f, want, what in checks:
        if _pullback(f, P) != (want, Polynomial.zero(4)):
            raise InvariantViolation("the twin substitution x = P t does not "
                                     "send %s" % what)


@cache
def toric_twin():
    """The ToricTwin, certified once per process (`certify_twin`)."""
    P, Q = _gaussian_linear(TWIN_P), _gaussian_linear(TWIN_Q)
    certify_twin(P, TWIN_DEN, Q)
    t1, t2, t3, t4 = (_x(i) for i in range(1, 5))
    forms = tuple(de_rham(GradedElement.from_polynomial(f))
                  for f in (t1 * t3, t2 * t4))
    return ToricTwin(P, TWIN_DEN, Q, forms)
