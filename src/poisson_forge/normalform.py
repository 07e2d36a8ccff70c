"""Normal forms against a reduced standard basis under the local order.

The local order makes lower total degree GREATER, so leading monomials of
homogeneous polynomials are the lexicographically largest exponent tuples.
Reduction against the degree-2 Jacobian basis of the Lefschetz ideal is
degree-preserving and terminates without ecart bookkeeping; the reduced
remainder NF(f | G) is unique and vanishes exactly on ideal members,
which is cross-checked against the linear-algebra membership oracle.
"""

from .catalog import lefschetz_catalog
from .division import ideal_slice_echelon
from .exterior import FORM, GradedElement, enumerate_basis
from .polynomials import Polynomial
from .rationals import Q


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class OrderedIdealBasis:
    """Generator list whose reduced-ness is verified, not assumed."""

    __slots__ = ("generators", "reduced")

    def __init__(self, generators):
        if not generators or any(g.is_zero() for g in generators):
            raise ValueError("generators must be nonzero")
        self.generators = list(generators)
        self.reduced = self._verify_reduced()

    def _verify_reduced(self):
        lms = [g.leading_term() for g in self.generators]
        if any(c != 1 for _, c in lms):
            return False
        for i, (mi, _) in enumerate(lms):
            for j, (mj, _) in enumerate(lms):
                if i != j and _divides(mi, mj):
                    return False
        for g, (mg, cg) in zip(self.generators, lms):
            tail = g - Polynomial.monomial(g.n, mg, cg)
            for m in tail.terms:
                if any(_divides(mi, m) for mi, _ in lms):
                    return False
        return True


def lefschetz_ideal_basis():
    return OrderedIdealBasis(lefschetz_catalog().ideal_generators)


def normal_form(f, basis):
    """(NF(f | basis), quotients): the unique reduced remainder of f against
    a reduced basis, and the q_i with f = sum q_i g_i + NF(f | basis).
    """
    if not basis.reduced:
        raise ValueError("normal form needs a verified reduced basis")
    gens = basis.generators
    lms = [g.leading_term() for g in gens]
    quotients = [Polynomial.zero(f.n) for _ in gens]
    rest = f
    reduced_terms = {}
    while not rest.is_zero():
        m, c = rest.leading_term()
        hit = None
        for i, (mg, cg) in enumerate(lms):
            if _divides(mg, m):
                hit = (i, mg, cg)
                break
        if hit is None:
            reduced_terms[m] = c
            rest = rest - Polynomial.monomial(f.n, m, c)
            continue
        i, mg, cg = hit
        factor = Polynomial.monomial(f.n, tuple(a - b for a, b in zip(m, mg)),
                                     Q(c, cg))
        quotients[i] = quotients[i] + factor
        rest = rest - factor * gens[i]
    return Polynomial(f.n, reduced_terms), quotients


def linear_membership(f, basis):
    """Degreewise linear-algebra ideal membership; f need not be reduced."""
    if f.is_zero():
        return True
    for d, part in f.homogeneous_parts().items():
        ech = ideal_slice_echelon(basis.generators, d, f.n)
        slice_basis = enumerate_basis(0, d, FORM, f.n)
        if not ech.contains(slice_basis.coords(GradedElement.from_polynomial(part))):
            return False
    return True
