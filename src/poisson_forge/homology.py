"""Slice-by-slice Poisson homology of the Lefschetz structure.

The Koszul-Brylinski differential commutes with the scaling action, so
the form complex splits into finite slices of fixed scaling weight w:

    (4,w) -> (3,w) -> (2,w) -> (1,w) -> (0,w)

Each slice map is an exact sparse matrix in the deterministic monomial
bases of exterior.py, read off the structure's delta_pi SliceOperator;
homology dimensions are rank differences, and homology classes are handled
through one cached echelonized boundary basis per slice.  Since
delta_{k+1} delta_{k+2} = 0, every boundary of the (k+1, w) slice is a
kernel vector of delta_{k+1}, so the (k, w) echelon leaves out the columns
at the pivots of the (k+1, w) echelon, which it builds first for k >= 1
and reads at k = 0 only when it is already built.  The identity is
certified once per engine, before the first pivot is skipped, on
delta_pi's stencil rather than slice by slice: each coefficient of
delta_pi(delta_pi(x^m dx_I)) is a polynomial in m that must vanish
identically, which covers every weight at once.  Commands that read every
degree build each weight top degree first, and a homology dimension reads
its image before its kernel.  A homology class is handled by its residual
modulo the boundary echelon (`QEchelon.residual`): up to a nonzero scale
the residual is linear, with the boundaries as kernel.  So one small
echelon of the representatives' residuals per slice (`class_echelon`,
also cached) serves both the independence check and the induced de Rham
complex, and no coordinates are ever tracked.  The cycle check reads
delta_pi's columns, and the induced de Rham complex d's, only at the
support of the representatives' slice coordinates (`SliceOperator.image`);
no other column of either map is assembled for them.

The explicit representative families (unique normal forms of classes) are
one data table: a label, a parameter space, a base form and an optional
de_rham applied after scaling by the parameter; each weight offset is the
weight of the base.  A representative is never built as a form: its slice
coordinates are read straight off the parameter's terms and the base's,
with the base's denominators cleared (`representative_coords`).  Besides
dimensions this module verifies these families, certifies the
module-structure relations over the
Casimir ring as boundary memberships, computes the de Rham complex induced
on homology, and runs the volume-deformation normalizer that rewrites g*pi
as q*pi with q a Casimir function, through a chosen weight.

The normalizer rests on the relative form of Moser's argument: if two
volume forms nu = r mu and nu' = c mu differ by nu' - nu = d(iota_Z mu)
with Z tangent to the fibres (iota_Z df1 = iota_Z df2 = 0) and of positive
weight, a formal diffeomorphism fixing f1 and f2 pulls nu' back to nu.
Proof: on the path nu_t = nu + t(nu' - nu) = (r + t(c - r)) mu, with
r(0) = c(0) != 0, the tangent field Y_t = -Z/(r + t(c - r)) has
L_{Y_t} nu_t = d(iota_{Y_t} nu_t) = -(nu' - nu).  So its flow phi_t has
d/dt phi_t^* nu_t = 0, whence phi_1^* nu' = nu, and phi_t fixes f1 and f2.
The Jacobi-Poisson structure of mu/g is g*pi, so with r = 1/g and c its
Casimir part (the part of 1/g in the top homology), phi_1 pulls q*pi back
to g*pi for q = 1/c.

The normalizer's step splits one weight-i slice r_i of 1/g with no linear
system.  The fields V1 = 2 T1 and V2 = 2 T2 commute, are divergence-free
and tangent (V(f1) = V(f2) = 0): they span the torus with invariants the
f1^a f2^b (Monnier, Lett. Math. Phys. 2002).  On degree-d polynomials their
Lie derivatives L1, L2 are semisimple with the Casimir slice as joint
kernel; off it L1^2 has eigenvalues -lam and L2^2 lam, for lam in
E_d = {k^2 : 1 <= k <= d, k = d mod 2}.  So k2 = prod (L2^2 - lam)/(-lam)
r_i, c_i = prod (L1^2 + lam)/lam k2, and Horner on the minimal polynomials
(`_torus_split`) gives an integral pair (a, b) and a scale s > 0 with
L1 a + L2 b = -s (r_i - c_i).  Then s*X = a V1 + b V2 is tangent with
div(X) = -(r_i - c_i), so d_pi(X) = (r_i - c_i) pi by
[X, pi] = -div(X) pi.  Each step is certified by that one identity,
V1(a) + V2(b) = -s (r_i - c_i), read through the stencils of V1 and V2
on functions (`exterior.derivation_operator`) that the split applies.
By linearity over functions it carries every fact on X through the
torus identities, certified once per engine on composed stencil rows,
so for every weight at once (`_check_torus`): for V = V1, V2,
iota_V df1 = iota_V df2 = 0, delta_pi(h star V) = -V(h) df1^df2 and
d(h star V) = V(h) mu.  The wedge by df1^df2 is injective on functions,
so they pin each stencil, and the step holds whatever produced (a, b).
So s*X is tangent, delta_pi(star(s*X)) = s (r_i - c_i) df1^df2, which is
d_pi(s*X) = s (r_i - c_i) pi since star o d_pi = delta_pi o star and
star(pi) = df1^df2, and d(star(s*X)) = div(s*X) mu = -s (r_i - c_i) mu.
Each c_i is recomposed over the f1^a f2^b (`is_casimir_slice`), which
certifies q = 1/(sum c_i) too: R[[f1, f2]] is closed under inverses.  From
1/g to q each slice is an integer numerator over one denominator
(`Polynomial.inverse_slices`), so the split, the step identity, cleared of
both denominators, and the recomposition run on integers.

The representative and module-structure checks return finished report
rows, dicts in the key order the report prints.
"""

from collections import namedtuple
from functools import cache
from itertools import combinations
from math import gcd, lcm
from operator import add

from .catalog import lefschetz_catalog
from .exterior import (FORM, GradedElement, contract, de_rham,
                       de_rham_operator, derivation_operator, enumerate_basis,
                       star, wedge, wedge_operator)
from .linalg import ExactMatrix, InvariantViolation, QEchelon
from .polynomials import Polynomial
from .rationals import Q


class DeformationStep(namedtuple("Step", "weight casimir_part a b s torus")):
    """One certified step on the weight-i slice of 1/g: its Casimir part, a
    slice of 1/q, and the pair of s*X = a V1 + b V2; X is built when read."""
    corrector = property(lambda t: (t.torus[0] * t.a + t.torus[1] * t.b)
                         * Q(1, t.s))


CASIMIR = "R[[f1,f2]]"
X2SQ_X4 = "R[[x2^2,x4]]"


class RepresentativeFamily:
    """One generator template of the unique-normal-form description.

    A parameter monomial p of the family's parameter space, the Casimir
    ring or R[[x2^2, x4]], instantiates to the weight-homogeneous cycle
    post(p * base); post is None or the SliceOperator of de_rham.  The
    family keeps the base's terms once, as (J, s, c) for c x^s dx_J, with
    its denominators cleared so that every c is an int: a positive
    multiple of a representative spans the same class.  The weight offset
    is the weight of the base, which post = de_rham does not change.
    """

    __slots__ = ("label", "parameter_space", "base", "post", "terms",
                 "weight_offset")

    def __init__(self, label, parameter_space, base, post=None):
        self.label = label
        self.parameter_space = parameter_space
        self.base = base
        self.post = post
        den = lcm(*(c.denominator for p in base.comps.values()
                    for c in p.terms.values()))
        self.terms = [(J, s, int(c * den)) for J, p in base.comps.items()
                      for s, c in p.terms.items()]
        self.weight_offset = base.weights()[0]


def _family_table(cat, d):
    """The generator templates of H_0 .. H_4, indexed by degree; d is the
    SliceOperator of de_rham.

    d(a*x_i)^df1 is written as d(a*x_i*df1), which is the same form since
    d(df1) = 0.
    """
    F = RepresentativeFamily
    # x[i] = x_i and x0[i] the 0-form x_i, with x_0 = 1
    x = [Polynomial.constant(4, 1)] + [Polynomial.variable(4, i)
                                       for i in range(1, 5)]
    x0 = [GradedElement.from_polynomial(p) for p in x]
    return [
        [F("p", CASIMIR, x0[0])]
        + [F("a%d*x%d" % (i, i), X2SQ_X4, x0[i]) for i in range(1, 5)],
        [F("p1*zeta1", CASIMIR, cat.zeta1), F("p2*zeta2", CASIMIR, cat.zeta2),
         F("q1*df1", CASIMIR, cat.df1), F("q2*df2", CASIMIR, cat.df2)]
        + [F("d(a%d*x%d)" % (i, i), X2SQ_X4, x0[i], d)
           for i in range(1, 5)]
        + [F("b%d*x%d*df1" % (i, i), X2SQ_X4, cat.df1 * x[i])
           for i in range(1, 5)],
        [F("p*zeta1^zeta2", CASIMIR, wedge(cat.zeta1, cat.zeta2)),
         F("q*df1^df2", CASIMIR, cat.df1df2),
         F("p1*d(f1*zeta1)", CASIMIR, de_rham(cat.zeta1 * cat.f1)),
         F("p2*d(f1*zeta2)", CASIMIR, de_rham(cat.zeta2 * cat.f1)),
         F("q1*d(zeta1)", CASIMIR, cat.beta1),
         F("q2*d(zeta2)", CASIMIR, cat.beta2)]
        + [F("d(a%d*x%d)^df1" % (i, i), X2SQ_X4, cat.df1 * x[i], d)
           for i in range(1, 5)],
        [F("p1*zeta2^d(zeta1)", CASIMIR, wedge(cat.zeta2, cat.beta1)),
         F("p2*zeta2^d(zeta2)", CASIMIR, wedge(cat.zeta2, cat.beta2)),
         F("q1*df1^d(zeta1)", CASIMIR, wedge(cat.df1, cat.beta1)),
         F("q2*df1^d(zeta2)", CASIMIR, wedge(cat.df1, cat.beta2))],
        [F("p*mu", CASIMIR, cat.mu)],
    ]


@cache
def f_monomials(cat, degree):
    """Monomials f1^a f2^b of x-degree `degree`, largest (a,b) first; cached."""
    if degree < 0 or degree % 2:
        return []
    half = degree // 2
    return [((a, half - a), (cat.f1 ** a) * (cat.f2 ** (half - a)))
            for a in range(half, -1, -1)]


def is_casimir_slice(cat, part, degree):
    """Whether the degree-`degree` slice with terms `part` (monomial -> nonzero
    coefficient) is a combination of the f1^a f2^b.  The lex-leading
    monomial of f1^a f2^b, x1^(2a+b) x2^b with coefficient 2^b, is in no
    f-monomial of smaller a, so a descending reads each coefficient c off
    the remainder, times 2^b to keep integers, which must end at zero."""
    for (a, b), fm in f_monomials(cat, degree):
        c = part.get((2 * a + b, b, 0, 0))
        if c:
            part = _combine(2 ** b, part, -c, fm.terms)
    return not part


def a_monomials(degree):
    """Monomials x2^{2s} x4^u with 2s + u = degree, largest exponent first."""
    if degree < 0:
        return []
    out = []
    for s in range(degree // 2, -1, -1):
        u = degree - 2 * s
        out.append(Polynomial.monomial(4, (0, 2 * s, 0, u)))
    return out


class HomologyEngine:
    """Cached slice computations for the Lefschetz catalog."""

    def __init__(self):
        self.cat = lefschetz_catalog()
        self._boundaries = {}
        self._classes = {}
        self._families = None
        self._parameters = {}
        self._complex_certified = False
        self._torus_derivations = None
        self._x = [Polynomial.variable(4, i) for i in range(1, 5)]
        self._d = de_rham_operator(4)
        # the torus fields V1 = 2 T1 and V2 = 2 T2 of the normalizer's split
        self._torus = (self.cat.T1 * 2, self.cat.T2 * 2)

    # -- matrices and dimensions ------------------------------------

    def basis(self, k, w):
        return enumerate_basis(k, w, FORM)

    def slice_dim(self, k, w):
        return len(self.basis(k, w))

    def delta_matrix(self, k, w, skip=()):
        """Matrix of delta_pi from the (k, w) slice to the (k-1, w) slice,
        less the columns at the source positions in `skip`.

        Its columns are read off the structure's delta_pi stencil, with
        integer entries in the Lefschetz case; nothing is cached, since
        each boundary echelon eliminates its matrix once.
        """
        if not 1 <= k <= 4:
            raise ValueError("degree out of range")
        dst = self.basis(k - 1, w)
        return ExactMatrix(self.cat.poisson.delta.columns(self.basis(k, w),
                                                          dst, skip),
                           len(dst))

    def delta_rank(self, k, w):
        return self.boundary_echelon(k - 1, w).rank

    def kernel_dim(self, k, w):
        if k == 0:
            return self.slice_dim(0, w)
        return self.slice_dim(k, w) - self.delta_rank(k, w)

    def homology_dimension(self, k, w):
        if not 0 <= k <= 4:
            raise ValueError("degree out of range")
        # the image first, so the kernel's echelon skips its pivots
        im = self.delta_rank(k + 1, w)
        kd = self.kernel_dim(k, w)
        if kd < im:
            raise InvariantViolation("negative homology dimension at (%d, %d): "
                                     "dim ker %d, dim im %d" % (k, w, kd, im))
        return kd - im

    def hilbert_function(self, k, w_max):
        return [self.homology_dimension(k, w) for w in range(w_max + 1)]

    def kernel_hilbert(self, k, w_max):
        return [self.kernel_dim(k, w) for w in range(w_max + 1)]

    # -- boundaries ---------------------------------------------------

    def boundary_echelon(self, k, w):
        """Echelonized image of delta inside the (k, w) slice; cached.

        The rows of the (k+1, w) echelon, built first for k >= 1, are
        cycles once delta_pi delta_pi = 0 is certified (`_check_complex`).
        Then the column of delta_{k+1} at a row's pivot, the row's smallest
        index, is a combination of the columns after it, so those columns
        are neither assembled nor eliminated and the span is the same
        (linalg.py).  At k = 0 the (1, w) echelon is read only when cached:
        building degrees 1..3 costs H_0 alone more than it saves.
        """
        key = (k, w)
        if key not in self._boundaries:
            if k == 4:
                ech = QEchelon()
            else:
                above = (self.boundary_echelon(k + 1, w) if k
                         else self._boundaries.get((1, w)))
                skip = {} if above is None else above.rows
                if skip:
                    self._check_complex()
                ech = self.delta_matrix(k + 1, w, skip).echelon()
            self._boundaries[key] = ech
        return self._boundaries[key]

    def boundary_echelons(self, w_max):
        """Build the boundary echelons of every degree at each weight
        through w_max, each skipping the pivots of the one above: degree 1
        builds those above it, then degree 0 reads its pivots."""
        for w in range(w_max + 1):
            for k in (1, 0):
                self.boundary_echelon(k, w)

    def _check_complex(self):
        """Raise unless delta_pi delta_pi = 0, exactly and at every weight
        at once, on the stencil of delta_pi (`SliceOperator.compose`); the
        slice matrices are read off the same stencil.  Once per engine."""
        if self._complex_certified:
            return
        delta = self.cat.poisson.delta
        for k in range(5):
            for idx in combinations(range(1, 5), k):
                if delta.compose(delta, idx):
                    raise InvariantViolation(
                        "delta_pi delta_pi != 0 on the stencil row of %s: the "
                        "boundaries are not all cycles"
                        % "^".join("dx%d" % i for i in idx))
        self._complex_certified = True

    def _check_torus(self):
        """The stencils of h -> V1(h) and h -> V2(h) (`derivation_operator`),
        once the torus identities of the normalizer's step are certified;
        raise unless they hold.  Once per engine.

        For V = V1 and V = V2: iota_V df1 = iota_V df2 = 0, and, as composed
        stencil rows (`SliceOperator.compose`), so exactly and for every
        x^m at once, delta_pi(h star V) = -V(h) df1^df2 and d(h star V) =
        V(h) mu.  The first reads delta_pi's stencil, the second d's; both
        read the wedge by star V, and the right-hand sides the stencil of V
        on functions that the split and the step apply.
        """
        if self._torus_derivations is None:
            cat = self.cat
            delta = cat.poisson.delta
            for name, V in zip(("V1", "V2"), self._torus):
                if contract(V, cat.df1) or contract(V, cat.df2):
                    raise InvariantViolation("torus field %s is not tangent "
                                             "to the fibration" % name)
                times_star = wedge_operator(star(V))
                L = derivation_operator(V)
                if delta.compose(times_star, ()) != \
                        wedge_operator(-cat.df1df2).compose(L, ()):
                    raise InvariantViolation(
                        "torus certificate failed: delta_pi(h star %s) != "
                        "-%s(h) df1^df2" % (name, name))
                if self._d.compose(times_star, ()) != \
                        wedge_operator(cat.mu).compose(L, ()):
                    raise InvariantViolation(
                        "torus certificate failed: d(h star %s) != %s(h) mu"
                        % (name, name))
            self._torus_derivations = tuple(map(derivation_operator,
                                                self._torus))
        return self._torus_derivations

    def class_echelon(self, k, w):
        """(coords, independent, classes) of the (k, w) homology classes; cached.

        `coords` are the representatives' coordinates in the slice basis
        (`representative_coords`).  `classes` is the echelon of their
        residuals modulo the boundary echelon, so a cycle is a combination
        of representatives modulo boundaries iff its residual lies in it.
        `independent` is false when a representative is zero or dependent
        modulo the boundaries; insertion stops there.
        """
        key = (k, w)
        if key not in self._classes:
            coords = self.representative_coords(k, w)
            boundaries = self.boundary_echelon(k, w)
            classes = QEchelon()
            independent = all(classes.insert(boundaries.residual(c))
                              for c in coords)
            self._classes[key] = (coords, independent, classes)
        return self._classes[key]

    def is_boundary(self, form):
        ws = form.weights()
        if not ws:
            return True
        if len(ws) != 1:
            raise ValueError("boundary test needs a weight-homogeneous form")
        w = ws[0]
        coords = self.basis(form.degree, w).coords(form)
        return self.boundary_echelon(form.degree, w).contains(coords)

    # -- representative families --------------------------------------

    def representative_coords(self, k, w):
        """The coordinates in the (k, w) slice basis of the unique-normal-form
        representatives, family by family and parameter monomial by
        parameter monomial, with the families' denominators cleared.

        The coordinate of x^a * c x^s dx_J is c at offset[J] + rank[a + s];
        a Casimir parameter sums these over its terms, and a family with
        post = de_rham applies d's stencil at the support of p * base.
        """
        basis = self.basis(k, w)
        out = []
        for fam in self.representative_families(k):
            params = self.parameters(fam.parameter_space, w - fam.weight_offset)
            if not params:
                continue
            src = basis if fam.post is None else self.basis(k - 1, w)
            offset, rank = src.offset, src.rank
            vecs = []
            for p in params:
                vec = {}
                for a, pc in p.terms.items():
                    for J, s, c in fam.terms:
                        j = offset[J] + rank[tuple(map(add, a, s))]
                        vec[j] = vec.get(j, 0) + pc * c
                vecs.append({j: v for j, v in vec.items() if v})
            out += vecs if fam.post is None else fam.post.image(src, basis, vecs)
        return out

    def representative_families(self, k):
        """The generator templates of one homology degree."""
        if not 0 <= k <= 4:
            raise ValueError("degree out of range")
        if self._families is None:
            self._families = _family_table(self.cat, self._d)
        return self._families[k]

    def parameters(self, space, d):
        """The parameter monomials of x-degree d in `space`; cached."""
        key = (space, d)
        if key not in self._parameters:
            self._parameters[key] = ([p for _, p in f_monomials(self.cat, d)]
                                     if space == CASIMIR else a_monomials(d))
        return self._parameters[key]

    def verify_representatives(self, k, w):
        """Report row: cycles, independent modulo boundaries, count = dimension."""
        coords, independent, _ = self.class_echelon(k, w)
        dim = self.homology_dimension(k, w)
        all_cycles = k == 0 or not any(self.cat.poisson.delta.image(
            self.basis(k, w), self.basis(k - 1, w), coords))
        return {"degree": k, "weight": w, "count": len(coords), "dimension": dim,
                "all_cycles": all_cycles, "independent": independent,
                "ok": all_cycles and independent and len(coords) == dim,
                "name": "representatives (k=%d, w=%d)" % (k, w)}

    # -- module structure over the Casimir ring ------------------------

    def module_structure_relations(self, w_max):
        """The certified relation list; each entry is weight-homogeneous."""
        cat = self.cat
        x = self._x
        rad = (x[1] * x[1] + x[3] * x[3]) * 2      # 2(x2^2 + x4^2)
        combos = [("f1*x1+f2*x2", cat.f1 * x[0] + cat.f2 * x[1]),
                  ("f2*x1-f1*x2", cat.f2 * x[0] - cat.f1 * x[1]),
                  ("f1*x3+f2*x4", cat.f1 * x[2] + cat.f2 * x[3]),
                  ("f2*x3-f1*x4", cat.f2 * x[2] - cat.f1 * x[3])]
        rels = []

        def form0(p):
            return GradedElement.from_polynomial(p)

        for i in range(4):
            mult = cat.f1 * x[i] + rad * x[i]
            rels.append(("H0: f1*x%d = -2(x2^2+x4^2)*x%d" % (i + 1, i + 1),
                         0, form0(mult), True))
            rels.append(("H1: f1*d(x%d) class = -2(x2^2+x4^2) class" % (i + 1),
                         1, de_rham(form0(mult)), True))
            rels.append(("H1: f1*x%d*df1 = -2(x2^2+x4^2)*x%d*df1" % (i + 1, i + 1),
                         1, cat.df1 * mult, True))
            rels.append(("H2: f1*d(x%d)^df1 class" % (i + 1),
                         2, wedge(de_rham(form0(mult)), cat.df1), True))
            rels.append(("H2: f1*d(x%d)^df2 class" % (i + 1),
                         2, wedge(de_rham(form0(mult)), cat.df2), True))
        for name, p in combos:
            rels.append(("H0: %s = 0" % name, 0, form0(p), True))
            rels.append(("H1: d(%s) = 0" % name, 1, de_rham(form0(p)), True))
            rels.append(("H1: (%s)*df1 = 0" % name, 1, cat.df1 * p, True))
            rels.append(("H2: d(%s)^df1 = 0" % name, 2,
                         wedge(de_rham(form0(p)), cat.df1), True))
            rels.append(("H2: d(%s)^df2 = 0" % name, 2,
                         wedge(de_rham(form0(p)), cat.df2), True))
        for i in range(4):
            rels.append(("H0: x%d itself is NOT a boundary" % (i + 1),
                         0, form0(x[i]), False))
        return [(name, k, form, expect) for name, k, form, expect in rels
                if not form or form.weights()[0] <= w_max]

    def module_structure_check(self, w_max):
        """One report row per relation: is it a boundary, as expected?

        The memberships are decided top degree first, so that a degree-0
        echelon skips the pivots of the degree-1 one at the same weight."""
        rels = self.module_structure_relations(w_max)
        found = {i: self.is_boundary(rels[i][2])
                 for i in sorted(range(len(rels)), key=lambda i: -rels[i][1])}
        rows = []
        for i, (name, k, form, expect) in enumerate(rels):
            is_boundary = found[i]
            rows.append({"name": name, "degree": k, "weight": form.weights()[0],
                         "is_boundary": is_boundary, "expect_boundary": expect,
                         "ok": is_boundary == expect,
                         "status": "pass" if is_boundary == expect else "fail"})
        return rows

    # -- induced de Rham complex on homology ----------------------------

    def induced_de_rham(self, w_max):
        """Dimension table of the de Rham cohomology of (H_., d) per (k, w).

        d of each representative is read off the d stencil at the support
        of its coordinates, and its residual modulo the boundaries one
        degree up must lie in the span of the representatives' residuals.
        The rank of those residuals is the rank of d on homology, since a
        residual is linear up to scale and injective modulo the boundaries.
        """
        table = {}
        for w in range(w_max + 1):
            coords = {0: self.representative_coords(0, w)}
            ranks = {}
            for k in range(4):
                coords[k + 1], independent, classes = self.class_echelon(k + 1, w)
                if not independent:
                    raise InvariantViolation("dependent representatives at "
                                             "(%d, %d)" % (k + 1, w))
                boundaries = self.boundary_echelon(k + 1, w)
                image = QEchelon()
                for dr in self._d.image(self.basis(k, w), self.basis(k + 1, w),
                                        coords[k]):
                    if not dr:
                        continue
                    res = boundaries.residual(dr)
                    if not classes.contains(res):
                        raise InvariantViolation(
                            "d of a cycle did not decompose at (%d, %d)" % (k, w))
                    image.insert(res)
                ranks[k] = image.rank
            ranks[4] = 0
            for k in range(5):
                dim_h = len(coords[k])
                incoming = ranks[k - 1] if k else 0
                table[(k, w)] = dim_h - ranks[k] - incoming
        return table

    # -- volume deformation normalizer ------------------------------------

    def normalize_volume_deformation(self, g, w_max):
        """Rewrite g*pi as q*pi modulo a formal diffeomorphism, through w_max.

        g*pi is the Jacobi-Poisson structure of the volume form mu/g.  Each
        weight-i slice r_i of r = 1/g is split as c_i - div(X_i), c_i its
        Casimir part, with s*X_i = a V1 + b V2 certified exactly by one
        identity on (a, b).  For X the sum of
        the X_i and 1/q = sum c_i, mu/g - mu/q = -d(iota_X mu), and the Moser
        argument above carries g*pi to q*pi.  Returns (q, transcript).
        """
        if not isinstance(g, Polynomial):
            raise TypeError("g must be a Polynomial")
        if g.constant_term() <= 0:
            raise ValueError("g must have positive constant term")
        r = g.inverse_slices(w_max)
        casimir, transcript = r[:1], []
        for i, (R, den) in enumerate(r[1:], 1):
            C, Dc, pair, s = self._split_slice(R, den, i)
            if not is_casimir_slice(self.cat, C, i):
                raise InvariantViolation("normalized factor is not a Casimir "
                                         "series at degree %d" % i)
            casimir.append((C, Dc))
            if pair is None:       # already a pure Casimir slice
                continue
            # an exact certificate on s*X = a V1 + b V2, never trusted
            # silently: with the torus identities, V1(a) + V2(b) =
            # -s (r_i - c_i), here times den*Dc, makes s*X tangent with
            # d_pi(s*X) = s (r_i - c_i) pi and div(s*X) = -s (r_i - c_i)
            L1, L2 = self._check_torus()
            a, b = pair
            div = L2.apply_terms((), b, L1.apply_terms((), a, {}))[()]
            if _combine(Dc * den, div, 0, {}) != \
                    _combine(s * den, C, -s * Dc, R):
                raise InvariantViolation("correction field certificate failed "
                                         "at weight %d" % i)
            transcript.append(DeformationStep(
                i, Polynomial.of_slices(4, [(C, Dc)]), Polynomial._of(4, a),
                Polynomial._of(4, b), s, self._torus))
        return Polynomial.of_slices(4, casimir).inverse(w_max), transcript

    def _split_slice(self, R, den, i):
        """(C, Dc, (a, b), s) for the weight-i slice r_i = R/den, R a map
        monomial -> nonzero int and den > 0: its Casimir part c_i = C/Dc and
        the integral pair of s*X = a V1 + b V2, s > 0, a tangent X with
        div(X) = -(r_i - c_i); the pair is None when r_i = c_i.  By the
        module docstring's torus split, c_i = C/(den M2 M1) and den (M1
        M2)^2 X = (A M2) V1 + (B M1^2) V2.  A Casimir g runs no torus check."""
        L1, L2 = map(derivation_operator, self._torus)
        K2, M2, B = _torus_split(L2, -1, i, R)
        C, M1, A = _torus_split(L1, 1, i, K2)
        s = den * (M1 * M2) ** 2
        g = gcd(s, M2 * gcd(*A.values()), M1 * M1 * gcd(*B.values()))
        pair = ({m: v * M2 // g for m, v in A.items()},
                {m: v * M1 * M1 // g for m, v in B.items()}) if A or B else None
        return C, den * M2 * M1, pair, s // g


def _combine(x, p, y, q):
    """x*p + y*q for term maps p and q, with no zero coefficient."""
    out = {m: x * v for m, v in p.items()}
    for m, v in q.items():
        out[m] = out.get(m, 0) + y * v
    return {m: v for m, v in out.items() if v}


def _torus_split(L, sign, d, p):
    """(K, m0, A), integer term maps as p is, with p = K/m0 + L(-A/m0^2) and
    L(K) = 0 for the stencil L of a torus field on functions, whose square
    is -sign * lam off its kernel on degree d, lam in E_d: K = prod (L^2 +
    sign * lam) p, and off the kernel m(L^2) = 0 for m(t) = prod (t + sign *
    lam), so A = L h(L^2) (m0 p - K) with m0 = m(0), h = (m - m0)/t."""
    def V(p):
        return L.apply_terms((), p, {})[()]

    m = [1]            # coefficients of m, constant term first
    K = p
    for lam in (k * k for k in range(2 - d % 2, d + 1, 2)):
        K = _combine(1, V(V(K)), sign * lam, K)
        m = [sign * lam * c + c1 for c, c1 in zip(m + [0], [0] + m)]
    acc = rest = _combine(m[0], p, -1, K)
    for c in reversed(m[1:-1]):
        acc = _combine(1, V(V(acc)), c, rest)
    return K, m[0], _combine(1, V(acc), 0, {})


@cache
def default_engine():
    return HomologyEngine()
