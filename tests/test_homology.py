import copy
import json
import re
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from poisson_forge import cli, homology
from poisson_forge.cli import main
from poisson_forge.exterior import (FORM, MULTIVECTOR, GradedElement,
                                    SliceOperator, contract, divergence,
                                    lie_derivative, star, star_inv, wedge,
                                    wedge_operator)
from poisson_forge.homology import (HomologyEngine, InvariantViolation,
                                    f_monomials, is_casimir_slice)
from poisson_forge.linalg import QEchelon
from poisson_forge.parsing import parse_polynomial
from poisson_forge.poisson import PoissonStructure, d_pi, schouten
from poisson_forge.polynomials import Polynomial, monomial_key, monomials_of_degree
from poisson_forge.rationals import Q
from poisson_forge.series import H_SERIES, KERNEL_SERIES
from test_exterior import (basis_element, element_at, homogeneous_part,
                           weight_slice)
from test_linalg import (SpanSolver, apply, clone, is_zero, matmul,
                         rational_solve)
from test_signs import de_rham_by_position


def x(i):
    return Polynomial.variable(4, i)


def instantiate(fam, p):
    """The forms route to a representative, post(p * base) as a form with the
    family's base as written and post = d by the elementwise formula: the
    reference for the engine's coordinates."""
    form = fam.base * p
    return de_rham_by_position(form) if fam.post else form


def clearing(fam):
    """The lcm of the denominators of a family's base."""
    return lcm(*(c.denominator for p in fam.base.comps.values()
                 for c in p.terms.values()))


def representative_basis(engine, k, w, cleared=False):
    """The (k, w) representatives as forms, family by family, each family's
    scaled by `clearing` when `cleared`."""
    return [instantiate(fam, p) * (clearing(fam) if cleared else 1)
            for fam in engine.representative_families(k)
            for p in engine.parameters(fam.parameter_space,
                                       w - fam.weight_offset)]


# -- slice matrices -----------------------------------------------------


def test_delta_matrix_top_slice(engine):
    m = engine.delta_matrix(4, 4)
    assert m.cols == 1 and is_zero(m)


def test_zeta1_in_kernel(engine, cat):
    basis = engine.basis(1, 2)
    coords = basis.coords(cat.zeta1)
    m = engine.delta_matrix(1, 2)
    assert apply(m, coords) == {}


def test_composition_zero(engine):
    for w in range(1, 11):
        for k in range(2, 5):
            assert is_zero(matmul(engine.delta_matrix(k - 1, w),
                                  engine.delta_matrix(k, w)))


def full_insert_echelon(matrix):
    """Reference: every nonzero column inserted sparsest first, none skipped."""
    ech = QEchelon()
    for col in sorted((c for c in matrix.columns if c), key=len):
        ech.insert(col)
    return ech


@pytest.mark.parametrize("top_down", [True, False])
def test_boundary_echelon_spans_the_image(top_down, monkeypatch):
    # top down, each echelon skips the pivots of the one above.  Asked for
    # in ascending degree on a fresh engine, an echelon of degree >= 1 still
    # builds the one above first and skips its pivots, but the degree-0
    # echelon comes before the degree-1 one and skips nothing
    eng = HomologyEngine()
    inserts = []
    insert = QEchelon.insert

    def counted(self, vec):
        inserts.append(self)
        return insert(self, vec)

    monkeypatch.setattr(QEchelon, "insert", counted)
    if top_down:
        eng.boundary_echelons(8)
    else:
        for w in range(9):
            for k in range(4):
                eng.boundary_echelon(k, w)
    monkeypatch.undo()
    for w in range(9):
        for k in range(4):
            ech = eng.boundary_echelon(k, w)
            matrix = eng.delta_matrix(k + 1, w)
            assert ech.rank == full_insert_echelon(matrix).rank, (k, w)
            assert all(ech.contains(col) for col in matrix.columns), (k, w)
    degree = {id(ech): k for (k, _), ech in eng._boundaries.items()}
    into = [sum(1 for ech in inserts if degree[id(ech)] == k) for k in range(4)]
    nonzero = [sum(1 for w in range(9)
                   for col in eng.delta_matrix(k + 1, w).columns if col)
               for k in range(4)]
    # nothing lies above degree 3; degrees 1 and 2 skip in either order
    assert into[3] == nonzero[3]
    assert into[1] < nonzero[1] and into[2] < nonzero[2]
    assert (into[0] < nonzero[0]) if top_down else (into[0] == nonzero[0])


def test_single_degree_commands_build_no_echelon_above():
    # H_0 alone: degree 0 reads the (1, w) echelon only when it is built
    eng = HomologyEngine()
    assert eng.hilbert_function(0, 12) == H_SERIES[0].expand(12)
    assert eng._boundaries and all(k == 0 for k, _ in eng._boundaries)


def test_complex_certificate_catches_a_broken_delta(monkeypatch, capsys, cat):
    # an engine on a private copy of the structure whose delta_pi row of
    # dx1^dx2^dx3^dx4 gains the term x^m dx1^dx2^dx3, which delta_pi does not
    # kill: boundaries of degree 3 are no longer cycles, and skipping their
    # pivots in the degree-2 echelons would be unfounded.  The shared
    # catalog's structure is never touched.
    def broken_engine():
        P = PoissonStructure(cat.pi)
        top = (1, 2, 3, 4)
        P.delta.rows[top] = P.delta.row(top) + (((1, 2, 3), (0,) * 4, 1, ()),)
        eng = HomologyEngine()
        eng.cat = copy.copy(cat)
        eng.cat.poisson = P
        return eng

    message = (r"delta_pi delta_pi != 0 on the stencil row of "
               r"dx1\^dx2\^dx3\^dx4: the boundaries are not all cycles")
    with pytest.raises(InvariantViolation, match=message):
        broken_engine().boundary_echelons(6)
    assert cat.poisson.delta.row((1, 2, 3, 4)) == \
        PoissonStructure(cat.pi).delta.row((1, 2, 3, 4))
    broken = broken_engine()
    monkeypatch.setattr(cli, "default_engine", lambda: broken)
    assert main(["verify", "--suite", "theorem1", "--max-weight", "6"]) == 1
    out = capsys.readouterr().out
    assert "delta_pi delta_pi != 0 on the stencil row of dx1^dx2^dx3^dx4" in out
    assert "FAIL" in out


def test_complex_certificate_runs_once_before_the_first_skipped_pivot(
        monkeypatch):
    calls = []
    compose = SliceOperator.compose
    monkeypatch.setattr(SliceOperator, "compose", lambda op, inner, idx:
                        calls.append(idx) or compose(op, inner, idx))
    eng = HomologyEngine()
    eng.boundary_echelon(3, 6)
    assert not calls         # no echelon above, so nothing is skipped
    eng.boundary_echelons(6)
    assert len(calls) == 16  # every index tuple of R^4, once
    assert eng._complex_certified


# -- dimensions ---------------------------------------------------------


def test_homology_dimension_examples(engine):
    assert engine.homology_dimension(0, 1) == 4
    assert engine.homology_dimension(2, 2) == 2
    assert engine.homology_dimension(4, 4) == 1


def test_hilbert_functions_weight8(engine):
    for k in range(5):
        assert engine.hilbert_function(k, 8) == H_SERIES[k].expand(8)


def test_kernel_hilbert_weight8(engine):
    for k in range(1, 5):
        assert engine.kernel_hilbert(k, 8) == KERNEL_SERIES[k].expand(8)


# -- representatives ----------------------------------------------------


def test_representative_examples(engine, cat):
    reps22 = representative_basis(engine, 2, 2)
    assert reps22 == [cat.beta1, cat.beta2]
    reps34 = representative_basis(engine, 3, 4)
    assert reps34 == [wedge(cat.zeta2, cat.beta1), wedge(cat.zeta2, cat.beta2),
                      wedge(cat.df1, cat.beta1), wedge(cat.df1, cat.beta2)]
    reps01 = representative_basis(engine, 0, 1)
    assert reps01 == [GradedElement.from_polynomial(x(i)) for i in range(1, 5)]
    # the engine's coordinates are those of the cleared bases: zeta2 carries
    # a 1/2, df1 and d(zeta_i) have integer coefficients
    basis = engine.basis(3, 4)
    assert engine.representative_coords(3, 4) == \
        [basis.coords(r * c) for r, c in zip(reps34, (2, 2, 1, 1))]


def test_representative_coords_equal_the_forms_route(engine):
    # every family, the de_rham ones included, at every (k, w <= 8)
    assert {f.post is not None for k in range(5)
            for f in engine.representative_families(k)} == {False, True}
    for k in range(5):
        for w in range(9):
            basis = engine.basis(k, w)
            assert engine.representative_coords(k, w) == \
                [basis.coords(r) for r in
                 representative_basis(engine, k, w, cleared=True)], (k, w)


def test_verify_representatives_spot(engine):
    for k in range(5):
        for w in range(0, 9):
            v = engine.verify_representatives(k, w)
            assert v["ok"], v


def test_vacuous_odd_weight_top(engine):
    v = engine.verify_representatives(4, 5)
    assert v["count"] == v["dimension"] == 0 and v["ok"]


def test_cycle_check_flags_a_non_cycle(cat):
    # the check reads delta_pi at the support of rational coordinates:
    # x1*mu/3 is not a cycle, f1*mu/3 is
    class OneRepresentative(HomologyEngine):
        def representative_coords(self, k, w):
            return [self.basis(k, w).coords(rep)]

    for rep, w, cycle in ((cat.mu * x(1) * Q(1, 3), 5, False),
                          (cat.mu * cat.f1 * Q(1, 3), 6, True)):
        assert OneRepresentative().verify_representatives(4, w)["all_cycles"] \
            == cycle


def test_boundary_adjoined_is_dependent(engine, cat):
    # delta of x1*mu is a boundary, so adjoining it to the degree-3
    # representatives must be detected as dependent
    boundary = cat.poisson.delta.apply(cat.mu * x(1))
    w = boundary.weights()[0]
    basis = engine.basis(3, w)
    ech = clone(engine.boundary_echelon(3, w))
    for r in representative_basis(engine, 3, w):
        assert ech.insert(basis.coords(r))
    assert not ech.insert(basis.coords(boundary))


def test_class_coordinates_over_representatives(engine, cat):
    # a representative (with its family's denominators cleared, as the
    # engine's are) plus a boundary has class coordinates {j: 1} over the
    # engine's representative coordinates modulo the boundary echelon, and
    # its residual lies in the engine's class echelon; a boundary alone has
    # none and an empty residual
    for k in range(5):
        for w in range(6):
            coords, independent, classes = engine.class_echelon(k, w)
            reps = representative_basis(engine, k, w, cleared=True)
            assert independent
            boundaries_ech = engine.boundary_echelon(k, w)
            solver = SpanSolver(boundaries_ech)
            assert all(solver.insert(c) for c in coords)
            assert classes.rank == len(coords)
            basis = engine.basis(k, w)
            above = engine.basis(k + 1, w - 1) if k < 4 and w >= 1 else []
            boundaries = [cat.poisson.delta.apply(basis_element(above, i) * x(1))
                          for i in range(len(above))]
            for b in boundaries:
                assert solver.solve(basis.coords(b)) == (1, {})
                assert boundaries_ech.residual(basis.coords(b)) == {}
            for j, r in enumerate(reps):
                form = r + boundaries[j % len(boundaries)] if boundaries else r
                assert solver.solve(basis.coords(form)) == (1, {j: 1})
                assert classes.contains(boundaries_ech.residual(basis.coords(form)))


def test_f_monomial_order(cat):
    pairs = [ab for ab, _ in f_monomials(cat, 4)]
    assert pairs == [(2, 0), (1, 1), (0, 2)]
    assert f_monomials(cat, 3) == []


def test_family_templates_yield_cycles(engine, cat):
    from poisson_forge.homology import CASIMIR, X2SQ_X4
    for k in range(5):
        fams = engine.representative_families(k)
        assert all(f.parameter_space in (CASIMIR, X2SQ_X4) for f in fams)
        for fam in fams:
            for w in range(fam.weight_offset, fam.weight_offset + 5):
                for p in engine.parameters(fam.parameter_space,
                                           w - fam.weight_offset):
                    inst = instantiate(fam, p)
                    assert cat.poisson.delta.apply(inst).is_zero(), fam.label
                    if inst:
                        assert inst.weights() == [w]


FAMILY_TABLE = [
    (0, "p", "R[[f1,f2]]", 0),
    (0, "a1*x1", "R[[x2^2,x4]]", 1), (0, "a2*x2", "R[[x2^2,x4]]", 1),
    (0, "a3*x3", "R[[x2^2,x4]]", 1), (0, "a4*x4", "R[[x2^2,x4]]", 1),
    (1, "p1*zeta1", "R[[f1,f2]]", 2), (1, "p2*zeta2", "R[[f1,f2]]", 2),
    (1, "q1*df1", "R[[f1,f2]]", 2), (1, "q2*df2", "R[[f1,f2]]", 2),
    (1, "d(a1*x1)", "R[[x2^2,x4]]", 1), (1, "d(a2*x2)", "R[[x2^2,x4]]", 1),
    (1, "d(a3*x3)", "R[[x2^2,x4]]", 1), (1, "d(a4*x4)", "R[[x2^2,x4]]", 1),
    (1, "b1*x1*df1", "R[[x2^2,x4]]", 3), (1, "b2*x2*df1", "R[[x2^2,x4]]", 3),
    (1, "b3*x3*df1", "R[[x2^2,x4]]", 3), (1, "b4*x4*df1", "R[[x2^2,x4]]", 3),
    (2, "p*zeta1^zeta2", "R[[f1,f2]]", 4), (2, "q*df1^df2", "R[[f1,f2]]", 4),
    (2, "p1*d(f1*zeta1)", "R[[f1,f2]]", 4), (2, "p2*d(f1*zeta2)", "R[[f1,f2]]", 4),
    (2, "q1*d(zeta1)", "R[[f1,f2]]", 2), (2, "q2*d(zeta2)", "R[[f1,f2]]", 2),
    (2, "d(a1*x1)^df1", "R[[x2^2,x4]]", 3), (2, "d(a2*x2)^df1", "R[[x2^2,x4]]", 3),
    (2, "d(a3*x3)^df1", "R[[x2^2,x4]]", 3), (2, "d(a4*x4)^df1", "R[[x2^2,x4]]", 3),
    (3, "p1*zeta2^d(zeta1)", "R[[f1,f2]]", 4),
    (3, "p2*zeta2^d(zeta2)", "R[[f1,f2]]", 4),
    (3, "q1*df1^d(zeta1)", "R[[f1,f2]]", 4),
    (3, "q2*df1^d(zeta2)", "R[[f1,f2]]", 4),
    (4, "p*mu", "R[[f1,f2]]", 4),
]


def test_family_table(engine):
    got = [(k, f.label, f.parameter_space, f.weight_offset)
           for k in range(5) for f in engine.representative_families(k)]
    assert got == FAMILY_TABLE
    one = Polynomial.constant(4, 1)
    for k in range(5):
        for f in engine.representative_families(k):
            assert instantiate(f, one).degree == k, f.label
    for k in (-1, 5):
        with pytest.raises(ValueError):
            engine.representative_families(k)


# -- module structure ---------------------------------------------------


def test_module_structure(engine):
    results = engine.module_structure_check(10)
    assert results, "no relations in range"
    for r in results:
        assert r["ok"], r
    names = {r["name"] for r in results}
    assert any("NOT a boundary" in n for n in names)


def test_module_structure_examples(engine, cat):
    # (f1 x1 + f2 x2) is a boundary in degree 0
    form = GradedElement.from_polynomial(cat.f1 * x(1) + cat.f2 * x(2))
    assert engine.is_boundary(form)
    mult = cat.f1 * x(1) + 2 * (x(2) * x(2) + x(4) * x(4)) * x(1)
    assert engine.is_boundary(GradedElement.from_polynomial(mult))
    assert not engine.is_boundary(GradedElement.from_polynomial(x(1)))


# -- induced de Rham ----------------------------------------------------


def test_induced_de_rham(engine):
    table = engine.induced_de_rham(6)
    for (k, w), dim in table.items():
        assert dim == (1 if (k, w) == (0, 0) else 0), (k, w, dim)


class EditedRepresentatives(HomologyEngine):
    """An engine whose (k, w) representatives are edited: the first one
    repeated at the end, or the last one dropped."""

    def __init__(self, k, w, edit):
        super().__init__()
        self.edited, self.edit = (k, w), edit

    def representative_coords(self, k, w):
        coords = super().representative_coords(k, w)
        if (k, w) != self.edited:
            return coords
        return coords + coords[:1] if self.edit == "repeat" else coords[:-1]


@pytest.mark.parametrize("k, w, edit, message", [
    (1, 1, "repeat", "dependent representatives at (1, 1)"),
    (2, 4, "repeat", "dependent representatives at (2, 4)"),
    (4, 6, "repeat", "dependent representatives at (4, 6)"),
    (2, 4, "drop", "d of a cycle did not decompose at (1, 4)"),
], ids=["repeat-1-1", "repeat-2-4", "repeat-4-6", "drop-2-4"])
def test_derham_certificates_fail_loudly(monkeypatch, capsys, k, w, edit,
                                         message):
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        EditedRepresentatives(k, w, edit).induced_de_rham(6)
    monkeypatch.setattr(cli, "default_engine",
                        lambda: EditedRepresentatives(k, w, edit))
    argv = ["verify", "--suite", "derham", "--max-weight", "6", "--format",
            "json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    assert [b for b in report["blocks"] if b["block"] == "certificates"] == [
        {"block": "certificates", "kind": "verdicts",
         "verdicts": [{"name": message, "status": "fail"}]}]


# -- transfer to cohomology ----------------------------------------------


def test_cohomology_transfer(cat):
    # star_inv carries delta_pi cycles to d_pi-closed multivectors
    P = cat.poisson
    one = GradedElement.from_polynomial(Polynomial.constant(4, 1), MULTIVECTOR)
    for h, v in ((wedge(cat.zeta1, cat.beta1), cat.E1), (cat.mu, one),
                 (cat.beta1, cat.W1), (cat.beta2, cat.W2)):
        assert P.delta.apply(h).is_zero()
        assert star_inv(h) == v
        assert d_pi(v, P).is_zero()
    # and a non-cycle to a multivector that is not closed
    assert not d_pi(star_inv(cat.mu * x(1)), P).is_zero()


# -- deformation normalizer ----------------------------------------------


def test_normalize_trivial(engine):
    one = Polynomial.constant(4, 1)
    q, steps = engine.normalize_volume_deformation(one, 6)
    assert q == one and steps == []


def test_normalize_casimir_input(engine, cat):
    g = Polynomial.constant(4, 1) + cat.f1
    q, steps = engine.normalize_volume_deformation(g, 6)
    assert q == g and steps == []


def test_normalize_linear_deformation(engine, cat):
    g = Polynomial.constant(4, 1) + x(1)
    q, steps = engine.normalize_volume_deformation(g, 6)
    assert q.constant_term() == 1
    assert [s.weight for s in steps] == [1, 2, 3, 4, 5, 6]
    # q - 1 lies in the Casimir ideal: no constant term beyond 1 and
    # every homogeneous part is an f-polynomial (certified inside),
    # in particular the weight-2 part is -f1/4
    from poisson_forge.rationals import Q
    assert homogeneous_part(q, 2) == cat.f1 * Q(-1, 4)
    # correction fields are tangent to the fibration
    from poisson_forge.exterior import contract
    for s in steps:
        assert contract(s.corrector, cat.df1).is_zero()
        assert contract(s.corrector, cat.df2).is_zero()


def test_deformation_step_folds_the_casimir_check(engine, cat):
    # reference: an echelon of the df1^df2 * f-monomial images alone
    def casimir_reference(gi, i):
        basis2 = engine.basis(2, i + 4)
        ech = SpanSolver()
        for _, fm in f_monomials(cat, i):
            ech.insert(basis2.coords(cat.df1df2 * fm))
        return ech.solve(basis2.coords(cat.df1df2 * gi)) is not None

    slices = [(cat.f1, True), (cat.f1 * cat.f2, True),
              (cat.f1 * 3 - cat.f2 * 2, True), (x(1), False),
              (x(1) * x(3), False), (cat.f1 + x(2) * x(2), False),
              (cat.f2 * x(4), False), (x(2) ** 5, False)]
    for gi, casimir in slices:
        i = gi.degree()
        assert i <= 5
        assert casimir_reference(gi, i) == casimir
        qi, pair, _ = split_slice(engine, gi, i)
        assert (pair is None) == casimir
        if casimir:
            assert qi == gi


def test_normalizer_systems_shared_across_g(cat):
    g1 = Polynomial.constant(4, 1) + x(1)
    g2 = Polynomial.constant(4, 2) + x(2) - x(1) * x(3) + x(4) * x(4) * 2
    warm = HomologyEngine()
    warm.normalize_volume_deformation(g1, 4)
    q, steps = warm.normalize_volume_deformation(g2, 4)
    q0, steps0 = HomologyEngine().normalize_volume_deformation(g2, 4)
    assert q == q0
    assert ([(s.weight, s.casimir_part, s.corrector) for s in steps]
            == [(s.weight, s.casimir_part, s.corrector) for s in steps0])
    assert steps


def truncate(p, d):
    """The terms of p of total degree at most d."""
    return Polynomial(p.n, {m: c for m, c in p.terms.items() if sum(m) <= d})


def series_inverse(h, d):
    """Power-series inverse 1/h through total degree d; nonzero constant term required."""
    c = h.constant_term()
    if c == 0:
        raise ValueError("not invertible: zero constant term")
    u = truncate(Polynomial.constant(h.n, 1) - h * Q(1, c), d)
    # 1/h = (1/c) * sum u^m, u has positive valuation
    acc = Polynomial.constant(h.n, 1)
    pw = Polynomial.constant(h.n, 1)
    for _ in range(d):
        pw = truncate(pw * u, d)
        if pw.is_zero():
            break
        acc = acc + pw
    return acc * Q(1, c)


def truncate_weight(a, w_max):
    """The part of a graded element of scaling weight at most w_max."""
    d = w_max - a.degree if a.kind == FORM else w_max + a.degree
    return a.map_coefficients(lambda p: truncate(p, d))


def test_series_inverse():
    g = Polynomial.constant(4, 2) + x(1) + x(2) * x(3)
    h = series_inverse(g, 6)
    assert truncate(g * h, 6) == Polynomial.constant(4, 1)
    with pytest.raises(ValueError):
        series_inverse(x(1), 4)


def generic_exp_flow(field, h, w_max):
    """exp(D) h with D h = field(h) - div(field) h, truncated at degree w_max.

    For a field tangent to the fibration, L_field df_i = 0 and
    L_field mu = div(field) mu, so exp(L_field)(h pi) = (exp(D) h) pi.
    """
    div = divergence(field).coefficient(())
    result = term = truncate(h, w_max)
    for m in range(1, w_max + 2):
        # term = D^m h / m!
        lie = lie_derivative(field, GradedElement.from_polynomial(term))
        term = truncate(lie.coefficient(()) - div * term, w_max) * Q(1, m)
        if term.is_zero():
            break
        result = result + term
    return result


def split_slice(engine, ri, i):
    """(c_i, (a, b), s) of the engine's split of the rational slice r_i,
    with c_i, a and b as polynomials; the split itself reads r_i as an
    integer numerator over a positive denominator."""
    den = lcm(*(c.denominator for c in ri.terms.values()))
    C, Dc, pair, s = engine._split_slice((ri * den).terms, den, i)
    assert s > 0
    return (Polynomial.of_slices(4, [(C, Dc)]),
            pair and tuple(Polynomial(4, p) for p in pair), s)


def pair_field(engine, pair):
    """s*X = a V1 + b V2 for the pair (a, b) of the engine's split."""
    V1, V2 = engine._torus
    return V1 * pair[0] + V2 * pair[1]


def normalize_uncertified(engine, g, w_max, pullback):
    """(q, [(weight, casimir_part, corrector)]) of the normalizer loop with
    the flow pullback h -> pullback(corrector, h) and no certificates."""
    current = truncate(g, w_max)
    transcript = []
    for i in range(1, w_max + 1):
        gi = homogeneous_part(current, i)
        if gi.is_zero():
            continue
        qi, pair, s = split_slice(engine, gi, i)
        if pair is None:
            continue
        corrector = pair_field(engine, pair) * Q(1, s)
        transcript.append((i, qi, corrector))
        current = pullback(corrector, current)
    return current, transcript


class BivectorRoute(HomologyEngine):
    """The normalizer's former flow pullback, kept as the reference route.

    The running bivector h*pi is pulled back along the engine's field
    -X/g(0) through Schouten brackets term by term, and its conformal
    factor is solved back out of it.
    """

    def __init__(self):
        super().__init__()
        self._conformal = {}

    def normalize_by_bivector(self, g, w_max):
        """(q, [(weight, casimir_part, corrector)]) on the bivector route."""
        field_scale = Q(-1, g.constant_term())

        def pullback(corrector, h):
            bivec = self._exp_lie(corrector * field_scale, self.cat.pi * h, w_max)
            return self._conformal_factor(bivec, w_max)
        return normalize_uncertified(self, g, w_max, pullback)

    def _exp_lie(self, field, bivec, w_max):
        """Pullback of a bivector along the time-1 flow of a positive-weight field."""
        result = truncate_weight(bivec, w_max)
        term = result
        fact = 1
        for m in range(1, w_max + 2):
            term = truncate_weight(schouten(field, term), w_max)
            if term.is_zero():
                break
            fact *= m
            result = result + term * Q(1, fact)
        return result

    def _conformal_factor(self, bivec, w_max):
        """Exact g with bivec = g * pi; raises if the bivector left the ray."""
        cat = self.cat
        two_form = star(bivec)
        out = Polynomial.zero(4)
        for w in sorted(set(two_form.weights())):
            d = w - 4
            if d < 0 or d > w_max:
                raise InvariantViolation("conformal factor at weight %d has "
                                         "degree %d outside 0..%d"
                                         % (w, d, w_max))
            basisw = self.basis(2, w)
            if w not in self._conformal:
                ech = SpanSolver()
                monos = sorted(monomials_of_degree(4, d), key=monomial_key)
                for m in monos:
                    ech.insert(basisw.coords(cat.df1df2 * Polynomial.monomial(4, m)))
                self._conformal[w] = (monos, ech)
            monos, ech = self._conformal[w]
            target = basisw.coords(weight_slice(two_form, w))
            coords = rational_solve(ech, target)
            if coords is None:
                raise InvariantViolation("flow pullback is not a multiple of "
                                         "pi at weight %d" % w)
            for idx, c in coords.items():
                out = out + Polynomial.monomial(4, monos[idx], c)
        return out


@pytest.mark.parametrize("g", ["1+x1", "2+x1*x3-x2^2", "1+x1+x2*x4+x3^3"])
def test_scalar_pullback_matches_bivector_route(g):
    # the bivector route's steps carry slices of q, the engine's slices
    # of 1/q, so only q is compared
    ref = BivectorRoute()
    g = parse_polynomial(g)
    q, steps = ref.normalize_volume_deformation(g, 4)
    q_ref, steps_ref = ref.normalize_by_bivector(g, 4)
    assert q == q_ref
    assert steps and steps_ref


class InverseFlowRoute(HomologyEngine):
    """The normalizer's former flow field -X/h, kept as a reference route.

    The field divides the corrector by the running factor h through a
    power-series inverse and is cut above weight w_max; the pullback is the
    generic scalar series through `lie_derivative`.
    """

    def normalize_by_inverse(self, g, w_max):
        """(q, [(weight, casimir_part, corrector)]) on the -X/h route."""
        def pullback(corrector, h):
            field = corrector * series_inverse(h, w_max) * Q(-1)
            return generic_exp_flow(truncate_weight(field, w_max), h, w_max)
        return normalize_uncertified(self, g, w_max, pullback)


@pytest.fixture(scope="module")
def inverse_route():
    return InverseFlowRoute()


@pytest.mark.parametrize("g, generic", [("1+x1", True), ("2+x1*x3-x2^2", True),
                                        ("1+x1+x2*x4+x3^3", True),
                                        ("1+f1+x1^3", False)])
def test_homogeneous_flow_matches_inverse_flow_route(engine, cat, inverse_route,
                                                     g, generic):
    # q is the invariant.  The flow route corrects the weights where the
    # running factor is not a Casimir slice, the engine those where 1/g is
    # not; they can differ when g has a nonconstant Casimir part below a
    # corrected weight, as 1+f1+x1^3 does
    g = parse_polynomial(g.replace("f1", "(%s)" % cat.f1))
    q, steps = engine.normalize_volume_deformation(g, 6)
    q_ref, steps_ref = inverse_route.normalize_by_inverse(g, 6)
    assert q == q_ref
    weights = [s.weight for s in steps]
    assert (weights == [w for w, _, _ in steps_ref]) == generic
    for w, qw, _ in steps_ref:
        assert qw == homogeneous_part(q, w)
    assert steps and steps_ref


@st.composite
def volume_factors(draw):
    """(g, w_max): w_max <= 4, and g with a positive rational constant term
    and one to four terms of degree 1..w_max with rational coefficients."""
    w_max = draw(st.integers(1, 4))
    terms = {(0, 0, 0, 0): draw(st.builds(Q, st.integers(1, 4),
                                          st.integers(1, 3)))}
    monos = st.sampled_from([m for d in range(1, w_max + 1)
                             for m in monomials_of_degree(4, d)])
    for m, c in draw(st.lists(st.tuples(monos, coefficients),
                              min_size=1, max_size=4)):
        terms[m] = c
    return Polynomial(4, terms), w_max


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(volume_factors())
def test_linear_normalizer_matches_inverse_flow_route(inverse_route,
                                                      three_form_route, args):
    g, w_max = args
    q, _ = inverse_route.normalize_volume_deformation(g, w_max)
    assert q == inverse_route.normalize_by_inverse(g, w_max)[0]
    assert q == normalize_by_fields(three_form_route, g, w_max)[0]


@pytest.mark.parametrize("g", ["1+x1", "3/2+1/3*x1-x2^2+x1*x4",
                               "1+x1+x2*x4+x3^3"])
def test_step_casimir_parts_are_the_slices_of_one_over_q(engine, g):
    q, steps = engine.normalize_volume_deformation(parse_polynomial(g), 6)
    inverse = series_inverse(q, 6)
    assert steps
    for s in steps:
        assert s.casimir_part == homogeneous_part(inverse, s.weight)


@pytest.mark.parametrize("g", ["1+x1", "3/2+1/3*x1-x2^2+x1*x4",
                               "1+x1+x2*x4+x3^3", "2+x1*x3-x2^2"])
def test_steps_are_certified_in_im_d_pi_by_the_schouten_route(engine, cat, g):
    # the normalizer reads d_pi(X) = (r_i - c_i) pi off delta_pi(star(X));
    # the Schouten bracket shares no stencil with delta_pi, and checks both
    # the identity it relies on and the statement the verdict prints
    g = parse_polynomial(g)
    r = g.inverse(6)
    q, steps = engine.normalize_volume_deformation(g, 6)
    assert steps
    for step in steps:
        X = step.corrector
        residual = homogeneous_part(r, step.weight) - step.casimir_part
        assert star(d_pi(X, cat.poisson)) == cat.poisson.delta.apply(star(X))
        assert d_pi(X, cat.poisson) == cat.pi * residual


@pytest.mark.parametrize("g, d", [
    ("1+x1", 6), ("3/2+1/3*x1-x2^2+x1*x4", 5), ("-2/7+x2*x3-x1^3", 4),
    ("2/3-x1*x3+5*x2^7", 4), ("5", 3), ("1+x1", 0)])
def test_inverse_matches_the_series_reference(g, d):
    # rational and negative constant terms, and terms of g above d
    g = parse_polynomial(g)
    h = g.inverse(d)
    assert h == series_inverse(g, d)
    assert all(type(c) is int for c in h.terms.values() if c.denominator == 1)


def corrupt_corrector(monkeypatch, change):
    """Makes every engine's split return change(a, b) in place of its pair,
    with a and b read as polynomials."""
    split = HomologyEngine._split_slice

    def corrupted(self, R, den, i):
        C, Dc, pair, s = split(self, R, den, i)
        if pair is not None:
            pair = tuple(p.terms for p in change(*(Polynomial(4, p)
                                                   for p in pair)))
        return C, Dc, pair, s

    monkeypatch.setattr(HomologyEngine, "_split_slice", corrupted)


def assert_normalize_fails(message, monkeypatch, capsys, engine=HomologyEngine):
    """normalize --g 1+x1 fails with message, on fresh engines made by
    engine(): in process and through the command line."""
    g = parse_polynomial("1+x1")
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        engine().normalize_volume_deformation(g, 4)
    monkeypatch.setattr(cli, "default_engine", engine)
    assert main(["normalize", "--g", "1+x1", "--max-weight", "4"]) == 1
    assert message in capsys.readouterr().out


def halved(op):
    """The SliceOperator of op / 2."""
    return SliceOperator(lambda idx: tuple(
        (J, t, Q(c0, 2), tuple((i, Q(ci, 2)) for i, ci in c))
        for J, t, c0, c in op.row(idx)), op.n, op.shift)


def test_d_pi_certificate_catches_a_wrong_corrector(monkeypatch, capsys):
    # a doubled pair is still tangent, but its divergence and d_pi image
    # are twice what s*(r_i - c_i) asks: only the step identity sees it
    corrupt_corrector(monkeypatch, lambda a, b: (a * 2, b * 2))
    assert_normalize_fails("correction field certificate failed at weight 1",
                           monkeypatch, capsys)


def test_d_pi_certificate_catches_a_field_that_is_not_d_pi_closed(
        cat, monkeypatch, capsys):
    # shifting a by x1 adds x1 V1, which is tangent but not d_pi-closed
    field = cat.T1 * 2 * x(1)
    assert contract(field, cat.df1).is_zero()
    assert contract(field, cat.df2).is_zero()
    assert not d_pi(field, cat.poisson).is_zero()
    corrupt_corrector(monkeypatch, lambda a, b: (a + x(1), b))
    assert_normalize_fails("correction field certificate failed at weight 1",
                           monkeypatch, capsys)


def test_tangency_certificate_catches_a_wrong_corrector(cat, monkeypatch,
                                                        capsys):
    # V1 + 2 E1 in place of V1: E1 = Euler/2 is d_pi-closed, and the
    # torus check must refuse the field before any step is certified on it
    assert d_pi(cat.E1, cat.poisson).is_zero()

    class SkewTorus(HomologyEngine):
        def __init__(self):
            super().__init__()
            V1, V2 = self._torus
            self._torus = (V1 + cat.E1 * 2, V2)

    assert_normalize_fails("torus field V1 is not tangent to the fibration",
                           monkeypatch, capsys, SkewTorus)


def test_divergence_certificate_catches_a_wrong_corrector(monkeypatch, capsys):
    # a d stencil that halves its argument: tangency and the delta_pi
    # identity hold, so the divergence identity d(h star V1) = V1(h) mu of
    # the torus check must fail
    class HalvedD(HomologyEngine):
        def __init__(self):
            super().__init__()
            self._d = halved(self._d)

    assert_normalize_fails("torus certificate failed: d(h star V1) != "
                           "V1(h) mu", monkeypatch, capsys, HalvedD)


def test_torus_certificate_catches_a_halved_delta_pi_stencil(
        cat, monkeypatch, capsys):
    # pi/2 is Poisson too, so only the torus check's delta_pi identity,
    # delta_pi(h star V1) = -V1(h) df1^df2, sees the halved stencil
    monkeypatch.setattr(cat.poisson, "delta", halved(cat.poisson.delta))
    assert_normalize_fails("torus certificate failed: delta_pi(h star V1) != "
                           "-V1(h) df1^df2", monkeypatch, capsys)


def test_torus_certificate_runs_once_per_engine(cat, monkeypatch, capsys):
    # every compose of the torus check composes two different operators;
    # the complex certificate composes delta_pi with itself
    checks, torus = [], []
    check, compose = HomologyEngine._check_torus, SliceOperator.compose
    monkeypatch.setattr(HomologyEngine, "_check_torus",
                        lambda eng: checks.append(eng) or check(eng))
    monkeypatch.setattr(SliceOperator, "compose", lambda op, inner, idx: (
        torus.append(idx) if inner is not op else None)
        or compose(op, inner, idx))
    monkeypatch.setattr(cli, "default_engine", HomologyEngine)
    for suite in ("theorem1", "derham", "division"):
        assert main(["verify", "--suite", suite, "--max-weight", "4"]) == 0
    capsys.readouterr()
    assert not checks and not torus
    eng = HomologyEngine()
    eng.normalize_volume_deformation(Polynomial.constant(4, 1) + cat.f1, 6)
    assert not checks         # a Casimir g has no step to certify
    for g in ("1+x1", "3/2+1/3*x1-x2^2+x1*x4", "1+x1+x2*x4+x3^3"):
        eng.normalize_volume_deformation(parse_polynomial(g), 4)
    assert checks and set(checks) == {eng}
    # two fields, each with a delta_pi and a d identity of two composites
    assert len(torus) == 8


def test_normalizer_steps_apply_only_the_torus_stencils(monkeypatch):
    # no step applies delta_pi or d, contracts, or builds star(X): each
    # step's certificate applies the two torus stencils once, and the split
    # applies them and no other operator
    eng = HomologyEngine()
    derivations = eng._check_torus()
    applied, in_split = [], []
    apply, split = SliceOperator.apply_terms, HomologyEngine._split_slice
    monkeypatch.setattr(SliceOperator, "apply_terms",
                        lambda op, *args: applied.append(op) or apply(op, *args))

    def spied_split(self, R, den, i):
        start = len(applied)
        out = split(self, R, den, i)
        in_split.extend(applied[start:])
        del applied[start:]
        return out

    monkeypatch.setattr(HomologyEngine, "_split_slice", spied_split)

    def refuse(*args):
        raise AssertionError("a normalizer step left the torus stencils")

    for name in ("contract", "de_rham", "star"):
        monkeypatch.setattr(homology, name, refuse)
    g = parse_polynomial("3/2+1/3*x1-x2^2+x1*x4")
    q, steps = eng.normalize_volume_deformation(g, 6)
    assert len(steps) == 6
    assert applied == list(derivations) * len(steps)
    assert set(in_split) == set(derivations)


@pytest.mark.parametrize("g, corrected", [
    ("1+x1", True), ("3/2+1/3*x1-x2^2+x1*x4", True),
    ("1+x1+x2*x3-2*x1^2", True), ("1/2+1/2", False)])
def test_normalizer_outputs_keep_integral_coefficients_as_int(engine, g,
                                                              corrected):
    q, steps = engine.normalize_volume_deformation(parse_polynomial(g), 5)
    polys = [q] + [s.casimir_part for s in steps] + [
        p for s in steps for p in s.corrector.comps.values()]
    coeffs = [c for p in polys for c in p.terms.values()]
    assert bool(steps) == corrected and coeffs
    assert all(type(c) is int for c in coeffs if c.denominator == 1)


coefficients = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


class ThreeFormStepRoute(HomologyEngine):
    """The normalizer's former step system, kept as the reference route.

    One augmented exact solve of a system cached per weight: for tangent
    X, d(star X) = div(X) mu, so the system is d(tau) = (r_i - c_i) mu
    with X = -star_inv(tau), extended by the tangency conditions tau ^
    df1 = tau ^ df2 = 0 in the (4, w + 2) slice.  The Casimir generators
    mu * f1^a f2^b come first, so s*X is None exactly when r_i is a
    Casimir slice.  `split_field` hands out (c_i, s*X, s) for
    `normalize_by_fields`.
    """

    def __init__(self):
        super().__init__()
        self._deformation = {}

    def split_field(self, ri, i):
        cat = self.cat
        w = i + 4
        top = self.basis(4, w)
        if i not in self._deformation:
            basis3, top2 = self.basis(3, w), self.basis(4, w + 2)
            n4, n2 = len(top), len(top2)
            fmonos = f_monomials(cat, i)
            ech = SpanSolver()
            for _, fm in fmonos:
                ech.insert(top.coords(cat.mu * fm))
            # column j is d(tau_j), extended by df1 ^ tau_j and df2 ^ tau_j:
            # up to one sign, the tangency conditions tau_j ^ df_k
            tangent = [wedge_operator(df).columns(basis3, top2)
                       for df in (cat.df1, cat.df2)]
            for vec, *cols in zip(self._d.columns(basis3, top), *tangent):
                for off, col in zip((n4, n4 + n2), cols):
                    for idx, val in col.items():
                        vec[off + idx] = val
                ech.insert(vec)
            self._deformation[i] = (fmonos, basis3, ech)
        fmonos, basis3, ech = self._deformation[i]
        solution = ech.solve(top.coords(cat.mu * ri))
        if solution is None:
            raise InvariantViolation("deformation step unsolvable at weight %d "
                                     "(contradicts the classification)" % i)
        s, coords = solution
        ci = Polynomial.zero(4)
        tau = {}           # s*tau, index tuple -> {monomial: int}
        for gen_index, c in coords.items():
            if gen_index < len(fmonos):
                ci = ci + fmonos[gen_index][1] * c
            else:
                idx, m = element_at(basis3, gen_index - len(fmonos))
                tau.setdefault(idx, {})[m] = c
        ci = ci * Q(1, s)
        if not tau:
            return ci, None, s
        tau = GradedElement(4, 3, FORM, {idx: Polynomial._of(4, t)
                                         for idx, t in tau.items()})
        return ci, -star_inv(tau), s


@pytest.fixture(scope="module")
def three_form_route():
    return ThreeFormStepRoute()


def assert_certified(cat, ri, ci, scaled, s):
    """The normalizer's former three certificates on s*X against
    s*(r_i - c_i), on the expanded 3-form star(s*X): delta_pi, contraction
    into df1 and df2, and d by the elementwise formula; d_pi and the
    divergence also by routes of their own, the Schouten bracket and
    star_inv d star."""
    residual = (ri - ci) * s
    tau = star(scaled)
    assert cat.poisson.delta.apply(tau) == cat.df1df2 * residual
    assert d_pi(scaled, cat.poisson) == cat.pi * residual
    for df in (cat.df1, cat.df2):
        assert contract(scaled, df).is_zero()
    assert de_rham_by_position(tau) == cat.mu * -residual
    assert divergence(scaled).coefficient(()) == -residual


def normalize_by_fields(route, g, w_max):
    """(q, [(weight, casimir_part, corrector)]) of the normalizer's loop on
    route.split_field, which hands out (c_i, s*X, s) for any tangent X,
    each step checked by `assert_certified`."""
    r = g.inverse(w_max)
    c = homogeneous_part(r, 0)
    steps = []
    for i in range(1, w_max + 1):
        ri = homogeneous_part(r, i)
        if ri.is_zero():
            continue
        ci, scaled, s = route.split_field(ri, i)
        c = c + ci
        if scaled is not None:
            assert_certified(route.cat, ri, ci, scaled, s)
            steps.append((i, ci, scaled * Q(1, s)))
    return c.inverse(w_max), steps


@pytest.mark.parametrize("i", range(1, 7))
def test_split_matches_the_three_form_route_on_every_monomial(
        engine, cat, three_form_route, i):
    # the pair's field a V1 + b V2 passes the former certificates, which
    # read neither the torus stencils nor the step identity
    for m in monomials_of_degree(4, i):
        ri = Polynomial.monomial(4, m)
        ci, pair, s = split_slice(engine, ri, i)
        assert ci == three_form_route.split_field(ri, i)[0], m
        if pair is None:
            assert ci == ri
            continue
        assert all(type(c) is int for p in pair for c in p.terms.values())
        assert_certified(cat, ri, ci, pair_field(engine, pair), s)


def test_normalizer_runs_no_linear_system(monkeypatch):
    def refuse(self, vec):
        raise AssertionError("the normalizer eliminated a vector")

    for name in ("insert", "contains", "residual"):
        monkeypatch.setattr(QEchelon, name, refuse)
    g = parse_polynomial("3/2+1/3*x1-x2^2+x1*x4")
    q, steps = HomologyEngine().normalize_volume_deformation(g, 6)
    assert q.constant_term() == Q(3, 2)
    assert [s.weight for s in steps] == [1, 2, 3, 4, 5, 6]


def test_casimir_recomposition(cat):
    f1, f2 = cat.f1, cat.f2
    for part, d in ((f1 ** 3, 6), (f1 * f2 * f2 - f2 ** 3 * 3, 6),
                    (Polynomial.zero(4), 3), (f1 * f2 * Q(1, 3), 4)):
        assert is_casimir_slice(cat, part.terms, d)
    # f1^2 + x3^4 has the coefficients of f1^2 at every x1^a x2^b, so only
    # the remainder rejects it
    near = f1 * f1 + x(3) ** 4
    assert all(near.coefficient((a, 4 - a, 0, 0))
               == (f1 * f1).coefficient((a, 4 - a, 0, 0)) for a in range(5))
    for part, d in ((x(2) ** 2 + x(4) ** 2, 2), (x(1) ** 3, 3), (near, 4)):
        assert not is_casimir_slice(cat, part.terms, d)


def test_a_non_casimir_part_fails_the_recomposition(cat, monkeypatch, capsys):
    # 1/g is a Casimir series, so no slice has a field; the patched split
    # hands back c_2 + x3^2, which only the final recomposition can see
    split = HomologyEngine._split_slice

    def corrupted(self, R, den, i):
        C, Dc, pair, s = split(self, R, den, i)
        assert pair is None
        return ((Polynomial(4, C) + x(3) ** 2 * Dc).terms if i == 2 else C,
                Dc, None, s)

    monkeypatch.setattr(HomologyEngine, "_split_slice", corrupted)
    text = "1+%s" % cat.f1
    message = "normalized factor is not a Casimir series at degree 2"
    with pytest.raises(InvariantViolation, match=message):
        HomologyEngine().normalize_volume_deformation(parse_polynomial(text), 4)
    assert main(["normalize", "--g", text, "--max-weight", "4"]) == 1
    assert message in capsys.readouterr().out


class TwoFormStepRoute(HomologyEngine):
    """The step system before the three-form one, kept as a reference route.

    It solves delta_pi(tau) = (g_i - q_i) df1^df2 in the 2-form slice,
    with the delta_3 columns extended by the tangency conditions, and
    X = star_inv(tau).  `split_field` hands s*X to `normalize_by_fields`
    with s the lcm of X's denominators, which the certificates accept as
    they accept any scale.
    """

    def __init__(self):
        super().__init__()
        self._deformation = {}

    def split_field(self, gi, i):
        cat = self.cat
        w = i + 4
        basis2 = self.basis(2, w)
        if i not in self._deformation:
            basis3 = self.basis(3, w)
            top2 = self.basis(4, w + 2)
            n2, n4 = len(basis2), len(top2)
            fmonos = f_monomials(cat, i)
            ech = SpanSolver()
            for _, fm in fmonos:
                ech.insert(basis2.coords(cat.df1df2 * fm))
            # the tangency conditions df_k ^ tau = (iota_X df_k) mu
            tangent = [wedge_operator(df).columns(basis3, top2)
                       for df in (cat.df1, cat.df2)]
            for j, col in enumerate(self.delta_matrix(3, w).columns):
                vec = dict(col)
                for off, cols in zip((n2, n2 + n4), tangent):
                    for idx, val in cols[j].items():
                        vec[off + idx] = val
                ech.insert(vec)
            self._deformation[i] = (fmonos, basis3, ech)
        fmonos, basis3, ech = self._deformation[i]
        coords = rational_solve(ech, basis2.coords(cat.df1df2 * gi))
        assert coords is not None
        qi = Polynomial.zero(4)
        tau = GradedElement.zero(4, 3, FORM)
        for gen_index, coeff in coords.items():
            if gen_index < len(fmonos):
                qi = qi + fmonos[gen_index][1] * coeff
            else:
                tau = tau + basis_element(basis3,
                                          gen_index - len(fmonos)) * coeff
        if not tau:
            return qi, None, 1
        field = star_inv(tau)
        s = lcm(*(c.denominator for p in field.comps.values()
                  for c in p.terms.values()))
        return qi, field * s, s


@pytest.mark.parametrize("g", ["1+x1", "2+x1*x3-x2^2", "1+x1+x2*x4+x3^3"])
def test_scalar_step_matches_two_form_route(engine, g):
    # the routes may pick different correctors, so only q and the
    # Casimir part of each step are compared
    g = parse_polynomial(g)
    q, steps = engine.normalize_volume_deformation(g, 5)
    q_ref, steps_ref = normalize_by_fields(TwoFormStepRoute(), g, 5)
    assert q == q_ref
    assert ([(s.weight, s.casimir_part) for s in steps]
            == [(w, qw) for w, qw, _ in steps_ref])
    assert steps


def test_normalize_rejects_bad_constant(engine):
    with pytest.raises(ValueError):
        engine.normalize_volume_deformation(x(1), 4)
    with pytest.raises(ValueError):
        engine.normalize_volume_deformation(Polynomial.constant(4, -1), 4)
