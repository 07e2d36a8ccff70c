"""Acceptance gate: every quantitative claim, exact, at its stated range.

Each criterion prints one PASS/FAIL line.  All arithmetic is exact, so
every tolerance is zero.  Where the printed text disagrees with the
computation, the test asserts the corrected value and checks that the
printed one is refuted and flagged: criterion 4 does so for the printed
degree-3 kernel line, and criterion 5 for the printed proportionality
pi = -8 T1^T2 (the definitions force -16).
"""

import random

import pytest

from poisson_forge.division import (division_group_dim, ideal_slice_dim,
                                    lefschetz_problem, submodule_contains)
from poisson_forge.exterior import (FORM, MULTIVECTOR, GradedElement,
                                    contract, de_rham, enumerate_basis, star,
                                    star_inv, wedge)
from poisson_forge.normalform import (lefschetz_ideal_basis, linear_membership,
                                      normal_form)
from poisson_forge.poisson import d_pi, schouten, verify_identity_suite
from poisson_forge.polynomials import Polynomial, monomials_of_degree
from poisson_forge.series import (H_SERIES, KERNEL3_PRINTED, KERNEL_SERIES,
                                  RationalSeries)
from test_exterior import basis_element


def _line(num, ok, text):
    print("ACCEPTANCE %-2s %s  %s" % (num, "PASS" if ok else "FAIL", text))
    return ok


def x(i):
    return Polynomial.variable(4, i)


def test_criterion_1_hilbert_poincare_h0_h1_h2(engine):
    ok = True
    for k in range(3):
        got = engine.hilbert_function(k, 12)
        want = H_SERIES[k].expand(12)
        ok = ok and got == want
    assert _line(1, ok, "H0/H1/H2 Hilbert functions to weight 12 equal the "
                        "closed series exactly")


def test_criterion_2_hilbert_poincare_h3_h4(engine):
    ok = True
    for k, series in ((3, RationalSeries({4: 4}, (2, 2))),
                      (4, RationalSeries({4: 1}, (2, 2)))):
        ok = ok and engine.hilbert_function(k, 12) == series.expand(12)
    assert _line(2, ok, "H3 = 4t^4/(1-t^2)^2 and H4 = t^4/(1-t^2)^2 to "
                        "weight 12")


def test_criterion_3_representatives(engine):
    ok = True
    first_bad = None
    for k in range(5):
        for w in range(0, 11):
            v = engine.verify_representatives(k, w)
            if not v["ok"]:
                ok = False
                first_bad = first_bad or v
    assert _line(3, ok, "representative families: cycles, independent mod "
                        "boundaries, counts equal dimensions (k = 0..4, "
                        "w <= 10)%s" % ("" if ok else "; first failure %s"
                                        % first_bad))


def test_criterion_4_kernel_series(engine):
    ok = True
    for k in (1, 2, 4):
        ok = ok and engine.kernel_hilbert(k, 12) == KERNEL_SERIES[k].expand(12)
    got3 = engine.kernel_hilbert(3, 12)
    ok = ok and got3 == KERNEL_SERIES[3].expand(12)
    # the printed degree-3 line must disagree, and the report must flag it
    ok = ok and got3 != KERNEL3_PRINTED.expand(12)
    from poisson_forge.cli import run_command
    doc, _ = run_command(["kernels", "--max-weight", "12"])
    flagged = any(b.get("block") == "kernel degree 3 consistency flag"
                  for b in doc.blocks)
    ok = ok and flagged
    assert _line(4, ok, "kernel series match (k = 1, 2, 4 as printed; k = 3 "
                        "the corrected 3t^4/(1-t^2)^2 + t^4/(1-t)^4), printed "
                        "variant flagged in the report")


def test_criterion_5_structural_identities(engine, cat):
    P = cat.poisson
    ok = True
    for k in range(1, 5):
        for w in range(k, 11):
            basis = enumerate_basis(k, w, FORM)
            for i in range(len(basis)):
                a = basis_element(basis, i)
                da = P.delta.apply(a)
                if k >= 2 and not P.delta.apply(da).is_zero():
                    ok = False
                if k == 4:
                    if not de_rham(da).is_zero():
                        ok = False
                elif not (de_rham(da) + P.delta.apply(de_rham(a))).is_zero():
                    ok = False
    ok = ok and schouten(cat.pi, cat.pi).is_zero()
    # homotopy identity on multivector slices (module invariant range)
    for k in range(0, 5):
        for w in range(-k, 9):
            basis = enumerate_basis(k, w, MULTIVECTOR)
            for i in range(len(basis)):
                v = basis_element(basis, i)
                if star(d_pi(v, P)) != P.delta.apply(star(v)):
                    ok = False
    assert _line(5, ok, "delta^2 = 0 and d delta + delta d = 0 (w <= 10), "
                        "[pi,pi] = 0, homotopy identity with zero modular "
                        "field (multivector weight <= 8)")


def test_criterion_5_section2_identity_list(cat):
    checks = verify_identity_suite(cat)
    failures = [c["name"] for c in checks
                if c["status"] == "fail" and c["name"] != "pi = -8 T1^T2"]
    # contraction-vs-wedge, tested exhaustively at combined weight <= 6
    cvw = True
    for k in range(0, 4):
        for l in range(0, 5 - k):
            sign = -1 if (k * (4 - k)) % 2 else 1
            for wa in range(k, 7):
                for wb in range(l, 7):
                    if wa + wb > 6:
                        continue
                    A = enumerate_basis(k, wa, FORM)
                    B = enumerate_basis(l, wb, FORM)
                    for i in range(len(A)):
                        alpha = basis_element(A, i)
                        for j in range(len(B)):
                            beta = basis_element(B, j)
                            if contract(alpha, star_inv(beta)) != \
                                    star_inv(wedge(beta, alpha)) * sign:
                                cvw = False
    ok = not failures and cvw
    assert _line(5, ok, "section-2 identity list (star/contraction/Lie/wedge "
                        "relations), excluding the -8 proportionality "
                        "tested separately%s"
                        % ("" if ok else "; failures: %s" % failures))


def test_criterion_5_pi_equals_minus_8_T1_T2(cat):
    """The printed proportionality pi = -8 T1^T2, refuted; -16 derived.

    With mu = dx1^dx2^dx3^dx4 and {g, h} mu = dg ^ dh ^ df1 ^ df2, the
    constant is forced.  At p = (0, 0, 1, 0): {x1, x2}(p) = 4(x3^2+x4^2)(p)
    = 4, while T1(p) = -1/2 e1 and T2(p) = 1/2 e2 give
    (T1^T2)^{12}(p) = (-1/2)(1/2) - 0 = -1/4, so the ratio is -16.

    No rescaling that keeps the other verified identities gives -8.
    T_i -> lambda_i T_i divides the constant by lambda1 lambda2, so -8
    needs lambda1 lambda2 = 2; but 4 iota(T1) zeta1 = f1 and
    4 iota(T2) zeta1 = f2 pin lambda1 = lambda2 = 1 (and a common scale
    would need lambda^2 = 2, which has no rational solution).  mu -> 2 mu
    halves pi but doubles star(T_i) and star(E_i), breaking
    star(T1) = -1/4 df1^d(zeta1) and star(E1) = zeta1^d(zeta1).

    So, as criterion 4 does for the printed degree-3 kernel line, this
    asserts the forced constant exactly, that the printed -8 disagrees, and
    that the identity suite flags it.  The constant is derived here from
    the defining relation, not read off jacobi_poisson or the report.
    """
    mu_idx = (1, 2, 3, 4)

    def d(f):
        return GradedElement(4, 1, FORM,
                             {(i,): f.diff(i) for i in range(1, 5)})

    df1df2 = wedge(d(cat.f1), d(cat.f2))
    # {x_i, x_j}: the mu-coefficient of dx_i ^ dx_j ^ df1 ^ df2
    bracket = {(i, j): wedge(GradedElement.basis(4, FORM, (i, j)),
                             df1df2).coefficient(mu_idx)
               for i in range(1, 5) for j in range(i + 1, 5)}
    t1t2 = wedge(cat.T1, cat.T2)
    # both (1, 2) components are quadratic, so their x3^2 coefficients are
    # their values at p = (0, 0, 1, 0): 4 and -1/4
    x3sq = (0, 0, 2, 0)
    c = bracket[(1, 2)].coefficient(x3sq) / \
        t1t2.coefficient((1, 2)).coefficient(x3sq)
    ok = c == -16
    ok = ok and all(b == t1t2.coefficient(ij) * c
                    for ij, b in bracket.items())
    ok = ok and cat.pi == t1t2 * (-16)
    # the printed constant is refuted exactly, and the suite flags it
    ok = ok and cat.pi != t1t2 * (-8)
    checks = {ch["name"]: ch["status"]
              for ch in verify_identity_suite(cat)}
    ok = ok and checks.get("pi = -8 T1^T2") == "fail"
    ok = ok and checks.get("pi = -16 T1^T2 (computed)") == "info"
    assert _line(5, ok, "printed pi = -8 T1^T2 refuted; pi = %s T1^T2 "
                        "derived from {x_i, x_j} mu = dx_i^dx_j^df1^df2, "
                        "printed claim flagged by the identity suite" % c)


def test_criterion_6_division_groups(engine, cat):
    ok = True
    for w in range(1, 13):
        ok = ok and division_group_dim(lefschetz_problem(1, w)) == 0
    for d in range(0, 11):
        ok = ok and division_group_dim(lefschetz_problem(2, d + 2)) \
            == 2 * (d + 1)
    for d in range(1, 11):
        ok = ok and ideal_slice_dim(d)[1] == 2 * (d + 1)
    prob = lefschetz_problem(2, 4)
    ok = ok and submodule_contains(prob, cat.beta1 * cat.f1 - cat.beta2 * cat.f2)
    ok = ok and submodule_contains(prob, cat.beta1 * cat.f2 + cat.beta2 * cat.f1)
    assert _line(6, ok, "D^1 = 0 (w <= 12), dim D^2 = 2(d+1) (d <= 10), "
                        "dim R_d/J_d = 2(d+1) (1 <= d <= 10), relation "
                        "classes certified")


def test_criterion_7_normal_form_oracle(cat):
    G = lefschetz_ideal_basis()
    rng = random.Random(2024)
    ok = True
    # generator combinations are members by both oracles
    for g in G.generators:
        for d in range(0, 4):
            for m in monomials_of_degree(4, d):
                f = g * Polynomial.monomial(4, m)
                nf0 = normal_form(f, G)[0].is_zero()
                lin = linear_membership(f, G)
                ok = ok and nf0 and lin
    for _ in range(200):
        d = rng.randrange(1, 9)
        monos = monomials_of_degree(4, d)
        f = Polynomial(4, {m: rng.randint(-5, 5)
                           for m in rng.sample(monos, min(6, len(monos)))})
        if rng.random() < 0.4 and d >= 2:
            # force a member: random generator combination of degree d
            lower = monomials_of_degree(4, d - 2)
            f = Polynomial.zero(4)
            for g in G.generators:
                for m in rng.sample(lower, min(2, len(lower))):
                    f = f + g * Polynomial.monomial(4, m, rng.randint(-3, 3))
        if f.is_zero():
            continue
        r, qs = normal_form(f, G)
        rebuilt = r
        for q, gen in zip(qs, G.generators):
            rebuilt = rebuilt + q * gen
        ok = ok and rebuilt == f                       # explicit certificate
        ok = ok and (r.is_zero() == linear_membership(f, G))
    rad = x(2) * x(2) + x(4) * x(4)
    for m in range(1, 5):
        ok = ok and normal_form(cat.f1 ** m, G)[0] == (rad ** m) * ((-2) ** m)
    assert _line(7, ok, "NF membership agrees with linear membership on "
                        "generator combinations and 200 random homogeneous "
                        "polynomials; NF(f1^m) = (-2)^m (x2^2+x4^2)^m, m <= 4")


def test_criterion_8_module_structure(engine):
    results = engine.module_structure_check(10)
    ok = bool(results) and all(r["ok"] for r in results)
    negative = [r for r in results if not r["expect_boundary"]]
    ok = ok and len(negative) == 4 and all(not r["is_boundary"] for r in negative)
    assert _line(8, ok, "module-structure relations certified as boundaries "
                        "(w <= 10); x_i certified NOT boundaries")


def test_criterion_9_deformation_normalization(engine, cat):
    ok = True
    cases = [Polynomial.constant(4, 1) + x(1),
             Polynomial.constant(4, 1) + x(2) + cat.f2,
             Polynomial.constant(4, 1) + x(1) * x(3)]
    for g in cases:
        q, steps = engine.normalize_volume_deformation(g, 6)
        # q in R[[f1, f2]] is certified inside (raises otherwise)
        ok = ok and q.constant_term() == g.constant_term()
        for s in steps:
            ok = ok and contract(s.corrector, cat.df1).is_zero()
            ok = ok and contract(s.corrector, cat.df2).is_zero()
    assert _line(9, ok, "volume deformations 1+x1, 1+x2+f2, 1+x1*x3 "
                        "normalized to weight 6 with certified steps and "
                        "Casimir q, q(0) = g(0)")


def test_criterion_10_induced_de_rham(engine):
    table = engine.induced_de_rham(10)
    ok = all(dim == (1 if kw == (0, 0) else 0) for kw, dim in table.items())
    assert _line(10, ok, "de Rham cohomology on homology: dimension 1 at "
                         "(k = 0, w = 0), zero elsewhere (w <= 10)")
