"""Command-line front end.

Subcommands: homology, hilbert, kernels, division, nf, verify, normalize.
All take --format and --output.  The five that truncate at a working
weight take --max-weight, 12 by default: homology, hilbert, kernels,
verify and normalize.  division is sized by --max-degree and nf by its
input alone, each at most the working weight cap, so neither takes
one, and their reports carry no weight
(max_weight null in JSON, no "max weight" line in text).  Exit codes:
0 all requested verdicts pass, 1 some verdict failed, 2 usage or parse
error (one line on stderr and SystemExit(2), as argparse does).
"""

import argparse
import functools
import sys

from .catalog import lefschetz_catalog
from .division import (division_group_dim, ideal_dim_binomial_print,
                       ideal_slice_dim, lefschetz_problem,
                       submodule_contains, verify_division_basis)
from .homology import InvariantViolation, default_engine
from .parsing import MAX_DEGREE, ParseError, parse_polynomial
from .poisson import verify_identity_suite
from .reports import ReportDocument, emit_report
from .series import H_SERIES, KERNEL3_PRINTED, KERNEL_SERIES

# The highest weight of each computation.  A working weight, a division
# --max-degree or an nf polynomial degree above "working weight" is a usage
# error, as is a product the parser would expand past it; each other entry
# cuts the working weight of its computation and notes the cut in the report.
WEIGHT_CAPS = {
    "working weight": MAX_DEGREE,
    "representative verification": 10,
    "induced de Rham": 10,
}
USAGE_ERROR = 2
SUITES = ("identities", "theorem1", "kernels", "division", "module-structure",
          "derham")


def _usage_error(message):
    print(message, file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _parse(text):
    try:
        return parse_polynomial(text)
    except ParseError as exc:
        _usage_error("parse error: %s" % exc)


def _bounded(name, value):
    """value, a usage error if it is negative or above the working weight cap."""
    cap = WEIGHT_CAPS["working weight"]
    if value < 0:
        _usage_error("%s %d is negative" % (name, value))
    if value > cap:
        _usage_error("%s %d beyond configured maximum %d" % (name, value, cap))
    return value


def _capped(doc, w_max, label):
    """w_max cut to the cap of `label`, with a "weight cap" note if it was cut."""
    cap = WEIGHT_CAPS[label]
    if w_max > cap:
        doc.add_note("weight cap", "%s runs at weight %d (requested %d)"
                     % (label, cap, w_max))
    return min(w_max, cap)


def _homology_block(doc, eng, k, w_max):
    w_reps = _capped(doc, w_max, "representative verification")
    # an echelon of degree >= 1 builds the one above first; homology_dimension
    # reads the image first, so H_1's kernel echelon, degree 0, finds it built
    dims = eng.hilbert_function(k, w_max)
    doc.add_table("homology degree %d" % k,
                  ["weight", "dim_ker", "dim_im", "dim_H"],
                  [[w, eng.kernel_dim(k, w), eng.delta_rank(k + 1, w), dims[w]]
                   for w in range(w_max + 1)])
    doc.add_series("H%d Hilbert function" % k, dims,
                   H_SERIES[k].expand(w_max), str(H_SERIES[k]))
    doc.add_verdicts("representative families degree %d" % k,
                     [eng.verify_representatives(k, w)
                      for w in range(w_reps + 1)])


def _kernels_block(doc, eng, w_max):
    eng.boundary_echelons(w_max)
    for k in range(1, 5):
        doc.add_series("ker delta_%d Hilbert function" % k,
                       eng.kernel_hilbert(k, w_max),
                       KERNEL_SERIES[k].expand(w_max), str(KERNEL_SERIES[k]))
    computed3 = eng.kernel_hilbert(3, w_max)
    printed = KERNEL3_PRINTED.expand(w_max)
    if computed3 != printed:
        doc.add_note("kernel degree 3 consistency flag",
                     "the printed series %s disagrees with the direct rank "
                     "computation; the corrected series %s (forced by the "
                     "short exact sequence for degree 3) matches."
                     % (KERNEL3_PRINTED, KERNEL_SERIES[3]))


def _division1_block(doc, d_max):
    rows1 = []
    ok1 = True
    for w in range(1, d_max + 3):
        dim = division_group_dim(lefschetz_problem(1, w))
        ok1 = ok1 and dim == 0
        rows1.append([w, dim, 0])
    doc.add_table("D^1(df1,df2) slices", ["weight", "dim", "expected"], rows1)
    doc.add_verdicts("D^1 vanishing", [{"name": "D^1 = 0 for all tested weights",
                                        "status": "pass" if ok1 else "fail"}])


def _division_blocks(doc, d_max):
    _division1_block(doc, d_max)
    rows2 = []
    verd2 = []
    for d in range(d_max + 1):
        count, dim, indep, inker = verify_division_basis(lefschetz_problem(2, d + 2))
        rows2.append([d, dim, 2 * (d + 1)])
        verd2.append({"name": "D^2 slice d=%d: dim=%d expected=%d, basis "
                              "count=%d independent=%s" % (d, dim, 2 * (d + 1),
                                                           count, indep),
                      "status": "pass" if (dim == 2 * (d + 1) == count and indep
                                           and inker)
                      else "fail"})
    doc.add_table("D^2(df1,df2) by coefficient degree", ["coeff_degree", "dim",
                                                         "expected"], rows2)
    doc.add_verdicts("D^2 classification", verd2)
    cat = lefschetz_catalog()
    v1 = cat.beta1 * cat.f1 - cat.beta2 * cat.f2
    v2 = cat.beta1 * cat.f2 + cat.beta2 * cat.f1
    doc.add_verdicts("second-group relation classes", [
        {"name": "[f1*beta1 - f2*beta2] = 0",
         "status": "pass" if submodule_contains(lefschetz_problem(2, 4), v1)
         else "fail"},
        {"name": "[f2*beta1 + f1*beta2] = 0",
         "status": "pass" if submodule_contains(lefschetz_problem(2, 4), v2)
         else "fail"},
    ])
    rows3 = []
    verd3 = []
    for d in range(d_max + 1):
        dj, dq = ideal_slice_dim(d)
        binom = ideal_dim_binomial_print(d)
        exp_q = 2 * (d + 1) if d >= 1 else 1
        rows3.append([d, dj, binom, dq, exp_q])
        verd3.append({"name": "quotient R_%d/J_%d = %d (binomial print %s)"
                              % (d, d, exp_q, "agrees" if dj == binom
                                 else "DISAGREES: %d vs %d" % (dj, binom)),
                      "status": "pass" if dq == exp_q else "fail"})
    doc.add_table("Jacobian ideal slices",
                  ["degree", "dim_J", "binomial_print", "quotient",
                   "expected_quotient"], rows3)
    doc.add_verdicts("Jacobian quotient dimensions", verd3)


def _derham_block(doc, eng, w_max):
    table = eng.induced_de_rham(w_max)
    rows = [[k, w, table[(k, w)], 1 if (k, w) == (0, 0) else 0]
            for w in range(w_max + 1) for k in range(5)]
    doc.add_table("induced de Rham cohomology on homology",
                  ["degree", "weight", "dim", "expected"], rows)
    ok = all(r[2] == r[3] for r in rows)
    doc.add_verdicts("induced de Rham", [{
        "name": "dimension 1 at (k=0, w=0) and 0 elsewhere",
        "status": "pass" if ok else "fail"}])


def _nf_block(doc, poly):
    # looked up per call so that a test can substitute normal_form
    from .normalform import (lefschetz_ideal_basis, linear_membership,
                             normal_form)
    basis = lefschetz_ideal_basis()
    nf, quotients = normal_form(poly, basis)
    rebuilt = nf
    for q, gen in zip(quotients, basis.generators):
        rebuilt = rebuilt + q * gen
    nf_member = nf.is_zero()
    lin_member = linear_membership(poly, basis)
    try:
        # NF(f)'s coefficients can outgrow the printable length of f's
        printed = str(poly), str(nf)
    except ValueError as exc:
        doc.add_verdicts("normal form", [{"name": str(exc), "status": "fail"}])
        return
    doc.add_note("input", printed[0])
    doc.add_note("normal form", printed[1])
    doc.add_verdicts("normal form", [
        {"name": "f = sum q_i g_i + NF(f) (quotient certificate)",
         "status": "pass" if rebuilt == poly else "fail"},
        {"name": "ideal membership by normal form (%s) = by linear "
                 "algebra (%s)" % ("member" if nf_member else "non-member",
                                   "member" if lin_member else "non-member"),
         "status": "pass" if nf_member == lin_member else "fail"}])


def _normalize_block(doc, eng, g, w_max):
    try:
        q, steps = eng.normalize_volume_deformation(g, w_max)
        # q's coefficients can outgrow the printable length of g's
        printed_q = str(q)
        step_rows = [{"name": "weight %d of 1/g: residual certified in "
                              "im d_pi (Casimir part %s)"
                              % (s.weight, s.casimir_part),
                      "status": "pass"} for s in steps]
    except (InvariantViolation, ValueError) as exc:
        doc.add_verdicts("volume deformation", [{"name": str(exc),
                                                 "status": "fail"}])
        return
    doc.add_note("normalized factor q", printed_q)
    doc.add_verdicts("volume deformation", [
        {"name": "q(0) = g(0)",
         "status": "pass" if q.constant_term() == g.constant_term() else "fail"},
        {"name": "q lies in the Casimir ring (certified slicewise)",
         "status": "pass"}] + step_rows)


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, so one per process serves every
    command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default="text")
    common.add_argument("--output", default=None, help="write the report here")
    weighted = argparse.ArgumentParser(add_help=False, parents=[common])
    weighted.add_argument("--max-weight", type=int, default=12)

    ap = argparse.ArgumentParser(prog="poisson-forge",
                                 description="exact verification engine for "
                                             "the Lefschetz Poisson homology")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("homology", parents=[weighted],
                       help="slice dimensions of one degree")
    p.add_argument("--degree", type=int, required=True, choices=range(0, 5))

    p = sub.add_parser("hilbert", parents=[weighted],
                       help="Hilbert function of one homology group")
    p.add_argument("--group", required=True,
                   choices=["H%d" % k for k in range(5)])

    sub.add_parser("kernels", parents=[weighted],
                   help="kernel Hilbert functions of delta")

    p = sub.add_parser("division", parents=[common],
                       help="division group slices")
    p.add_argument("--p", type=int, default=2, choices=[1, 2, 3])
    p.add_argument("--max-degree", type=int, default=10)

    p = sub.add_parser("nf", parents=[common],
                       help="normal form against the Jacobian basis")
    p.add_argument("--poly", required=True)

    p = sub.add_parser("verify", parents=[weighted],
                       help="run verification suites")
    p.add_argument("--suite", required=True, choices=SUITES + ("all",))

    p = sub.add_parser("normalize", parents=[weighted],
                       help="volume deformation normalizer")
    p.add_argument("--g", required=True)

    return ap


def _parse_args(argv):
    """The parsed argv.  A polynomial after --poly or --g may start with a
    minus sign, which argparse would read as an option: it is passed on as
    --poly=EXPR or --g=EXPR."""
    joined = []
    for a in argv:
        if (joined and joined[-1] in ("--poly", "--g") and a.startswith("-")
                and not a.startswith("--")):
            joined[-1] += "=" + a
        else:
            joined.append(a)
    return build_parser().parse_args(joined)


def run_command(argv):
    """(document, exit_code) for argv; a usage error raises SystemExit(2)."""
    return _execute(_parse_args(argv), list(argv))


def _execute(args, argv):
    w_max = getattr(args, "max_weight", None)   # None where it is not taken
    if w_max is not None:
        _bounded("max weight", w_max)
    echo = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == "--output":
            skip = True
            continue
        if a.startswith("--output="):
            continue
        echo.append(a)
    doc = ReportDocument(" ".join(["poisson-forge"] + echo), w_max)
    eng = default_engine()

    try:
        if args.cmd == "homology":
            _homology_block(doc, eng, args.degree, w_max)
        elif args.cmd == "hilbert":
            k = int(args.group[1])
            dims = eng.hilbert_function(k, w_max)
            doc.add_table("H%d dimensions" % k, ["group", "weight", "dim"],
                          [[args.group, w, d] for w, d in enumerate(dims)])
            doc.add_series("H%d Hilbert function" % k, dims,
                           H_SERIES[k].expand(w_max), str(H_SERIES[k]))
        elif args.cmd == "kernels":
            _kernels_block(doc, eng, w_max)
        elif args.cmd == "division":
            _bounded("max degree", args.max_degree)
            if args.p == 1:
                _division1_block(doc, args.max_degree)
            elif args.p == 2:
                _division_blocks(doc, args.max_degree)
            else:
                doc.add_table("D^3 slices", ["weight", "dim"],
                              [[w, division_group_dim(lefschetz_problem(3, w))]
                               for w in range(3, args.max_degree + 4)])
        elif args.cmd == "nf":
            poly = _parse(args.poly)
            cap = WEIGHT_CAPS["working weight"]
            if poly.degree() > cap:
                _usage_error("polynomial degree %d beyond configured maximum "
                             "%d" % (poly.degree(), cap))
            _nf_block(doc, poly)
        elif args.cmd == "verify":
            for s in SUITES if args.suite == "all" else (args.suite,):
                if s == "identities":
                    doc.add_verdicts("identity suite",
                                     verify_identity_suite(eng.cat))
                elif s == "theorem1":
                    w = _capped(doc, w_max, "representative verification")
                    eng.boundary_echelons(w)
                    for k in range(5):
                        _homology_block(doc, eng, k, w)
                elif s == "kernels":
                    _kernels_block(doc, eng, w_max)
                elif s == "division":
                    _division_blocks(doc, max(w_max - 2, 0))
                elif s == "module-structure":
                    doc.add_verdicts("module structure relations",
                                     eng.module_structure_check(w_max))
                elif s == "derham":
                    _derham_block(doc, eng,
                                  _capped(doc, w_max, "induced de Rham"))
        elif args.cmd == "normalize":
            g = _parse(args.g)
            if g.constant_term() <= 0:
                _usage_error("g must have positive constant term, not %s"
                             % g.constant_term())
            _normalize_block(doc, eng, g, w_max)
    except InvariantViolation as exc:
        # a failed certificate is a failing verdict, not a traceback
        doc.add_verdicts("certificates", [{"name": str(exc),
                                           "status": "fail"}])
    return doc, 0 if doc.passed else 1


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        doc, code = _execute(args, argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        payload = emit_report(doc, args.format, args.output)
    except OSError as exc:
        print("cannot write the report to %s: %s"
              % (args.output, exc.strerror), file=sys.stderr)
        return USAGE_ERROR
    if args.output is None:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
