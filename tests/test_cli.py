import hashlib
import json
import sys

import pytest

from poisson_forge.cli import main, run_command
from poisson_forge.polynomials import Polynomial
from poisson_forge.reports import SCHEMA, ReportDocument, emit_report


def test_nf_command(capsys):
    code = main(["nf", "--poly", "x1*x4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "x2*x3" in out


def test_hilbert_command(capsys):
    code = main(["hilbert", "--group", "H0", "--max-weight", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1, 4, 6, 8, 11]" in out
    assert "match" in out


def test_json_schema_tag(capsys):
    code = main(["nf", "--poly", "x1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "poisson-forge/1"
    assert doc["passed"] is True


def test_deterministic_output(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["hilbert", "--group", "H2", "--max-weight", "4",
                 "--format", "json", "--output", str(p1)]) == 0
    assert main(["hilbert", "--group", "H2", "--max-weight", "4",
                 "--format", "json", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_table(capsys):
    code = main(["hilbert", "--group", "H1", "--max-weight", "3",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("schema,%s" % SCHEMA)
    assert "group,weight,dim" in out
    assert "H1,1,4" in out


def test_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["nf"]) == 2                       # missing --poly
    assert main(["hilbert", "--group", "H7"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["division", "--max-degree", "-3"],
                                  ["division", "--p", "3", "--max-degree", "-2"]])
def test_division_negative_max_degree(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max degree %s" % argv[-1] in captured.err


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "f.json"
    assert main(["homology", "--degree", "1", "--max-weight", "2",
                 "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(path) in captured.err
    assert "Traceback" not in captured.err
    assert not path.exists()


def test_parse_error_exit(capsys):
    assert main(["nf", "--poly", "x1^-1"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err


@pytest.mark.parametrize("option, expr", [("--poly", "-x1"),
                                          ("--g", "-x1+1"),
                                          ("--g", "-1/2*x2+3")])
def test_a_polynomial_may_start_with_a_minus_sign(capsys, option, expr):
    # argparse reads "-x1" as an option; both spellings give one report,
    # each with its command line echoed as typed
    cmd = "nf" if option == "--poly" else "normalize"
    reports = []
    for argv in ([cmd, option, expr], [cmd, option + "=" + expr]):
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == " ".join(["poisson-forge"] + argv
                                          + ["--format", "json"])
        reports.append(dict(doc, command=None))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [["nf", "--poly", "[dx1]"],
                                  ["normalize", "--g", "[e1]"]])
def test_a_form_is_a_parse_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: unexpected character '[' (at offset 0)\n"


@pytest.mark.parametrize("argv", [["normalize", "--g", "2^100000"],
                                  ["nf", "--poly", "3^10000*x1"],
                                  ["nf", "--poly", "1" * 5000 + "*x1"]])
def test_unprintable_coefficient_is_a_parse_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "parse error: coefficient with more than %d digits cannot be printed"
        % sys.get_int_max_str_digits())
    assert "Traceback" not in captured.err


def test_weight_cap(capsys):
    assert main(["hilbert", "--group", "H0", "--max-weight", "99"]) == 2
    capsys.readouterr()


def test_negative_weight_is_a_usage_error(capsys):
    assert main(["hilbert", "--group", "H0", "--max-weight", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "max weight -1 is negative\n"


# every usage error the command layer finds after argparse leaves as
# argparse's own do: one line on stderr and SystemExit(2), no report
@pytest.mark.parametrize("argv, err", [
    (["nf", "--poly", "[dx1]"],
     "parse error: unexpected character '[' (at offset 0)\n"),
    (["normalize", "--g", "x1^-1"],
     "parse error: negative exponents rejected (at offset 3)\n"),
    (["division", "--max-degree", "-1"], "max degree -1 is negative\n"),
    (["division", "--max-degree", "21"],
     "max degree 21 beyond configured maximum 20\n"),
    (["hilbert", "--group", "H0", "--max-weight", "-1"],
     "max weight -1 is negative\n"),
    (["hilbert", "--group", "H0", "--max-weight", "21"],
     "max weight 21 beyond configured maximum 20\n"),
    (["nf", "--poly", "x1^21"],
     "polynomial degree 21 beyond configured maximum 20\n"),
    # refused at the '^' before the power is expanded
    (["normalize", "--g", "(1+x1+x2+x3+x4)^40", "--max-weight", "2"],
     "parse error: power of degree 40 beyond configured maximum 20 "
     "(at offset 15)\n"),
    # refused before the normalizer runs; g(0) may be a rational
    (["normalize", "--g", "x1", "--max-weight", "4"],
     "g must have positive constant term, not 0\n"),
    (["normalize", "--g", "-1/2+x1"],
     "g must have positive constant term, not -1/2\n"),
], ids=["nf-parse", "normalize-parse", "max-degree", "max-degree-over-cap",
        "weight-negative", "weight-over-cap", "nf-degree-over-cap",
        "normalize-power-over-cap", "normalize-zero-constant",
        "normalize-negative-constant"])
def test_usage_errors_raise_system_exit(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_homology_caps_the_representative_verdicts(capsys):
    assert main(["homology", "--degree", "4", "--max-weight", "11",
                 "--format", "json"]) == 0
    blocks = {b["block"]: b for b in json.loads(capsys.readouterr().out)["blocks"]}
    assert blocks["weight cap"]["text"] == ("representative verification runs "
                                            "at weight 10 (requested 11)")
    assert [row[0] for row in blocks["homology degree 4"]["rows"]] == list(range(12))
    assert len(blocks["H4 Hilbert function"]["computed"]) == 12
    verdicts = blocks["representative families degree 4"]["verdicts"]
    assert [v["weight"] for v in verdicts] == list(range(11))


def test_verify_module_structure(capsys):
    code = main(["verify", "--suite", "module-structure", "--max-weight", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "module structure relations" in out


def test_verify_derham(capsys):
    code = main(["verify", "--suite", "derham", "--max-weight", "4"])
    out = capsys.readouterr().out
    assert code == 0


def test_verify_identities_reports_the_known_failure(capsys):
    # the -8 proportionality of the source text cannot hold; exit code 1
    # and the computed constant are the honest outcome
    code = main(["verify", "--suite", "identities", "--max-weight", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "pi = -8 T1^T2" in out
    assert "-16" in out


def test_identity_suite_has_no_weight_cap(capsys):
    # the suite reads no weight: the default weight 12 is not cut and gives
    # the verdicts of weight 3
    reports = []
    for extra in ([], ["--max-weight", "3"]):
        assert main(["verify", "--suite", "identities", "--format", "json"]
                    + extra) == 1
        reports.append({b["block"]: b for b in
                        json.loads(capsys.readouterr().out)["blocks"]})
    assert "weight cap" not in reports[0]
    assert reports[0]["identity suite"] == reports[1]["identity suite"]


def test_normalize_command(capsys):
    code = main(["normalize", "--g", "1+x1*x3", "--max-weight", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "q(0) = g(0)" in out


def test_normalize_is_bounded_by_the_working_weight_alone(capsys):
    # a constant g has no steps; weight 13 is not cut, and the working
    # weight 20 is still the usage bound
    assert main(["normalize", "--g", "2", "--max-weight", "13",
                 "--format", "json"]) == 0
    blocks = {b["block"] for b in json.loads(capsys.readouterr().out)["blocks"]}
    assert "weight cap" not in blocks
    assert main(["normalize", "--g", "2", "--max-weight", "21"]) == 2
    assert capsys.readouterr().err == ("max weight 21 beyond configured "
                                       "maximum 20\n")


def test_division_command(capsys):
    code = main(["division", "--p", "2", "--max-degree", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "D^2" in out


def test_division_p1_reports_d1_alone(capsys):
    titles = {}
    for p in ("1", "2"):
        assert main(["division", "--p", p, "--max-degree", "2",
                     "--format", "json"]) == 0
        titles[p] = [b["block"] for b in
                     json.loads(capsys.readouterr().out)["blocks"]]
    assert titles["1"] == ["D^1(df1,df2) slices", "D^1 vanishing"]
    assert titles["2"] == titles["1"] + [
        "D^2(df1,df2) by coefficient degree", "D^2 classification",
        "second-group relation classes", "Jacobian ideal slices",
        "Jacobian quotient dimensions"]


def test_nf_is_bounded_by_the_working_weight(capsys):
    # nf reduces about d/2 times and eliminates the whole degree-d ideal
    # slice, so a degree above the working weight cap is refused before
    # either runs, however large; the cap itself is still computed
    assert main(["nf", "--poly", "x1^20"]) == 0
    assert "normal form" in capsys.readouterr().out
    assert main(["nf", "--poly", "1+x2*x3^99999999999"]) == 2
    assert capsys.readouterr().err == ("polynomial degree 100000000000 "
                                       "beyond configured maximum 20\n")


@pytest.mark.parametrize("argv", [["nf", "--poly", "x1", "--max-weight", "4"],
                                  ["division", "--max-weight", "4"]])
def test_nf_and_division_take_no_max_weight(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --max-weight 4" in captured.err


@pytest.mark.parametrize("argv", [["nf", "--poly", "x1"],
                                  ["division", "--p", "1", "--max-degree", "1"]])
def test_nf_and_division_reports_carry_no_weight(capsys, argv):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[1] == "command: poisson-forge " + " ".join(argv)
    assert "max weight" not in text
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["schema", "command", "max_weight", "passed", "blocks"]
    assert doc["max_weight"] is None
    # a weighted command still prints its weight
    assert main(["hilbert", "--group", "H0", "--max-weight", "2"]) == 0
    assert "\nmax weight: 2\n" in capsys.readouterr().out


def test_kernels_flag_note(capsys):
    code = main(["kernels", "--max-weight", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "consistency flag" in out


def test_run_command_returns_document():
    doc, code = run_command(["hilbert", "--group", "H4", "--max-weight", "5"])
    assert code == 0
    assert isinstance(doc, ReportDocument)
    assert doc.passed


def test_emit_report_bad_format():
    doc = ReportDocument("cmd", 4)
    with pytest.raises(ValueError):
        emit_report(doc, "yaml")


# sha256 of JSON reports whose verdict rows must not move: the whole
# verify suite (exit 1 for the printed -8), one normalizer run, an nf whose
# quotients have non-integral coefficients (c/cg in normal_form) and a
# normalizer run with rational g (whose q has non-integral coefficients).
# The normalizer pins were re-taken when the step rows came to name the
# slices of 1/g; q itself is pinned on its own below.  The last three are
# the representative, de Rham and kernel reports at their weight caps,
# where the order of elimination could move a byte that weight 5 does not
# see.  The last three pin the reports of the maps read through five
# monomials per row (the identity suite alone), through wedge operators
# (a D^3 table) and through the normalizer's split (a normalizer at weight
# 10; the pin was taken on the former step system of tangency wedges).  The
# last pins a normalizer at the working weight 20, so that the split's
# products at degrees 11-20 are pinned too; it was taken on the split
# through the polynomial Lie derivative, before the split read the torus
# stencils.  The last pins a g with a non-unit constant and denominators at
# degree 2, so that the inverses, the split and q run on numerators over
# denominators other than 1; it was taken on the Fraction inverses, before
# the normalizer ran on integer numerators.  The last pins a D^1 table
# through weight 18; it was taken on the x forms df1, df2, before the D^1
# and D^3 tables came to be read off the toric twin
@pytest.mark.parametrize("argv, code, digest", [
    (["verify", "--suite", "all", "--max-weight", "5"], 1,
     "b691887ce746339a637ac51532f3989976341a81db31b77cd47ba7eb1cfb3f6d"),
    (["normalize", "--g", "1+x1", "--max-weight", "5"], 0,
     "d5acd3f9130f700d93622ae13fa5e35dadf176bcbf99edf2d0ce781afec9a0d3"),
    (["nf", "--poly", "1/3*x1*x4+x1^3-5/2*x2*x3^2"], 0,
     "dc7e7d0860bf0e28c26e3601f3bc5e7fce94bad7afd2c109bbb1fa9bca47d69e"),
    (["normalize", "--g", "3/2+1/3*x1-x2^2+x1*x4", "--max-weight", "5"], 0,
     "ff82085b1ddf2ec08dcdb529617cfe2d0d0fab52adeadb2b96637531f6ab7144"),
    (["verify", "--suite", "theorem1", "--max-weight", "10"], 0,
     "52d0badae2e4d8a3f8ac7893f2f0b323da0213f5b47055fbd4538ccdea9d52b3"),
    (["verify", "--suite", "derham", "--max-weight", "10"], 0,
     "b936f1600eaab246586549782ffbc4c51d2b09bf5cdc23d2cf3749a5154294c8"),
    (["kernels", "--max-weight", "12"], 0,
     "7a868889568493556b5a89f334b2eadf7a14565f28188f7b4626b3d9d148e151"),
    (["verify", "--suite", "identities"], 1,
     "79dcc0945c9f8d72df611c19fe0d3aa152ff89a7027b1d50ccdbce183c2194a2"),
    (["division", "--p", "3", "--max-degree", "8"], 0,
     "5b1a008b0e29e4e7412d133072442dcc8d75365cdf9d715245d881a8bf67f6fc"),
    (["normalize", "--g", "1+x1+x2*x4+x3^3", "--max-weight", "10"], 0,
     "79da061bc49b71afecc6a39b03931459b57ba63a2fd997bd1131f14a1adddf4a"),
    (["normalize", "--g", "3/2+1/3*x1-x2^2+x1*x4", "--max-weight", "20"], 0,
     "5d4a5600111828f4002035306ea62c89564a48c7ed064ac98a2a5c4da0413e64"),
    (["normalize", "--g", "7-3*x1+5/4*x2^2-x1*x3^3", "--max-weight", "12"], 0,
     "d39cf1522150bf567a3aaafdd89922411bb6ae39742bc3ad11f75c6f9cbc647a"),
    (["division", "--p", "1", "--max-degree", "16"], 0,
     "fbe499dfd0e6a039603e08cfc761725ce7fdd137fccefc0e39e180c5a160ecdc"),
])
def test_report_bytes_are_pinned(capsys, argv, code, digest):
    assert main(argv + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the "normalized factor q" note alone, so that q is pinned apart
# from the step rows
@pytest.mark.parametrize("g, digest", [
    ("1+x1", "8224fe57c0e584b874300de4de58167f02097e4f721692612afec40875525402"),
    ("3/2+1/3*x1-x2^2+x1*x4",
     "f8bfe207a8b6e0a091c200f6a60701d026cc1c2a538f73075cdd1f869e92d4a0"),
])
def test_normalized_factor_note_is_pinned(capsys, g, digest):
    assert main(["normalize", "--g", g, "--max-weight", "5",
                 "--format", "json"]) == 0
    note, = [b["text"] for b in json.loads(capsys.readouterr().out)["blocks"]
             if b["block"] == "normalized factor q"]
    assert hashlib.sha256(note.encode()).hexdigest() == digest


def test_nf_verdicts_catch_a_wrong_remainder(capsys, monkeypatch):
    import poisson_forge.normalform as normalform
    assert main(["nf", "--poly", "x1^2+x2^2", "--format", "json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["blocks"][-1]["verdicts"]
    assert [v["status"] for v in verdicts] == ["pass", "pass"]
    assert verdicts[1]["name"] == ("ideal membership by normal form (member) "
                                   "= by linear algebra (member)")
    right = normalform.normal_form

    def wrong(f, basis):
        nf, quotients = right(f, basis)
        return nf + Polynomial.constant(4, 1), quotients

    monkeypatch.setattr(normalform, "normal_form", wrong)
    assert main(["nf", "--poly", "x1^2+x2^2", "--format", "json"]) == 1
    verdicts = json.loads(capsys.readouterr().out)["blocks"][-1]["verdicts"]
    assert [v["status"] for v in verdicts] == ["fail", "fail"]


def test_nf_computes_the_normal_form_once(capsys, monkeypatch):
    import poisson_forge.normalform as normalform
    right = normalform.normal_form
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return right(*args, **kwargs)

    monkeypatch.setattr(normalform, "normal_form", counted)
    assert main(["nf", "--poly", "x1^2+x2^2", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_normalize_unprintable_q_is_a_failing_verdict(capsys):
    # g prints, but q's coefficients outgrow the printable length
    assert main(["normalize", "--g", "1+10^1000*x1", "--max-weight", "6",
                 "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    blocks = json.loads(captured.out)["blocks"]
    assert blocks[-1]["verdicts"] == [{
        "name": "coefficient with more than %d digits cannot be printed"
                % sys.get_int_max_str_digits(), "status": "fail"}]


def test_nf_unprintable_normal_form_is_a_failing_verdict(capsys):
    # f prints at the lowest digit limit, but NF(f) = -8 N (x2^2+x4^2)^3
    # with N = 10^639 - 1 has the coefficient 24 N of 641 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["nf", "--poly", "9" * 639 + "*(x1^2-x2^2+x3^2-x4^2)^3",
                     "--format", "json"])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out)["blocks"] == [{
        "block": "normal form", "kind": "verdicts", "verdicts": [{
            "name": "coefficient with more than 640 digits cannot be printed",
            "status": "fail"}]}]
