"""Benchmark workloads: seeded `poisson-forge` argv lists and their correctness gate.

A workload is a list of argv lists, run in order through
`poisson_forge.cli.run_command` in one fresh process.  Only the generated
argv strings reach the program; the seed stays here.

The gate pins the sha256 of the JSON report of every deterministic command.
Each pin was taken from the stdout of

    PYTHONPATH=src python3 -m poisson_forge.cli <command>

at the commit that introduced the benchmark.  Seeded `normalize` commands
cannot be pinned, so their gate asks for exit code 0, `"passed": true` and
every verdict passing, which includes every certified deformation step.
"""

import hashlib
import json
import random

# why each workload exists; the same text is in BENCHMARK.json
WHY = {
    "theorem1": "verify --suite theorem1 at weight 6: untracked elimination of "
                "every delta slice twice plus the representative checks; the "
                "mechanism workload for a new elimination kernel",
    "derham": "verify --suite derham at weight 6: tracked elimination and solves "
              "in the class solver on a fresh engine; the mechanism workload "
              "for a quotient solver, bypassing the rank and boundary caches",
    "normalize": "four seeded normalize --g commands at weight 3 in one process: "
                 "the only workload whose inputs share work and the only one "
                 "where the Schouten pullback matters",
    "division": "verify --suite division at weight 9: about 12k inserts into "
                "tiny echelons, wedge-heavy; the opposite size extreme of the "
                "same linalg layer",
}


def _verify(suite, weight):
    return [["verify", "--suite", suite, "--max-weight", str(weight),
             "--format", "json"]]


def _normalize(seed, count, weight):
    rng = random.Random(seed)
    return [["normalize", "--g", random_g(rng), "--max-weight", str(weight),
             "--format", "json"] for _ in range(count)]


WORKLOADS = {
    "theorem1": lambda seed: _verify("theorem1", 6),
    "derham": lambda seed: _verify("derham", 6),
    "normalize": lambda seed: _normalize(seed, 4, 3),
    "division": lambda seed: _verify("division", 9),
}

# The same shapes at weight 3 with one g, for the benchmark's self-tests.
TINY = {
    "theorem1": lambda seed: _verify("theorem1", 3),
    "derham": lambda seed: _verify("derham", 3),
    "normalize": lambda seed: _normalize(seed, 1, 3),
    "division": lambda seed: _verify("division", 3),
}

PINS = {
    "verify --suite theorem1 --max-weight 6 --format json":
        "28d4afc0720e474604ea03efb16ec113fd59a3a5e2368718eb1543d7bef34b57",
    "verify --suite derham --max-weight 6 --format json":
        "62e7d8efc13fe21f80a2b1219a602ebe0256dc146e587400adfe11009128b226",
    "verify --suite division --max-weight 9 --format json":
        "a4770b3848ebf1037eace9019c8b2d54d20f93e88afbb59d1acd4970cd9c7fc6",
    "verify --suite theorem1 --max-weight 3 --format json":
        "014138ab4535892eac2c74becb3775ec0d25e4f66595d00209643985420035bc",
    "verify --suite derham --max-weight 3 --format json":
        "9717e244cf8a20c9f0808e19ba8e583b61c3f2d84c14c3689df5f57a00c8613d",
    "verify --suite division --max-weight 3 --format json":
        "fe481bf5791d22913ef62fa8f53800864f75b9405ff46bccc2e761dfd3c69be4",
}

_DEGREE1 = [(i,) for i in range(1, 5)]
_DEGREE2 = [(i, j) for i in range(1, 5) for j in range(i, 5)]


def random_g(rng):
    """A positive-constant g: constant 1..3, one degree-1 and two degree-2 terms.

    Coefficients are +-1 or +-2.  The degree pattern is fixed because the
    normalizer's cost depends mostly on it (three degree-1 terms cost about
    15x what three degree-2 terms cost at weight 3); with it fixed, the
    cost of one g varies by about 6% between seeds.
    """
    monos = [rng.choice(_DEGREE1)] + rng.sample(_DEGREE2, 2)
    text = str(rng.randint(1, 3))
    for mono in monos:
        c = rng.choice((1, 2, -1, -2))
        factor = "*".join("x%d^2" % i if mono.count(i) == 2 else "x%d" % i
                          for i in sorted(set(mono)))
        text += ("+" if c > 0 else "-") + ("2*" if abs(c) == 2 else "") + factor
    return text


def command_text(argv):
    return " ".join(argv)


def check(argv, code, payload):
    """None if the command's outcome is the expected one, else the reason."""
    if payload is None:
        return "no report (exit code %s)" % code
    if code != 0:
        return "exit code %s" % code
    pin = PINS.get(command_text(argv))
    if pin is not None:
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return None if digest == pin else "report sha256 %s, pinned %s" % (digest, pin)
    if argv[0] != "normalize":
        return "no pinned report for this command"
    try:
        report = json.loads(payload)
    except ValueError as exc:
        return "report is not JSON: %s" % exc
    if report.get("passed") is not True:
        return "report not passed"
    for block in report.get("blocks", ()):
        for verdict in block.get("verdicts", ()):
            if verdict.get("status") != "pass":
                return "verdict %r is %s" % (verdict.get("name"),
                                             verdict.get("status"))
    return None
