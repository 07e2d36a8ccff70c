"""Benchmark of poisson-forge: verdict time, set-up time and memory per workload.

    python3 bench/run.py --workload theorem1 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a source checkout; nothing needs installing.  Each
verdict runs in a fresh, single-threaded Python process (bench/worker.py),
because the engine caches slices for the life of a process.  Verdicts
repeat until --seconds have passed.

--trace 0 prints the end-to-end metrics: wall_s, the 90th percentile of
the verdict times (first command's start to last report rendered); setup_s,
the median time to import poisson_forge.cli and build default_engine() in
a fresh process, probed between verdicts; peak_rss_mib, the median peak
resident memory of a verdict's process; and fail_ratio.  --trace 1
alternates untraced and traced verdicts and prints the medians of the
per-layer metrics of bench/tracer.py, the per-slice table, and
trace.overhead_s (traced minus untraced wall time, median over pairs);
the spans go to bench/out/.  Every report passes the gate of
bench/workloads.py; a command that fails it counts in fail_ratio and
makes the exit code 1.  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def spawn(spec):
    """Run one fresh worker process and return its result object."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py")],
                              input=json.dumps(spec), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded %d s" % WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


class Tally:
    """Commands attempted and failed against the gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, commands, result):
        for argv, outcome in zip(commands, result["outcomes"]):
            self.attempted += 1
            problem = outcome["error"] or workloads.check(
                argv, outcome["code"], outcome["payload"])
            if problem:
                self.failed += 1
                print("FAILED %s: %s" % (workloads.command_text(argv), problem),
                      file=sys.stderr)


def measure(name, commands, seconds, trace, tally):
    """Metrics of one workload: end-to-end ones, or per-layer ones if trace."""
    spawn({"commands": []})   # compiles the bytecode cache; not counted
    spans = os.path.join(BENCH, "out", "%s-spans.jsonl" % name)
    if trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    setups, plain, traced = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(spawn({"workload": name, "commands": commands}))
        tally.add(commands, plain[-1])
        if trace:
            traced.append(spawn({"workload": name, "commands": commands,
                                 "trace": True, "spans": None if traced else spans}))
            tally.add(commands, traced[-1])
        else:
            # set-up probes spread over the run, so they see the same machine
            setups.append(spawn({"commands": []})["setup_s"])
    walls = [r["wall_s"] for r in plain]
    if not trace:
        setups += [r["setup_s"] for r in plain]
        return {"wall_s": slow_mode(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain)}, \
            {"walls": walls, "setups": len(setups)}
    # median_low keeps counts whole
    metrics = {key: statistics.median_low(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    # each traced verdict runs right after an untraced one, so compare in pairs
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    return metrics, {"verdicts": len(traced), "slices": traced[0]["slices"],
                     "spans": os.path.relpath(spans, ROOT)}


def slow_mode(values):
    """90th percentile of the verdict times of a run.

    Verdict times on a shared machine are bimodal: phases of seconds to
    tens of seconds run up to a third faster than the rest, so the median
    of a run depends on how much of it fell into such a phase.  The slower
    mode is narrow and shows up in nearly every run; its level, read as a
    high percentile, is what a change to the program moves.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def report(name, seed, commands, metrics, info, trace, tally):
    print("workload %s  seed %d  (%d command%s per verdict)"
          % (name, seed, len(commands), "" if len(commands) == 1 else "s"))
    print("  %s" % workloads.WHY[name])
    for argv in commands:
        print("  replay: poisson-forge %s" % " ".join(shlex.quote(a) for a in argv))
    units = tracer.UNITS if trace else END_TO_END
    for key in sorted(metrics) if trace else END_TO_END:
        print("  %-38s %14.6g %s" % (key, metrics[key], units[key]))
    print("  %-38s %14.6g ratio  (%d of %d commands failed)"
          % ("fail_ratio", tally.failed / tally.attempted, tally.failed,
             tally.attempted))
    if trace:
        print("  traced verdicts: %d; spans of the first: %s"
              % (info["verdicts"], info["spans"]))
        if info["slices"]:
            print("  per-slice table (delta_k on the (k, w) slice; echelon = "
                  "boundary echelon it spans)")
            print("    %2s %2s %5s %5s %7s %8s %6s %5s %11s %13s"
                  % ("k", "w", "rows", "cols", "nnz", "ech_nnz", "fill", "bits",
                     "assembly_s", "elimination_s"))
            for r in info["slices"]:
                print("    %2d %2d %5d %5d %7d %8s %6s %5d %11.6f %13.6f"
                      % (r["k"], r["w"], r["rows"], r["cols"], r["nnz"],
                         "-" if r["echelon_nnz"] is None else r["echelon_nnz"],
                         "-" if r["fill"] is None else "%.2f" % r["fill"],
                         r["max_bits"], r["assembly_s"], r["elimination_s"]))
    else:
        print("  wall_s: 90th percentile of %d fresh-process verdicts (median %.4f);"
              " setup_s: median of %d set-ups"
              % (len(info["walls"]), statistics.median(info["walls"]), info["setups"]))
        print("  wall_s samples: %s" % " ".join("%.4f" % w for w in info["walls"]))


def main(argv=None, table=workloads.WORKLOADS):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(table) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "poisson_forge", "cli.py")):
        print("no poisson_forge sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = sorted(table) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result = {}
    try:
        for name in names:
            commands = table[name](args.seed)
            tally = Tally()
            metrics, info = measure(name, commands, args.seconds, args.trace, tally)
            report(name, args.seed, commands, metrics, info, args.trace, tally)
            attempted += tally.attempted
            failed += tally.failed
            units = tracer.UNITS if args.trace else END_TO_END
            prefix = name + "." if len(names) > 1 else ""
            for key, value in metrics.items():
                result[prefix + key] = {"value": value, "unit": units[key]}
    except WorkerError as exc:
        print("benchmark aborted: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
