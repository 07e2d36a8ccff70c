"""One fresh, single-threaded process of the benchmark.

Reads a JSON spec on stdin: {"workload", "commands", "trace", "spans"}.
Times the import of `poisson_forge.cli` plus `default_engine()` (set-up),
then runs the commands through `run_command` and `emit_report`, so they
share the default engine the way library callers do.  The wall time runs
from the first command's start to the last report rendered.  Prints one
JSON line: setup_s, wall_s, peak_rss_mib and each command's outcome; when
traced, also the per-layer metrics and the per-slice table, and the spans
go to the file named by "spans".
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cli, commands, tracer=None):
    """(wall seconds, outcomes); an outcome is {"code", "payload", "error"}."""
    outcomes = []
    start = time.perf_counter()
    if tracer is not None:
        tracer.start_workload()
    for argv in commands:
        if tracer is not None:
            tracer.start_command()
        outcome = {"code": None, "payload": None, "error": None}
        try:
            doc, outcome["code"] = cli.run_command(argv)
            if doc is not None:
                outcome["payload"] = cli.emit_report(doc, "json")
        except SystemExit as exc:
            outcome["code"] = exc.code
        except Exception as exc:   # e.g. InvariantViolation: a failed command
            traceback.print_exc()
            outcome["error"] = repr(exc)
        finally:
            if tracer is not None:
                tracer.end()
        outcomes.append(outcome)
    if tracer is not None:
        tracer.end()
    return time.perf_counter() - start, outcomes


def main():
    spec = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import poisson_forge.cli as cli
    cli.default_engine()
    result = {"setup_s": time.perf_counter() - start}
    if spec.get("commands"):
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        result["wall_s"], result["outcomes"] = run(cli, spec["commands"], tracer)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["slices"] = tracer.slice_table()
            if spec.get("spans"):
                tracer.write_spans(spec["spans"], spec["workload"],
                                   [" ".join(a) for a in spec["commands"]])
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
