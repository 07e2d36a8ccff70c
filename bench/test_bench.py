"""Self-tests of the benchmark at a tiny size (weight 3, one g).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import worker
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import poisson_forge.cli as cli  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _tiny_commands():
    return workloads.TINY["theorem1"](0) + workloads.TINY["normalize"](0)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, trace):
    code = run.main(["--workload", "all", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)], table=workloads.TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert len(result["metrics"]) == len(declared) * len(workloads.TINY)
    for name in workloads.TINY:
        for metric in declared:
            got = result["metrics"]["%s.%s" % (name, metric["name"])]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            assert any(line.split()[0] == metric["name"]
                       and line.split()[-1] == metric["unit"]
                       for line in lines[:-1] if line.startswith("  "))
    assert sum(line.split()[0] == "fail_ratio" for line in lines) == len(workloads.TINY)


def test_self_times_are_nonnegative_and_sum_to_the_traced_wall_time():
    commands = _tiny_commands()
    t = tracer.Tracer()
    t.install()
    try:
        wall, outcomes = worker.run(cli, commands, t)
    finally:
        t.uninstall()
    assert not hasattr(cli.division_group_dim, "__wrapped__")
    assert min(t.self_times()) >= -1e-9
    metrics = t.metrics()
    assert set(metrics) | {"trace.overhead_s"} == set(tracer.UNITS)
    total = sum(metrics[layer + ".self_s"] for layer in tracer.LAYERS + ("unwrapped",))
    assert total == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert 0 < metrics["trace.wall_s"] <= wall
    assert metrics["homology.normalize_first_s"] > 0
    # tracing changes no report byte
    for argv, outcome in zip(commands, outcomes):
        assert workloads.check(argv, outcome["code"], outcome["payload"]) is None


def test_a_corrupted_report_counts_as_a_failure():
    commands = _tiny_commands()
    _, outcomes = worker.run(cli, commands)
    tally = run.Tally()
    tally.add(commands, {"outcomes": outcomes})
    assert (tally.attempted, tally.failed) == (2, 0)
    bad = [dict(o) for o in outcomes]
    bad[0]["payload"] = bad[0]["payload"].replace('"dim_H"', '"dim_h"')
    bad[1]["payload"] = bad[1]["payload"].replace('"status": "pass"',
                                                  '"status": "fail"', 1)
    tally.add(commands, {"outcomes": bad})
    assert (tally.attempted, tally.failed) == (4, 2)


def test_a_failed_gate_makes_the_exit_code_nonzero(capsys, monkeypatch):
    command = workloads.command_text(workloads.TINY["theorem1"](0)[0])
    monkeypatch.setitem(workloads.PINS, command, "0" * 64)
    code = run.main(["--workload", "theorem1", "--seconds", "0"],
                    table=workloads.TINY)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] > 0


def test_inputs_come_from_the_seed():
    make = workloads.WORKLOADS["normalize"]
    assert make(5) == make(5)
    assert make(5) != make(6)
    assert len({argv[2] for argv in make(5)}) == 4


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "theorem1",
                                                  "--seed", "1", "--seconds", "1",
                                                  "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
