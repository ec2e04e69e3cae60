"""Traced runs: outputs are unchanged by the wrappers, sweep workers' spans
are merged and tagged by cell, and self times account for the wall time.
Also: the metric names match BENCHMARK.json, and the benchmark refuses to run
without the program."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

COMMANDS = [
    ["degree", "--family", "pk", "--sweep", "2..3", "8..10", "--precision", "256"],
    ["verify", "--family", "pk", "-k", "2", "-n", "9", "--backend", "exact"],
    ["verify", "--family", "biproj", "-k", "2", "-n", "6", "--backend", "float"],
    ["report", "--family", "pk", "-k", "2", "-n", "8"],
    ["picard", "-k", "2", "-n", "8"],
]


def command(argv, trace_dir=None):
    job = json.dumps({"argv": argv, "trace_dir": trace_dir})
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "command.py"), job],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:3]))
def test_traced_output_identical(argv, tmp_path):
    plain = command(argv)
    traced = command(argv, str(tmp_path))
    assert plain["error"] is None and traced["error"] is None
    assert traced["exit"] == plain["exit"] == 0
    assert traced["stdout"] == plain["stdout"]

    main = traced["trace"]["main"]
    # every span of the main process nests under cli.main, so the self
    # times add up to the time main() took
    accounted = sum(row[2] for row in main["spans"].values())
    assert main["spans"]["cli.main"][0] == 1
    assert accounted == pytest.approx(main["spans"]["cli.main"][1], rel=1e-6)
    assert accounted == pytest.approx(traced["wall_s"], rel=0.05, abs=0.005)


def test_sweep_workers_tagged_by_cell(tmp_path):
    traced = command(COMMANDS[0], str(tmp_path))
    workers = traced["trace"]["workers"]
    cells = sorted(tuple(w["cell"]) for w in workers)
    assert cells == [("pk", k, n) for k in (2, 3) for n in (8, 9, 10)]
    assert 1 <= len(traced["trace"]["worker_pids"]) <= (os.cpu_count() or 1)
    for w in workers:
        assert w["spans"]["cli.degree_cell"][0] == 1
        assert w["spans"]["spectra.spectral_report"][0] == 1


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    empty = {"reports": []}
    per_layer = run.per_layer(empty, empty)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in per_layer.items()}
    e2e = run.end_to_end([{"reports": [{"wall_s": 1.0, "setup_s": 0.1}]}], 0, 1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-orbit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
