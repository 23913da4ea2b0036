"""Tests of the benchmark itself, on the smoke inputs (seconds, not minutes).

Run from the repository root:

    python -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run
import workloads
from lattice import Lattice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def bench(*argv, cwd=ROOT):
    out = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out


def last_json(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_names_match_the_harness(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    per_layer = list(layers.SPAN_METRICS) + list(layers.COUNTERS) + \
        list(layers.MAXIMA) + ["trace.overhead_ratio"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(spec, workload, trace):
    res = last_json(bench("--workload", workload, "--seed", "3", "--trace",
                          trace, "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_results_file_records_the_environment():
    out = bench("--workload", "graded_pieces", "--seed", "7", "--smoke")
    path = next(line.split(" ", 1)[1] for line in out.stdout.splitlines()
                if line.startswith("results: "))
    with open(path, encoding="utf-8") as fh:
        env = json.load(fh)["environment"]
    for key in ("python", "commit", "nproc", "loadavg_start", "loadavg_end"):
        assert key in env


def _canonical_answers(seed, tmp_path):
    lat = Lattice(3, 3, seed)
    path = tmp_path / f"seed{seed}.dimer"
    path.write_text(lat.text())
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    answers = []
    for action in ("validate", "consistency", "matchings"):
        out = subprocess.run([sys.executable, "-m", "gradedcy.cli",
                              "--format", "json", "dimer", action, str(path)],
                             env=env, capture_output=True, text=True,
                             check=True)
        data = json.loads(out.stdout)
        if action == "consistency":
            data["rcharge"] = {lat.canonical[e]: c
                               for e, c in data["rcharge"].items()}
        if action == "matchings":
            data["matchings"] = sorted(sorted(lat.canonical[e] for e in m)
                                       for m in data["matchings"])
        answers.append(data)
    return lat, answers


def test_two_seeds_give_identical_answers(tmp_path):
    lat1, one = _canonical_answers(1, tmp_path)
    lat2, two = _canonical_answers(2, tmp_path)
    assert lat1.text() != lat2.text()
    assert one == two
    assert lat1.check_validate(one[0]) is None


def test_oracles_reject_wrong_answers():
    assert workloads.series(4, 11)[-1] == 564719
    assert Lattice(5, 5, 0).matching_count() == 7623
    wl = workloads.build("graded_pieces", 0, True, None)
    good = {str(-k): {"P->P": d, "total": d}
            for k, d in enumerate(workloads.series(4, 7))}
    assert wl.commands[0].check(good) is None
    good["-6"] = {"P->P": 2910, "total": 2910}
    assert wl.commands[0].check(good) is not None
    lat = Lattice(3, 3, 0)
    charge = {"feasible": True, "margin": "2/3",
              "rcharge": {e: "2/3" for e in lat.ename.values()}}
    assert lat.check_charge(charge) is None
    e0, e1 = sorted(lat.ename.values())[:2]
    charge["rcharge"][e0], charge["rcharge"][e1] = "1/3", "1"
    assert lat.check_charge(charge) is not None


def test_runner_turns_limits_into_failed_commands(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", ROOT)
    runner = run.Runner(time.perf_counter(), tmp_path)
    child = runner.run(["-c", "x = bytearray(3 << 30)"])
    assert child.error and child.error.startswith("memory limit")
    runner = run.Runner(time.perf_counter() - run.RUN_DEADLINE + 2, tmp_path)
    child = runner.run(["-c", "import time; time.sleep(30)"])
    assert child.error and child.error.startswith("timeout")
    assert child.wall < 10


def test_failed_start_up_is_counted_not_raised(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "SETUP_CODE", "raise SystemExit(3)")
    runner = run.Runner(time.perf_counter(), tmp_path)
    tally = run.Tally()
    wl = workloads.build("graded_pieces", 0, True, None)
    metrics, _ = run.measure(runner, wl, 0, tally)
    assert metrics["setup_s"][0] > 0
    assert tally.attempted == 2
    assert len(tally.errors) == 1
    assert tally.errors[0].startswith("start-up: exit code 3")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = bench("--workload", "gorenstein", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
