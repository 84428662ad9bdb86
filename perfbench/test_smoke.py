"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload through the real runner, traced and untraced, and
checks that a wrong library result is counted as a failure without
stopping the run.  Timings at these sizes mean nothing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from speed import Sampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_and_every_check_passes(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in spec
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_wrong_result_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    from piercesum import errorsum

    real = errorsum.esum
    monkeypatch.setattr(errorsum, "esum", lambda x: real(x) + 1)
    assert run.main(["--workload", "points", "--seed", "7", "--seconds", "0", "--trace", "1", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # every forward query of the untraced and the traced job fails; no inverse query does
    assert not result["correct"]
    assert result["attempted"] == 2 * 220 and result["failed"] == 2 * 200


def test_work_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = bench("--workload", "points", "--seed", "7", "--seconds", "0", "--trace", "1", "--tiny")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1] and counts[0]["core.digits"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*", "traces"))
    proc = bench("--workload", "points", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sampler_runs_the_kernel_only_while_active_and_restores_the_cpu_mask():
    allowed = os.sched_getaffinity(0)
    sampler = Sampler()
    with sampler:
        end = perf_counter() + 0.5
        while perf_counter() < end:
            pass
    taken = len(sampler.kernel_cpu)
    assert taken >= 3 and 0 < sampler.cpu <= sampler.wall
    end = perf_counter() + 0.2
    while perf_counter() < end:
        pass
    assert len(sampler.kernel_cpu) == taken
    assert os.sched_getaffinity(0) == allowed
