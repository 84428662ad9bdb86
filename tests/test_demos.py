"""The demos run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


@pytest.mark.parametrize(
    "name", ["01_digits_and_convergents.py", "02_error_sums.py", "03_intervals_and_jumps.py"]
)
def test_demo_runs(name):
    run = run_demo(name)
    assert run.returncode == 0, run.stderr


def test_integral_and_variation_demo():
    run = run_demo("04_integral_and_variation.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("grid 2^") == 3
    assert run.stdout.count("equal: True") == 5
    assert run.stdout.count("bracket: ") == 1


def test_graph_dimension_demo():
    run = run_demo("05_graph_dimension.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("(<= bound: True)") == 3
