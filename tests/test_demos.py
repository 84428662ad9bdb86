"""The demos run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_graph_dimension_demo():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_graph_dimension.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("(<= bound: True)") == 3
