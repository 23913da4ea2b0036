"""Each demo script runs to completion, and the duality demo prints the
expected verdicts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_six_demos():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05",
                                           "06"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr
    if path.name == "05_twisted_duality.py":
        verdicts = [line for line in done.stdout.splitlines()
                    if " twist at shift " in line]
        assert verdicts == [
            "k_x.pres with the identity twist at shift [2]: PASS",
            "k_xy.pres with the sign twist at shift [4]: PASS",
            "k_xy.pres with the identity twist at shift [4]: FAIL",
            "skew_2.pres with the identity twist at shift [4]: PASS",
            "skew_3.pres with the identity twist at shift [4]: PASS",
            "k_xy_23.pres with the identity twist at shift [7]: PASS",
        ]
