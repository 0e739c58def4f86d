"""The experiment scripts reject arguments they cannot run with a usage
error (exit 2), not a traceback."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("compare_policies.py", ["--reps", "0"], "--reps: must be >= 1, got 0"),
        # each policy's scenario is validated with the script's settings
        ("compare_policies.py", ["--slots", "0"], "sim.slots: must be >= 1, got 0"),
        ("assignment_study.py", ["--instances", "0"], "at least 2 instances, got 0"),
        ("assignment_study.py", ["--instances", "1"], "at least 2 instances, got 1"),
    ],
)
def test_unusable_count_is_a_usage_error(name, args, message):
    proc = run_script(name, *args)
    assert proc.returncode == 2, proc.stderr
    assert "usage:" in proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
