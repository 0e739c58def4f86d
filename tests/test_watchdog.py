"""The suite's per-test watchdog (``conftest.watchdog``): a test that
hangs fails within the limit and prints where it hung, and the armed
watchdog leaves the process free to fork."""
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from qnetfair import fairshare

TESTS = Path(__file__).resolve().parent

SPINNING = """
import conftest

conftest.WATCHDOG_S = 1


def test_spins():
    while True: pass  # one line, so each Python reports the same line stuck
"""


def test_a_hanging_test_fails_with_its_stack(tmp_path):
    # the suite's conftest, loaded as a plugin, watches a test that never ends
    (tmp_path / "test_spinning.py").write_text(SPINNING)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS), str(TESTS.parent / "src"), env.get("PYTHONPATH")])
    )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest", "-p", "no:cacheprovider",
         "test_spinning.py"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert time.monotonic() - start < 60
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
    assert "Failed: still running after 1 s" in proc.stdout
    assert "test_spinning.py:8: " in proc.stdout, proc.stdout  # the line it was stuck on


def test_the_armed_watchdog_leaves_forking_on():
    assert threading.active_count() == 1
    assert fairshare.fork_cpus() == len(os.sched_getaffinity(0))
