#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload with ``--quick`` for about a second, untraced and
traced, and checks that the last line is the result object, that it
carries exactly the metrics BENCHMARK.json names with their units, that
the readable lines name the issue's metrics with units, and that no
command failed. Then it checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files. Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TIMEOUT_S = 170


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_spec(spec: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    errors += [f"bad or repeated name {n}" for n in names
               if not NAME.fullmatch(n) or names.count(n) > 1]
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end entry {m}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"]):
        errors.append("no setup_s metric")
    return errors


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    where = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{where}: {name} is not a number")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end {name} reads {value}")
    text = "\n".join(lines[:-1])
    expected = [r"failed_ratio 0 ratio"]
    if not trace:
        expected.append(r"assignments_per_s [0-9.e+]+ assignment/s" if workload == "exhaustive-30"
                        else r"slots_per_s [0-9.e+]+ slot/s")
        expected += [rf"{n} [0-9.e+-]+ {re.escape(u)}" for n, u in want.items()]
        if workload != "exhaustive-30":
            expected.append(r"maxmin_gap [0-9.e+-]+ fraction")
    errors += [f"{where}: no line matching {p!r}" for p in expected if not re.search(p, text)]
    return errors


def check_bare() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = HERE / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "--workload", "mesh-fcfs", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, w["name"], trace)
    errors += check_bare()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
