#!/usr/bin/env python3
"""qnetfair benchmark: one workload, end to end through ``qnetfair.cli.main``.

    python3 perfbench/run.py --workload mesh-fcfs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout. One client runs one command at a time in this process (a
closed loop) until ``--seconds`` have passed, and every command's outputs
are checked. With ``--trace 0`` the end-to-end metrics of BENCHMARK.json
are reported; with ``--trace 1`` the per-layer metrics, from runs with
every traced function wrapped, alternating with untraced runs. The
throughput metric divides each command's wall time by that of a fixed
reference workload timed beside it, because the host's speed drifts.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. A full record
(environment, inputs, every repeat, trace pairs and slot spans) is written
to ``perfbench/results/``. ``--quick`` shrinks every workload for the
self-test and skips the recorded-hash check.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SEED = 1
MIN_REPEATS = 3
# load_scenario is timed in batches of about this length before every
# command, so its median samples the same stretch of time as the commands.
SETUP_BATCH_S = 0.1
CHILD_TIMEOUT_S = 150.0
# The host's speed drifts by up to 1.7x for tens of seconds at a time. A
# fixed reference workload timed just before and just after each command
# slows by about the same factor, so command time / reference time holds
# steady where wall time does not. See reference_work.
_ref_rng = random.Random(5)
REF_ROWS = tuple((_ref_rng.randrange(1000), _ref_rng.randrange(7), i) for i in range(20_000))
REF_ITEMS = 30_000
# setup_s is given in seconds on a host where reference_work takes this long,
# its median on the 2-vCPU machine the benchmark was tuned on: load time /
# reference time, times this constant.
REF_NOMINAL_S = 0.07

PER_APP_HEADER = (
    "app_id,policy,seed,slots,grants,delivered,rate_per_slot,weighted_rate,mean_latency_slots"
)
TRACE_HEADER = "seed,slot,kind,id,sampled,granted,delivered,residual"
ASSIGN_HEADER = "app_id,workers,rate,weighted_rate,min_weighted_rate,jain_weighted"

# Runs one command in a fresh interpreter, then writes the peak resident
# memory of its own address space (VmHWM, in KiB) to the file argv[2]. The
# rusage of the child would not do: Linux carries the parent's peak RSS
# across the fork and exec into it.
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from qnetfair.cli import main
rc = main(sys.argv[3:])
with open("/proc/self/status") as fh:
    hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
with open(sys.argv[2], "w") as fh:
    fh.write(hwm[0])
sys.exit(rc)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    src = ROOT / "src"
    if not (src / "qnetfair" / "cli.py").is_file():
        raise BenchError(f"no qnetfair sources under {src}")
    sys.path.insert(0, str(src))
    import qnetfair
    from qnetfair import cli, engine, fairshare, routing, scenario_io, scheduling, validate

    if Path(qnetfair.__file__).resolve().parent != (src / "qnetfair").resolve():
        raise BenchError(f"imported qnetfair from {qnetfair.__file__}, not from {src}")
    return qnetfair, [qnetfair, cli, engine, fairshare, routing, scenario_io, scheduling, validate]


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Checker:
    """Counts commands and the ones whose exit code or outputs are wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems[:5]]

    def fail(self, problem: str) -> None:
        """A check across commands (repeat identity, recorded hash) failed."""
        self.problems.append(problem)


def call_cli(cli, argv: list[str]) -> tuple[int, str, list[str]]:
    """One in-process command: exit code, captured stdout, problems."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli(argv)
    except Exception:  # the command crashed; record it and keep measuring
        return -1, out.getvalue(), [traceback.format_exc(limit=3)]
    return rc, out.getvalue(), [] if rc == 0 else [f"exit code {rc}: {err.getvalue()[-200:]}"]


def check_outputs(w: wl.Workload, doc: dict, out_dir: Path, stdout: str) -> tuple[dict, list[str]]:
    """Validate a command's outputs; return them by file name, and problems."""
    problems: list[str] = []
    n_apps = len(doc["apps"])
    if w.command == "assign":
        lines = stdout.splitlines()
        if not lines or lines[0] != ASSIGN_HEADER:
            return {"stdout": stdout.encode()}, ["assign output header differs"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != n_apps:
            problems.append(f"{len(rows)} assign rows for {n_apps} apps")
        for row, app in zip(rows, doc["apps"]):
            workers = row[1].split(";") if len(row) == 6 else []
            if len(workers) != app["workers_needed"]:
                problems.append(f"app {row[0]}: {len(workers)} workers")
        return {"stdout": stdout.encode()}, problems

    names = ["per_app.csv", "global.csv"] + (["trace.csv"] if w.trace_csv else [])
    blobs = {}
    for name in names:
        try:
            blobs[name] = (out_dir / name).read_bytes()
        except OSError as err:
            return {}, [f"{name}: {err}"]
    per_app = blobs["per_app.csv"].decode().splitlines()
    if per_app[:1] != [PER_APP_HEADER]:
        problems.append("per_app.csv header differs")
    elif len(per_app) != n_apps + 1:
        problems.append(f"per_app.csv has {len(per_app) - 1} rows for {n_apps} apps")
    else:
        for line in per_app[1:]:
            cells = line.split(",")
            if int(cells[5]) > int(cells[4]):
                problems.append(f"app {cells[0]}: delivered {cells[5]} > grants {cells[4]}")
    edges = ",".join(f"edge_{i}_util" for i in range(len(doc["links"])))
    glob = blobs["global.csv"].decode().splitlines()
    if glob[:1] != [f"policy,seed,slots,jain_weighted,total_delivered,{edges}"] or len(glob) != 2:
        problems.append("global.csv header or row count differs")
    if w.trace_csv:
        trace = blobs["trace.csv"].decode().splitlines()
        if trace[:1] != [TRACE_HEADER] or len(trace) < 2:
            problems.append("trace.csv header differs or has no rows")
    return blobs, problems


def digest(blobs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(blobs):
        h.update(name.encode() + b"\n" + blobs[name])
    return h.hexdigest()


def maxmin_gap(program, scenario, per_app_csv: bytes) -> float:
    """Largest relative distance of a measured weighted rate from the
    weighted max-min prediction under the greedy assignment the run used."""
    fs = program.fairshare
    pred = fs.predicted_app_rates(
        scenario.graph, scenario.apps, fs.assign_greedy(scenario.graph, scenario.apps)
    )
    measured = {}
    for line in per_app_csv.decode().splitlines()[1:]:
        cells = line.split(",")
        measured[int(cells[0])] = float(cells[7])
    return max(abs(measured[a] - p.weighted) / p.weighted for a, p in pred.items())


class _RefItem:
    __slots__ = ("key", "group", "value")

    def __init__(self, key: int, group: int, value: float) -> None:
        self.key, self.group, self.value = key, group, value


def reference_work() -> float:
    """Wall time of a fixed workload that runs no program code.

    It mixes what the program spends its time on: integer arithmetic,
    sorting tuples, filling and reading a tuple-keyed dict, and building
    and reading small objects. The cyclic GC is off meanwhile, so the size
    of the program's heap does not change its cost.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(10 * REF_ITEMS):
            total += i * i % 7
        rows = list(REF_ROWS)
        rows.sort()
        rows.sort(key=lambda r: (r[1], r[0]))
        table = {}
        for i in range(REF_ITEMS):
            table[(i % 97, i)] = i
        for key in table:
            total += table[key]
        items = [_RefItem(i, i % 5, float(i)) for i in range(REF_ITEMS)]
        for item in items:
            if item.group == 2:
                total += item.value
        return time.perf_counter() - start
    finally:
        gc.enable()


def peak_rss_child(argv: list[str], cwd: Path, stdout_path: Path) -> tuple[int, float]:
    """Run one command in a fresh interpreter; exit code and peak RSS in MiB."""
    hwm_path = cwd / "vmhwm_kib"
    with open(stdout_path, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(ROOT / "src"), str(hwm_path), *argv],
            cwd=cwd, stdout=fh, stderr=subprocess.DEVNULL,
        )
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return proc.returncode, 0.0
    return 0, int(hwm_path.read_text()) / 1024.0


class Bench:
    def __init__(self, args: argparse.Namespace, spec: dict):
        self.args = args
        self.spec = spec
        self.program, self.modules = import_program()
        self.cli = self.program.cli
        self.w = wl.WORKLOADS[args.workload]
        self.work = HERE / "work" / f"{args.workload}-{os.getpid()}"
        self.check = Checker()
        self.record: dict = {"environment": environment()}
        self.gap: float | None = None  # maxmin_gap of a run workload
        self.wall_rate = 0.0  # work units per second of wall time, untraced
        self.setup_wall_s = 0.0  # load_scenario wall time, not scaled

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.doc, self.params = wl.build(self.w.name, ROOT, self.args.seed, self.args.quick)
        self.config = self.work / "scenario.json"
        self.config.write_text(json.dumps(self.doc, indent=1) + "\n", encoding="utf-8")
        self.units = wl.work_units(self.w, self.params)
        self.record.update(
            workload=self.w.name, seed=self.args.seed, seconds=self.args.seconds,
            trace=self.args.trace, quick=self.args.quick, generator=self.params,
            work_units=self.units,
            input_sha256=hashlib.sha256(self.config.read_bytes()).hexdigest(),
        )
        rc, out, problems = call_cli(self.cli.main, ["validate", "--config", str(self.config)])
        if not problems and out.strip() != "OK":
            problems = [f"validate printed {out!r}"]
        self.check.record("qnetfair validate", problems)

    def command(self, traced: bool) -> tuple[float, dict, tr.Tracer | None]:
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = wl.command_argv(self.w, self.config, out_dir)
        main, tracer = self.cli.main, None
        gc.collect()
        if traced:
            tracer = tr.Tracer()
            main = tracer.wrap("cli.main", main)
            with tr.installed(tracer, self.modules):
                start = time.perf_counter()
                rc, stdout, problems = call_cli(main, argv)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            rc, stdout, problems = call_cli(main, argv)
            elapsed = time.perf_counter() - start
        blobs: dict = {}
        if not problems:
            blobs, problems = check_outputs(self.w, self.doc, out_dir, stdout)
        self.check.record(f"{self.w.name} {'traced' if traced else 'untraced'}", problems)
        return elapsed, blobs, tracer

    def same_outputs(self, outputs: list[dict], what: str) -> str:
        digests = {digest(b) for b in outputs}
        if len(digests) != 1:
            self.check.fail(f"{what}: outputs differ across repeats of one seed")
        return sorted(digests)[0]

    def golden(self, got: str) -> None:
        if self.args.quick or self.args.seed != DEFAULT_SEED:
            return
        recorded = json.loads((HERE / "golden.json").read_text())
        want = recorded["workloads"].get(self.w.name)
        if want is None:
            self.check.fail(f"no recorded sha256 for {self.w.name} in golden.json")
            return
        if want["input_sha256"] != self.record["input_sha256"]:
            self.check.fail(f"input sha256 {self.record['input_sha256']} != recorded")
        if want["output_sha256"] != got:
            self.check.fail(f"output sha256 {got} != recorded {want['output_sha256']}")

    def setup_batch(self) -> list[float]:
        """Time load_scenario (read, parse, validate) for about SETUP_BATCH_S."""
        load = self.program.scenario_io.load_scenario
        times = []
        begin = time.perf_counter()
        while time.perf_counter() - begin < SETUP_BATCH_S:
            start = time.perf_counter()
            self.scenario = load(str(self.config))
            times.append(time.perf_counter() - start)
        return times

    def end_to_end(self) -> dict:
        rss_dir = self.work / "rss"
        rss_dir.mkdir()
        argv = wl.command_argv(self.w, self.config, rss_dir / "out")
        rc, rss = peak_rss_child(argv, rss_dir, rss_dir / "stdout")
        child_blobs: dict = {}
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if not problems:
            child_blobs, problems = check_outputs(
                self.w, self.doc, rss_dir / "out", (rss_dir / "stdout").read_text())
        self.check.record(f"{self.w.name} child process", problems)

        times, refs, blobs, setup = [], [], [], []
        deadline = time.perf_counter() + self.args.seconds
        while len(times) < MIN_REPEATS or time.perf_counter() < deadline:
            before = reference_work()
            setup.append(statistics.median(self.setup_batch()))
            elapsed, blob, _ = self.command(traced=False)
            refs.append((before + reference_work()) / 2)
            times.append(elapsed)
            blobs.append(blob)
        out_sha = self.same_outputs(blobs + [child_blobs], "untraced and child runs")
        self.golden(out_sha)
        self.record.update(repeats_s=times, reference_s=refs, setup_batch_medians_s=setup,
                           output_sha256=out_sha)
        self.wall_rate = self.units / statistics.median(times)
        self.setup_wall_s = statistics.median(setup)
        values = {
            "work_per_ref": self.units / statistics.median(t / r for t, r in zip(times, refs)),
            "setup_s": REF_NOMINAL_S * statistics.median(b / r for b, r in zip(setup, refs)),
            "peak_rss_mib": rss,
        }
        if "per_app.csv" in blobs[0]:
            self.gap = maxmin_gap(self.program, self.scenario, blobs[0]["per_app.csv"])
            self.record["maxmin_gap"] = self.gap
        return values

    def per_layer(self) -> dict:
        plain, traced = [], []
        deadline = time.perf_counter() + self.args.seconds
        while len(traced) < MIN_REPEATS or time.perf_counter() < deadline:
            plain.append(self.command(traced=False))
            traced.append(self.command(traced=True))
        out_sha = self.same_outputs([b for _, b, _ in plain + traced], "traced and untraced runs")
        self.golden(out_sha)
        traced.sort(key=lambda r: r[0])
        _, blobs, tracer = traced[len(traced) // 2]  # the median traced repeat
        values = tracer.metrics()
        values["cli.csv_bytes"] = sum(len(b) for b in blobs.values())
        values["trace.overhead_ratio"] = (
            statistics.median(t for t, _, _ in traced) / statistics.median(t for t, _, _ in plain)
        )
        values["maxmin_gap"] = 0.0
        if "per_app.csv" in blobs:
            scenario = self.program.scenario_io.load_scenario(str(self.config))
            values["maxmin_gap"] = maxmin_gap(self.program, scenario, blobs["per_app.csv"])
        self.record.update(
            untraced_repeats_s=[t for t, _, _ in plain],
            traced_repeats_s=sorted(t for t, _, _ in traced),
            output_sha256=out_sha, trace_detail=tracer.dump(), all_layer_values=values,
        )
        return values

    def run(self) -> dict:
        try:
            self.prepare()
            values = self.per_layer() if self.args.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        section = "per_layer" if self.args.trace else "end_to_end"
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in self.spec[section]
        }
        self.record.update(metrics=metrics, attempted=self.check.attempted,
                           failed=self.check.failed, problems=self.check.problems)
        return metrics

    def report(self, metrics: dict) -> None:
        env = self.record["environment"]
        print(f"qnetfair benchmark: workload={self.w.name} seed={self.args.seed} "
              f"seconds={self.args.seconds} trace={self.args.trace} quick={self.args.quick}")
        print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
        print("generator: " + json.dumps(self.params, sort_keys=True))
        repeats = self.record.get("repeats_s") or self.record["traced_repeats_s"]
        print(f"repeats: {len(repeats)} (medians reported)")
        if not self.args.trace:
            name, unit = (("assignments_per_s", "assignment/s") if self.w.command == "assign"
                          else ("slots_per_s", "slot/s"))
            print(f"{name} {self.wall_rate:.6g} {unit} ({self.units} per command; "
                  f"wall time, drifts with the host)")
            print(f"reference_s {statistics.median(self.record['reference_s']):.6g} s "
                  f"(median; work_per_ref = work per command / median of command time "
                  f"/ reference time)")
            print(f"setup_wall_s {self.setup_wall_s:.6g} s (median load_scenario wall time; "
                  f"setup_s scales it to a reference time of {REF_NOMINAL_S} s)")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        if self.gap is not None and not self.args.trace:
            print(f"maxmin_gap {self.gap:.6g} fraction")
        ratio = self.check.failed / self.check.attempted
        print(f"failed_ratio {ratio:.6g} ratio ({self.check.failed} failed / "
              f"{self.check.attempted} attempted commands)")
        for problem in self.check.problems:
            print(f"problem: {problem.strip()}")
        print(f"record: {self.results_path().relative_to(ROOT)}")

    def results_path(self) -> Path:
        quick = "-quick" if self.args.quick else ""
        name = f"{self.w.name}-seed{self.args.seed}-trace{self.args.trace}{quick}.json"
        return HERE / "results" / name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        bench = Bench(args, spec)
        metrics = bench.run()
    except (BenchError, ImportError, OSError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    bench.report(metrics)
    path = bench.results_path()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(bench.record, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": not bench.check.problems,
        "attempted": bench.check.attempted,
        "failed": bench.check.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
