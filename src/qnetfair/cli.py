"""Command-line front end: validate | run | assign | sweep.

Outputs are plain CSV files (per_app.csv, global.csv, optional trace.csv)
plus a human-readable summary on stdout. Exit codes: 0 success, 1 I/O or
parse failure, 2 validation or usage error. All randomness flows from the
scenario seed (or --seed); nothing reads the wall clock.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TextIO

from .engine import (
    Metrics,
    SlotLedger,
    aggregate_metrics,
    replication_runs,
    resolve_assignment,
)
from .fairshare import SearchSpaceTooLarge, predicted_app_rates, weighted_jain
from .model import AppId, AssignmentSource, NodeId, Policy, Scenario, shown
from .scenario_io import SCHEMA, ParseError, parse_scenario, read_json
from .scheduling import ConfigError
from .validate import ValidationError, validate_scenario

OUTPUT_DIR_ENV = "QNETFAIR_OUTPUT_DIR"

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2

PER_APP_COLUMNS = [
    "app_id",
    "policy",
    "seed",
    "slots",
    "grants",
    "delivered",
    "rate_per_slot",
    "weighted_rate",
    "mean_latency_slots",
]
TRACE_COLUMNS = [
    "seed",
    "slot",
    "kind",
    "id",
    "sampled",
    "granted",
    "delivered",
    "residual",
]
# the fewest distinct rows of each kind that a trace writer keeps formatted;
# it keeps at least twice a slot's rows, since a slot of more rows than its
# cache would miss on each, as the row it needs next is the least recently used
_TRACE_ROW_CACHE = 4096
# how each command that runs a solver can shrink an exhaustive search
_TOO_LARGE_HINT = {
    "run": "raise --limit or set sim.assignment to greedy or random",
    "assign": "raise --limit or use --solver greedy/random",
    "sweep": "raise sim.exhaustive_limit or set sim.assignment to greedy or random",
}


class SweepParamError(Exception):
    pass


def _fmt(value: Any) -> str:
    """CSV cell: floats with 6 significant digits (round-half-even), NA for None."""
    if value is None:
        return "NA"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


@contextlib.contextmanager
def _output_files(out_dir: Path) -> Iterator[Callable[[str, Sequence[str]], TextIO]]:
    """Give the block a function that opens the CSV file ``name`` in
    ``out_dir``, made if need be, writes its header row of ``columns`` and
    returns the open file. Each file is written under the temporary name
    ``name`` + ".tmp" and renamed to ``name`` once the block and every close
    succeed. If the block, a close or a rename fails, the temporary files,
    the files already renamed and the directories made for them are removed
    before the error propagates, so a failed command leaves the outputs of
    an earlier one as they were. The renames at the end are one file at a
    time: a crash between two of them would still leave a mix of two sets."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    opened: list[Path] = []
    renamed = 0
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with contextlib.ExitStack() as files:

            def open_csv(name: str, columns: Sequence[str]) -> TextIO:
                path = out_dir / name
                fh = files.enter_context(open(f"{path}.tmp", "w", encoding="utf-8"))
                opened.append(path)
                fh.write(",".join(columns) + "\n")
                return fh

            yield open_csv
        for path in opened:
            os.replace(f"{path}.tmp", path)
            renamed += 1
    except BaseException:
        for i, path in enumerate(opened):
            Path(path if i < renamed else f"{path}.tmp").unlink(missing_ok=True)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _write_rows(fh: TextIO, rows: Iterable[Sequence]) -> None:
    """Write each row, a sequence in the columns' order, as soon as it is formatted."""
    fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _wrote(out_dir: Path, names: Sequence[str]) -> str:
    return f"wrote {', '.join(str(out_dir / name) for name in names)}"


# each flag that sets a sim key, and that key
_SIM_FLAGS = {"seed": "seed", "slots": "slots", "policy": "policy", "limit": "exhaustive_limit"}


def _scenario(data: Any, args: argparse.Namespace) -> Scenario:
    """Parse and validate a scenario document. The command's flags are set
    into its ``sim`` object first, so the schema reads them as file values."""
    sim = data.get("sim") if isinstance(data, dict) else None
    if isinstance(sim, dict):
        for flag, key in _SIM_FLAGS.items():
            if getattr(args, flag, None) is not None:
                sim[key] = getattr(args, flag)
    return validate_scenario(*parse_scenario(data))


def _output_dir(args: argparse.Namespace) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    return Path(env) if env else Path(".")


def _per_app_rows(scenario: Scenario, metrics: Metrics) -> Iterator[tuple]:
    for app in scenario.apps:
        am = metrics.per_app[app.id]
        yield (
            app.id,
            metrics.policy.value,
            metrics.seed,
            metrics.slots,
            am.grants,
            am.delivered,
            am.delivered_rate,
            am.weighted_rate,
            am.mean_latency,
        )


def _global_columns(scenario: Scenario) -> list[str]:
    cols = ["policy", "seed", "slots", "jain_weighted", "total_delivered"]
    cols += [f"edge_{l.id}_util" for l in sorted(scenario.graph.links, key=lambda l: l.id)]
    return cols


def _global_row(metrics: Metrics) -> list:
    # utilisations in link-id order, as _global_columns heads them, not in the file's order
    return [
        metrics.policy.value,
        metrics.seed,
        metrics.slots,
        metrics.jain_weighted,
        metrics.total_delivered,
    ] + [em.utilization for _, em in sorted(metrics.per_edge.items())]


def _trace_writer(fh: TextIO, links: int, flows: int) -> Callable[[SlotLedger], None]:
    """An ``on_slot`` that writes each slot's trace.csv rows to ``fh``, in
    TRACE_COLUMNS order: one edge row per link by id, of ``links`` links,
    then one flow row per granted flow by flat index, which is (app,
    worker) order, of at most ``flows`` flows. A row's text after its
    ``seed,slot,`` head is formatted once per key, (link, sampled,
    residual) or ((app, worker), granted, delivered), and kept in this
    writer's own cache for each kind, of twice a slot's rows of that kind
    or _TRACE_ROW_CACHE, whichever is more, least recently used out
    first, so memory does not grow with slots or capacities. A key names
    all that its text shows, so a text is right for any run, whatever its
    seed or flow table. The keys are ints, as the sampler, the kernel and
    resolve_successes make them: True would take 1's entry. No cell goes
    through _fmt."""
    @lru_cache(max(_TRACE_ROW_CACHE, 2 * links))
    def edge_row(e: int, sampled: int, residual: int) -> str:
        return f"edge,{e},{sampled},{sampled - residual},NA,{residual}\n"

    @lru_cache(max(_TRACE_ROW_CACHE, 2 * flows))
    def flow_row(flow: tuple[AppId, NodeId], granted: int, done: int) -> str:
        return f"flow,{flow[0]}-{flow[1]},NA,{granted},{done},NA\n"

    edges = range(links)

    def write(ledger: SlotLedger) -> None:
        flows, granted, done = ledger.flows, ledger.flow_grants, ledger.flow_successes
        lines = list(map(edge_row, edges, ledger.sampled, ledger.residual))
        lines += [flow_row(flows[f], granted[f], done.get(f, 0)) for f in sorted(granted)]
        if lines:  # a network without links may grant nothing: no rows
            head = f"{ledger.seed},{ledger.slot},"
            fh.write(head + head.join(lines))

    return write


def _print_run_summary(scenario: Scenario, runs: list[Metrics]) -> None:
    cfg = scenario.config
    print(
        f"policy={cfg.policy.value} traffic={cfg.traffic.value} "
        f"slots={cfg.slots} warmup={cfg.warmup_slots} seed={cfg.seed} "
        f"replications={len(runs)}"
    )
    if len(runs) == 1:
        m = runs[0]
        print("app  weight  grants  delivered  rate/slot  weighted  latency")
        for app in scenario.apps:
            am = m.per_app[app.id]
            print(
                f"{app.id:<4} {app.weight:<7g} {am.grants:<7} {am.delivered:<10} "
                f"{_fmt(am.delivered_rate):<10} {_fmt(am.weighted_rate):<9} "
                f"{_fmt(am.mean_latency)}"
            )
        print(
            f"jain(weighted)={_fmt(m.jain_weighted)} total_delivered={m.total_delivered}"
        )
        util = " ".join(
            f"edge{eid}={_fmt(em.utilization)}" for eid, em in sorted(m.per_edge.items())
        )
        print(f"utilization: {util}")
    else:
        summary = aggregate_metrics(runs)
        print(f"aggregate over {summary.n} replications (mean +/- sample stddev):")
        for key in sorted(summary.stats):
            st = summary.stats[key]
            print(f"  {key}: {_fmt(st.mean)} +/- {_fmt(st.stddev)}")


def cmd_validate(args: argparse.Namespace) -> int:
    _scenario(read_json(args.config), args)
    print("OK")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario(read_json(args.config), args)
    out_dir = _output_dir(args)
    with _output_files(out_dir) as open_csv:
        # trace.csv is written slot by slot as the runs go; the rest after them
        on_slot = None
        if args.trace:
            links, flows = len(scenario.graph.links), sum(a.workers_needed for a in scenario.apps)
            on_slot = _trace_writer(open_csv("trace.csv", TRACE_COLUMNS), links, flows)
        runs = replication_runs(
            scenario, n_replications=scenario.config.replications, on_slot=on_slot
        )
        per_app = (r for m in runs for r in _per_app_rows(scenario, m))
        _write_rows(open_csv("per_app.csv", PER_APP_COLUMNS), per_app)
        _write_rows(open_csv("global.csv", _global_columns(scenario)), map(_global_row, runs))
    _print_run_summary(scenario, runs)
    print(_wrote(out_dir, ["per_app.csv", "global.csv"] + ["trace.csv"] * args.trace))
    return EXIT_OK


def cmd_assign(args: argparse.Namespace) -> int:
    scenario = _scenario(read_json(args.config), args)
    cfg = dataclasses.replace(scenario.config, assignment=AssignmentSource(args.solver))
    assignment = resolve_assignment(scenario, cfg)
    pred = predicted_app_rates(scenario.graph, scenario.apps, assignment)
    weighted = [pred[a.id].weighted for a in scenario.apps]
    min_weighted = min(weighted, default=None)  # NA without apps, as in run
    jain = weighted_jain(weighted)

    if args.format == "csv":
        print("app_id,workers,rate,weighted_rate,min_weighted_rate,jain_weighted")
        for app in scenario.apps:
            workers = ";".join(str(w) for w in sorted(assignment[app.id]))
            print(
                f"{app.id},{workers},{_fmt(pred[app.id].delivered)},"
                f"{_fmt(pred[app.id].weighted)},{_fmt(min_weighted)},{_fmt(jain)}"
            )
    else:
        print(f"solver={args.solver}")
        for app in scenario.apps:
            workers = sorted(assignment[app.id])
            print(
                f"app {app.id}: workers {workers}  "
                f"rate={_fmt(pred[app.id].delivered)}  "
                f"weighted={_fmt(pred[app.id].weighted)}"
            )
        print(f"min_weighted_rate={_fmt(min_weighted)} jain_weighted={_fmt(jain)}")
    return EXIT_OK


_SWEEP_SHORTHAND = {"policy": "sim.policy", "seed": "sim.seed", "quantum_base": "sim.quantum_base"}


def _set_sweep_value(data: Any, dotted: str, raw: str) -> Any:
    """Apply one sweep value to the raw scenario document; returns the
    parsed value used for row tagging. The dotted path names a schema key
    on an object the file holds (``sim.traffic``, ``apps.0.min_fidelity``);
    the key itself may be omitted, and its type in the schema types the value."""
    parts = dotted.split(".")
    target = data.get(parts[0]) if isinstance(data, dict) else None
    if len(parts) == 3 and isinstance(target, list):
        # an index is str(i) of an entry i; int() would refuse one of over 4300 digits
        target = next((t for i, t in enumerate(target) if str(i) == parts[1]), None)
    elif len(parts) != 2:
        target = None
    key = SCHEMA.get(parts[0], {}).get(parts[-1])
    if key is None or not isinstance(target, dict):
        raise SweepParamError(f"unknown parameter path: {shown(dotted)}")
    if key.type in (tuple, frozenset):
        raise SweepParamError(f"{dotted}: not a sweepable numeric field")
    value: Any = raw  # an enum key takes the string
    if key.type in (int, float):
        try:
            value = key.type(raw)
        except ValueError as exc:
            kind = "integer" if key.type is int else "numeric"
            raise SweepParamError(f"{dotted}: expected {kind} value, got {shown(raw)}") from exc
    target[parts[-1]] = value
    return value


def cmd_sweep(args: argparse.Namespace) -> int:
    base_data = read_json(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip() != ""]
    if not values:
        raise SweepParamError("no sweep values given")
    dotted = _SWEEP_SHORTHAND.get(args.param, args.param)
    for flag, key in _SIM_FLAGS.items():
        if f"sim.{key}" == dotted and getattr(args, flag, None) is not None:
            raise SweepParamError(
                f"--{flag} conflicts with --param {args.param}: "
                f"it would replace every swept value of sim.{key}"
            )

    points = []  # every point runs before any write: a failing one leaves no files
    for raw_value in values:
        data = json.loads(json.dumps(base_data))  # fresh copy per point
        value = _set_sweep_value(data, dotted, raw_value)
        scenario = _scenario(data, args)
        runs = replication_runs(scenario, n_replications=scenario.config.replications)
        points.append((value, scenario, runs))

    per_app_rows = ((v, *r) for v, sc, runs in points for m in runs for r in _per_app_rows(sc, m))
    global_rows = ((v, *_global_row(m)) for v, _, runs in points for m in runs)
    out_dir = _output_dir(args)
    with _output_files(out_dir) as open_csv:
        _write_rows(open_csv("sweep_per_app.csv", ["sweep_value"] + PER_APP_COLUMNS), per_app_rows)
        global_columns = ["sweep_value"] + _global_columns(points[0][1])
        _write_rows(open_csv("sweep_global.csv", global_columns), global_rows)
    print(f"swept {args.param} over {len(values)} values")
    print(_wrote(out_dir, ["sweep_per_app.csv", "sweep_global.csv"]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetfair",
        description="Slot-based entanglement sharing simulator and assignment solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, help="override sim.seed")

    p_validate = sub.add_parser("validate", help="check a scenario file")
    add_common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="simulate and write CSV outputs")
    add_common(p_run)
    p_run.add_argument("--slots", type=int, help="override sim.slots")
    p_run.add_argument("--policy", choices=[p.value for p in Policy])
    p_run.add_argument("--limit", type=int, help="override sim.exhaustive_limit")
    p_run.add_argument("--trace", action="store_true", help="also write trace.csv")
    p_run.add_argument("--output-dir", help=f"default: ${OUTPUT_DIR_ENV} or .")
    p_run.set_defaults(func=cmd_run)

    p_assign = sub.add_parser("assign", help="solve the worker assignment and report")
    add_common(p_assign)
    solvers = [s.value for s in AssignmentSource if s is not AssignmentSource.GIVEN]
    p_assign.add_argument("--solver", choices=solvers, default="greedy")
    p_assign.add_argument("--limit", type=int, help="override sim.exhaustive_limit")
    p_assign.add_argument("--format", choices=["text", "csv"], default="text")
    p_assign.set_defaults(func=cmd_assign)

    p_sweep = sub.add_parser("sweep", help="run once per parameter value")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--param",
        required=True,
        help="policy | seed | quantum_base | dotted path (e.g. apps.0.weight)",
    )
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--slots", type=int, help="override sim.slots")
    p_sweep.add_argument("--policy", choices=[p.value for p in Policy])
    p_sweep.add_argument("--output-dir", help=f"default: ${OUTPUT_DIR_ENV} or .")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as err:
        for diag in err.diagnostics:
            print(diag)
        return EXIT_INVALID
    except SearchSpaceTooLarge as err:
        print(f"error: {err} ({_TOO_LARGE_HINT[args.command]})", file=sys.stderr)
        return EXIT_INVALID
    except (ConfigError, SweepParamError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
