import contextlib
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import revalidated, scenario_dict
from gen import network_doc, random_connected_graph
from qnetfair import (
    Application,
    AssignmentSource,
    CapacityMode,
    Policy,
    SimConfig,
    Traffic,
    load_scenario,
    replication_runs,
    run,
    validate_scenario,
)
from qnetfair import cli
from qnetfair.cli import TRACE_COLUMNS, _trace_writer, build_parser, main

# a UTF-16 byte-order mark and text: not UTF-8 from the first byte
NOT_UTF8 = b"\xff\xfe" + "{}".encode("utf-16-le")
# files json.load cannot read, and the one stderr line each gives; an
# integer literal over Python's 4300-digit limit raises a plain ValueError,
# and nesting past the recursion limit a RecursionError
UNREADABLE = pytest.mark.parametrize(
    "content, err",
    [
        (NOT_UTF8, "parse error: byte 0: invalid start byte (not UTF-8)"),
        (
            json.dumps(scenario_dict()).replace('"seed": 3', '"seed": 1' + "0" * 5000).encode(),
            "parse error: Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 5001 digits",
        ),
        (b"[" * 100_000, "parse error: arrays or objects nested too deeply to read"),
    ],
    ids=["utf16", "5001_digit_seed", "100000_nested_arrays"],
)
ROOT = Path(__file__).resolve().parent.parent


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestValidateCommand:
    def test_valid_file_exits_zero(self, write_scenario, capsys):
        path = write_scenario(scenario_dict())
        assert main(["validate", "--config", path]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_unknown_key_exits_two_with_location(self, write_scenario, capsys):
        data = scenario_dict()
        data["apps"][0]["fidelityy"] = 1.0
        path = write_scenario(data)
        assert main(["validate", "--config", path]) == 2
        assert "apps[0].fidelityy" in capsys.readouterr().out

    def test_invariant_violation_exits_two(self, write_scenario, capsys):
        data = scenario_dict()
        data["links"][0]["fidelity"] = 0.1
        path = write_scenario(data)
        assert main(["validate", "--config", path]) == 2
        assert "Werner floor" in capsys.readouterr().out

    def test_malformed_syntax_exits_one_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": [,]}', encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1

    @UNREADABLE
    def test_non_utf8_file_exits_one_with_parse_error(self, tmp_path, capsys, content, err):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [err]

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["assign", "--solver", "exhaustive"], ["assign", "--solver", "greedy"],
         ["run"]],
        ids=["validate", "exhaustive", "greedy", "run"],
    )
    @pytest.mark.parametrize(
        "field, value, token",
        [
            ("weight", math.nan, "NaN"),
            ("weight", math.inf, "Infinity"),
            ("arrival_rate", math.nan, "NaN"),
            ("arrival_rate", math.inf, "Infinity"),
            # a flow's share 5e-324 / 2 is 0.0; at 1e-320 a weighted rate is inf
            ("weight", 5e-324, "5e-324"),
            ("weight", 1e-320, "1e-320"),
            ("weight", 1e308, "1e+308"),
        ],
    )
    def test_non_finite_number_exits_two(
        self, write_scenario, tmp_path, capsys, command, field, value, token
    ):
        data = scenario_dict()
        data["apps"][0].update({field: value, "workers_needed": 2, "candidates": [1, 2]})
        data["nodes"].append({"id": 2, "kind": "computation"})
        data["links"].append(dict(data["links"][0], id=1, endpoints=[0, 2]))
        path = write_scenario(data)
        assert f'"{field}": {token}' in Path(path).read_text()  # Python's json reads it back
        argv = command + ["--config", path]
        if command == ["run"]:
            argv += ["--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith(f"apps[0].{field}: must be")


    @pytest.mark.parametrize(
        "section, key, value, diag",
        [
            ("links", "capacity_max", 10**400,
             "links[0].capacity_max: must be <= 1000, got an integer of 401 digits"),
            ("links", "capacity_max", -(10**400),
             "links[0].capacity_max: must be >= 1, got a negative integer of 401 digits"),
            ("sim", "replications", -(10**4000),
             "sim.replications: must be >= 1, got a negative integer of 4001 digits"),
        ],
        ids=["huge_capacity", "negative_capacity", "negative_replications"],
    )
    def test_over_long_integer_is_echoed_as_digit_count(
        self, write_scenario, capsys, section, key, value, diag
    ):
        data = scenario_dict()
        (data["sim"] if section == "sim" else data[section][0])[key] = value
        assert main(["validate", "--config", write_scenario(data)]) == 2
        assert capsys.readouterr().out.splitlines() == [diag]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "app, sim, got",
        [({"weight": 1e-12}, {}, "1e-12"), ({}, {"quantum_base": 10**400}, "inf")],
        ids=["tiny_weight", "huge_base"],
    )
    def test_drr_quantum_out_of_bounds_exits_two_promptly(
        self, write_scenario, tmp_path, command, app, sim, got
    ):
        # single_bottleneck (DRR) with only app 0: at weight 1e-12 a grant
        # would wait about 1e12 fruitless passes, and a command that runs
        # them shows as TimeoutExpired, not as exit 2
        data = json.loads((ROOT / "scenarios" / "single_bottleneck.json").read_text())
        data["apps"] = [dict(data["apps"][0], **app)]
        data["sim"].update(slots=50, **sim)
        env = dict(os.environ, QNETFAIR_OUTPUT_DIR=str(tmp_path / "out"))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "qnetfair.cli", command, "--config", write_scenario(data)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout.splitlines() == [
            "apps[0].weight: DRR quantum sim.quantum_base * weight must be finite and >= 0.001 "
            f"(flow cost 1 / 1000 passes), got {got}"
        ]
        assert not (tmp_path / "out").exists()


def _edit(section, key, value):
    """A change to scenario_dict: set ``key`` on sim or on the first entry of ``section``."""

    def edit(data):
        (data["sim"] if section == "sim" else data[section][0])[key] = value
        return data

    return edit


def _extra_node_ids(*ids):
    extra = [{"id": i, "kind": "repeater"} for i in ids]
    return lambda data: dict(data, nodes=data["nodes"] + extra)


def _node_one_twice(data):
    # the repeat is first, and a copy, so node 1 stays app 0's computation worker
    nodes = data["nodes"] + [dict(data["nodes"][1]), {"id": 10**30, "kind": "repeater"}]
    return dict(data, nodes=nodes)


def _unreachable_worker(data):
    # node 2 hangs off node 0 by a link below app 0's min_fidelity
    data["nodes"].append({"id": 2, "kind": "computation"})
    data["links"].append({"id": 1, "endpoints": [0, 2], "capacity_max": 1, "fidelity": 0.5})
    data["apps"][0].update(min_fidelity=0.9, candidates=[1, 2], workers=[2])
    data["sim"]["assignment"] = "given"
    return data


def _drr_without_eligible_worker(data):
    data["sim"]["policy"] = "DRR"
    data["apps"][0]["min_fidelity"] = 0.99
    data["links"][0]["fidelity"] = 0.9
    return data


class TestDiagnosticLines:
    """One exact stdout line, exit 2, for problems that parsing or
    validation reports."""

    @pytest.mark.parametrize(
        "edit, line",
        [
            (_edit("apps", "weight", "heavy"), "apps[0].weight: expected number, got 'heavy'"),
            (_edit("apps", "candidates", 3),
             "apps[0].candidates: expected list of node ids, got 3"),
            (_edit("apps", "candidates", [1, "x"]),
             "apps[0].candidates[1]: expected integer, got 'x'"),
            (lambda data: [], "scenario: expected a JSON object at top level"),
            (lambda data: dict(data, nodes={}), "scenario.nodes: expected a list"),
            (lambda data: dict(data, links=[3]), "links[0]: expected an object"),
            (_edit("apps", "host", 5), "apps[0].host: node 5 does not exist"),
            (_edit("apps", "candidates", [1, 7]), "apps[0].candidates: node 7 does not exist"),
            (_edit("apps", "workers_needed", 0), "apps[0].workers_needed: must be >= 1, got 0"),
            (_edit("sim", "exhaustive_limit", 0), "sim.exhaustive_limit: must be >= 1, got 0"),
            (_edit("sim", "slots", 0), "sim.slots: must be >= 1, got 0"),
            (_unreachable_worker,
             "apps[0].workers: [2] not eligible (unreachable or below min_fidelity)"),
            # quantum_problems skips an app without eligible flows: one line, not two
            (_drr_without_eligible_worker,
             "apps[0]: only 0 eligible workers (reachable with fidelity >= 0.99), needs 1"),
            # an echoed value of over 40 characters is given by its length
            (_edit("nodes", "kind", "k" * 100_000),
             "nodes[0].kind: expected one of 'repeater', 'computation', "
             "got a value of 100002 characters"),
            (_edit("links", "endpoints", [10**4000, "x"]),
             "links[0].endpoints: expected a pair of node ids, got a value of 4008 characters"),
            (_edit("apps", "candidates", [1, "c" * 50_000]),
             "apps[0].candidates[1]: expected integer, got a value of 50002 characters"),
            (_extra_node_ids(10**6),
             "nodes: ids must be dense integers from 0 to 2; 2 is missing, "
             "1000000 is out of range"),
            (_node_one_twice,
             "nodes: ids must be dense integers from 0 to 3; 2 is missing, 1 is repeated"),
            (_extra_node_ids(10**30, 2),
             "nodes: ids must be dense integers from 0 to 3; 3 is missing, "
             "an integer of 31 digits is out of range"),
            (_extra_node_ids(*range(2, 299), 100_000),
             "nodes: ids must be dense integers from 0 to 299; 299 is missing, "
             "100000 is out of range"),
        ],
        ids=["string_weight", "scalar_candidates", "string_candidate", "top_level_list",
             "object_nodes", "scalar_link", "missing_host", "missing_candidate",
             "zero_workers_needed", "zero_exhaustive_limit", "zero_slots", "ineligible_worker",
             "drr_too_few_eligible", "long_kind", "huge_endpoint", "long_candidate", "sparse_ids",
             "repeated_id", "huge_id", "sparse_ids_300_nodes"],
    )
    def test_one_exact_line(self, write_scenario, capsys, edit, line):
        assert main(["validate", "--config", write_scenario(edit(scenario_dict()))]) == 2
        captured = capsys.readouterr()
        assert (captured.out.splitlines(), captured.err) == ([line], "")

    def test_duplicate_key_exits_one(self, write_scenario, tmp_path, capsys):
        # json keeps the last of a repeated key: app 0 would run at weight 9
        text = Path(write_scenario(scenario_dict())).read_text()
        path = tmp_path / "twice.json"
        path.write_text(text.replace('"weight": 1.0', '"weight": 1.0, "weight": 9.0'))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: apps[0]: duplicate key 'weight'\n"
        assert not out.exists()


class TestSimFlags:
    """Flags are set into the document's sim object before it is read."""

    def test_flag_supplies_a_key_the_file_omits_or_gets_wrong(
        self, write_scenario, tmp_path, capsys
    ):
        data = scenario_dict(slots="many")
        del data["sim"]["seed"]
        path = write_scenario(data)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "sim.slots: expected integer, got 'many'",
            "sim.seed: missing required key",
        ]
        argv = ["run", "--config", path, "--output-dir", str(out), "--seed", "3", "--slots", "100"]
        assert main(argv) == 0
        _, rows = read_csv(out / "per_app.csv")
        assert [(r["seed"], r["slots"]) for r in rows] == [("3", "100")]

    def test_flag_value_is_checked_as_the_file_value(self, write_scenario, capsys):
        path = write_scenario(scenario_dict())
        assert main(["assign", "--config", path, "--limit", "0"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "sim.exhaustive_limit: must be >= 1, got 0"
        ]


class TestRunCommand:
    def test_unit_pipe_rate_is_one(self, write_scenario, tmp_path):
        path = write_scenario(scenario_dict())
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--output-dir", str(out)]) == 0
        header, rows = read_csv(out / "per_app.csv")
        assert header == [
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
        assert rows[0]["rate_per_slot"] == "1"
        assert rows[0]["mean_latency_slots"] == "NA"
        gheader, grows = read_csv(out / "global.csv")
        assert gheader[:5] == ["policy", "seed", "slots", "jain_weighted", "total_delivered"]
        assert "edge_0_util" in gheader
        assert grows[0]["total_delivered"] == "100"

    @pytest.mark.parametrize("apps", ["idle_poisson", "none"])
    def test_no_positive_weighted_rate_gives_na_jain(self, write_scenario, tmp_path, capsys, apps):
        data = scenario_dict(traffic="poisson", policy="FCFS")
        if apps == "none":
            data["apps"] = []
        else:  # two apps whose queues stay empty: arrival_rate 0
            data["apps"].append({**data["apps"][0], "id": 1, "arrival_rate": 0.0})
            assert "arrival_rate" not in data["apps"][0]  # its default, 0
        path = write_scenario(data)
        assert run(load_scenario(path)).jain_weighted is None
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--output-dir", str(out)]) == 0
        _, rows = read_csv(out / "global.csv")
        assert [r["jain_weighted"] for r in rows] == ["NA"]
        assert "jain(weighted)=NA total_delivered=0" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, write_scenario, tmp_path):
        data = scenario_dict(capacity_mode="stochastic", policy="DRR", slots=300)
        data["links"][0]["gen_success_prob"] = 0.7
        path = write_scenario(data)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run", "--config", path, "--output-dir", str(out), "--trace"]) == 0
        for name in ("per_app.csv", "global.csv", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_stochastic_outcome(self, write_scenario, tmp_path):
        data = scenario_dict(capacity_mode="stochastic", slots=200)
        data["links"][0]["gen_success_prob"] = 0.5
        path = write_scenario(data)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", path, "--output-dir", str(out1)]) == 0
        assert main(["run", "--config", path, "--output-dir", str(out2), "--seed", "123"]) == 0
        _, rows1 = read_csv(out1 / "per_app.csv")
        _, rows2 = read_csv(out2 / "per_app.csv")
        assert rows2[0]["seed"] == "123"
        assert rows1[0]["seed"] == "3"

    def test_policy_override_drr_equalizes_weighted_rates(self, write_scenario, tmp_path):
        # weighted single bottleneck: DRR equalizes weighted rates, RR
        # equalizes raw grants; both checked against the fluid oracle
        data = scenario_dict(policy="RR", slots=3000)
        data["links"][0]["capacity_max"] = 6
        data["apps"] = [
            {"id": i, "host": 0, "weight": float(w), "workers_needed": 1, "candidates": [1]}
            for i, w in enumerate((1, 2, 3))
        ]
        path = write_scenario(data)
        out_rr, out_drr = tmp_path / "rr", tmp_path / "drr"
        assert main(["run", "--config", path, "--output-dir", str(out_rr)]) == 0
        assert main(
            ["run", "--config", path, "--output-dir", str(out_drr), "--policy", "DRR"]
        ) == 0
        _, rr_rows = read_csv(out_rr / "per_app.csv")
        _, drr_rows = read_csv(out_drr / "per_app.csv")
        rr_grants = [float(r["grants"]) for r in rr_rows]
        assert max(rr_grants) - min(rr_grants) <= 1  # RR levels raw grants
        drr_weighted = [float(r["weighted_rate"]) for r in drr_rows]
        for w in drr_weighted:
            assert w == pytest.approx(1.0, rel=0.02)  # oracle: t = 6 / (1+2+3)

    def test_replications_tag_rows_with_derived_seeds(self, write_scenario, tmp_path):
        data = scenario_dict(capacity_mode="stochastic", replications=3, slots=50)
        data["links"][0]["gen_success_prob"] = 0.5
        path = write_scenario(data)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--output-dir", str(out)]) == 0
        _, rows = read_csv(out / "per_app.csv")
        assert len(rows) == 3
        assert len({r["seed"] for r in rows}) == 3

    def test_env_var_sets_default_output_dir(self, write_scenario, tmp_path, monkeypatch):
        path = write_scenario(scenario_dict())
        target = tmp_path / "envout"
        monkeypatch.setenv("QNETFAIR_OUTPUT_DIR", str(target))
        assert main(["run", "--config", path]) == 0
        assert (target / "per_app.csv").exists()

    def test_global_columns_follow_link_ids_not_file_order(self, write_scenario, tmp_path):
        # line 0-1-2-3 whose links, by id, have capacities 4, 2 and 1, listed
        # in the file as ids 2, 0, 1; the one app crosses all three, so the
        # utilisations 1/4, 1/2 and 1 tell the columns apart
        def link(i, capacity):
            return {"id": i, "endpoints": [i, i + 1], "capacity_max": capacity,
                    "gen_success_prob": 1.0, "fidelity": 1.0}

        data = scenario_dict(slots=20)
        data["nodes"] = [{"id": i, "kind": "computation"} for i in range(4)]
        data["links"] = [link(2, 1), link(0, 4), link(1, 2)]
        data["apps"][0]["candidates"] = [3]
        path = write_scenario(data)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--output-dir", str(out), "--trace"]) == 0

        metrics = run(load_scenario(path))
        header, rows = read_csv(out / "global.csv")
        assert header[5:] == ["edge_0_util", "edge_1_util", "edge_2_util"]
        cells = [rows[0][f"edge_{e}_util"] for e in range(3)]
        assert cells == [format(metrics.per_edge[e].utilization, ".6g") for e in range(3)]
        assert cells == ["0.25", "0.5", "1"]
        _, trace = read_csv(out / "trace.csv")
        edges = [(r["slot"], r["id"], r["sampled"]) for r in trace if r["kind"] == "edge"]
        by_id = [("0", "4"), ("1", "2"), ("2", "1")]
        assert edges == [(str(t), e, c) for t in range(20) for e, c in by_id]

    def test_failed_run_leaves_no_partial_files(self, write_scenario, tmp_path):
        # exhaustive source over a tiny limit fails before any write
        data = scenario_dict(assignment="exhaustive", exhaustive_limit=1)
        data["nodes"].append({"id": 2, "kind": "computation"})
        data["links"].append(
            {"id": 1, "endpoints": [0, 2], "capacity_max": 1, "gen_success_prob": 1.0, "fidelity": 1.0}
        )
        data["apps"][0]["candidates"] = [1, 2]
        path = write_scenario(data)
        out = tmp_path / "out" / "run"
        assert main(["run", "--config", path, "--output-dir", str(out), "--trace"]) == 2
        assert not (out / "per_app.csv").exists()
        assert not (out / "global.csv").exists()
        # trace.csv was opened before the run failed; it and the
        # directories made for it are gone
        assert not (out / "trace.csv").exists()
        assert list(tmp_path.iterdir()) == [Path(path)]

    @staticmethod
    def _files(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_a_failed_rerun_leaves_the_previous_outputs(self, write_scenario, tmp_path):
        # the rerun opens trace.csv, then its exhaustive search exceeds the
        # limit of 10: the first run's three files stay, byte for byte
        data = json.loads((ROOT / "tests" / "scenarios" / "pooled2.json").read_text())
        data["sim"].update(assignment="exhaustive", slots=20)
        argv = ["run", "--config", write_scenario(data), "--output-dir", str(tmp_path / "out")]
        assert main(argv + ["--trace"]) == 0
        before = self._files(tmp_path / "out")
        assert sorted(before) == ["global.csv", "per_app.csv", "trace.csv"]
        assert main(argv + ["--trace", "--limit", "10"]) == 2
        assert self._files(tmp_path / "out") == before

    def test_a_killed_rerun_leaves_the_previous_outputs(self, write_scenario, tmp_path):
        # the rerun is killed once its trace.csv, far from done, reaches the
        # disk under its temporary name; a later run writes over what it left
        out = tmp_path / "out"
        argv = ["run", "--config", write_scenario(scenario_dict()), "--output-dir", str(out)]
        assert main(argv + ["--trace"]) == 0
        before = self._files(out)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "qnetfair.cli", *argv, "--trace", "--slots", "10000000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            partial, deadline = out / "trace.csv.tmp", time.monotonic() + 60
            while not (partial.exists() and partial.stat().st_size):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -9
        assert self._files(out) == dict(before, **{"trace.csv.tmp": partial.read_bytes()})
        assert main(argv + ["--trace"]) == 0
        assert self._files(out) == before

    def test_failed_write_removes_written_csvs(self, write_scenario, tmp_path, capsys):
        # per_app.csv is written, then global.csv cannot be: a directory is in the way
        path = write_scenario(scenario_dict())
        out = tmp_path / "out"
        (out / "global.csv").mkdir(parents=True)
        assert main(["run", "--config", path, "--output-dir", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["global.csv"]
        assert "wrote" not in capsys.readouterr().out

    def test_failed_traced_write_removes_written_csvs(self, write_scenario, tmp_path, capsys):
        # trace.csv is written as the run goes and per_app.csv after it,
        # then global.csv cannot be: both are removed
        path = write_scenario(scenario_dict(slots=30))
        out = tmp_path / "out"
        (out / "global.csv").mkdir(parents=True)
        assert main(["run", "--config", path, "--output-dir", str(out), "--trace"]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["global.csv"]
        assert "wrote" not in capsys.readouterr().out

    def test_traced_run_reports_files_in_table_order(self, write_scenario, tmp_path, capsys):
        path = write_scenario(scenario_dict(slots=30))
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--output-dir", str(out), "--trace"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        names = ("per_app.csv", "global.csv", "trace.csv")
        assert last == "wrote " + ", ".join(str(out / n) for n in names)

    def test_traced_run_memory_does_not_grow_with_slots(self, tmp_path):
        # the trace is written slot by slot, so no ledger outlives its
        # slot; a kept ledger costs about 1 kB a slot here. What does grow
        # is the overloaded Poisson backlog, about 30 B a slot under WRR,
        # so the bound is on the growth per slot, not on the peaks' ratio
        config = str(ROOT / "scenarios" / "mesh_poisson.json")
        peaks = {}
        for slots in (500, 2000):
            argv = ["run", "--config", config, "--policy", "WRR", "--slots", str(slots),
                    "--trace", "--output-dir", str(tmp_path / str(slots))]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                peaks[slots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2000] - peaks[500] <= 100 * (2000 - 500), peaks

    def test_traced_run_memory_does_not_grow_with_distinct_rows(self, write_scenario,
                                                                 tmp_path, monkeypatch):
        # an app's two flows cross a link of 100 pairs to a repeater that
        # fails half its swaps, then one link each at the validation limit
        # of 1000 pairs; every link makes half its pairs. Most slots bring
        # edge and flow rows not seen before, while the first link keeps
        # the grants, and so the time under tracemalloc, small. Traffic is
        # backlogged, so no queue grows. The writer's row cache is cut to
        # 64 rows of each kind, which the short run overfills; at its own
        # size it would fill only after thousands of slots. Kept rows cost
        # over 100 B a slot here. A record of draws, 342 slots of 3 ints,
        # is the largest transient: both measured runs hold a whole one,
        # but where the run makes its own draws (one CPU) only the long run
        # makes a whole one after the cache is full, about 40 kB more
        monkeypatch.setattr(cli, "_TRACE_ROW_CACHE", 64)
        data = scenario_dict(capacity_mode="stochastic", policy="WRR")
        data["nodes"] = [{"id": 0, "kind": "computation"},
                         {"id": 1, "kind": "repeater", "swap_success_prob": 0.5},
                         {"id": 2, "kind": "computation"}, {"id": 3, "kind": "computation"}]
        data["links"] = [{"id": i, "endpoints": [min(1, i), i + 1],
                          "capacity_max": 1000 if i else 100, "gen_success_prob": 0.5,
                          "fidelity": 1.0} for i in range(3)]
        data["apps"][0].update(weight=1000.0, workers_needed=2, candidates=[2, 3])
        path = write_scenario(data)
        peaks = {}
        # the first run also pays what only a first run does
        for slots in (10, 400, 1600):
            argv = ["run", "--config", path, "--slots", str(slots), "--trace",
                    "--output-dir", str(tmp_path / str(slots))]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                peaks[slots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        rows = _distinct_rows((tmp_path / "400" / "trace.csv").read_text())
        assert min(map(len, rows.values())) > 64, {k: len(v) for k, v in rows.items()}
        assert peaks[1600] - peaks[400] <= 50 * (1600 - 400), peaks


def _distinct_rows(trace):
    """The distinct texts after ``seed,slot,`` of a trace's edge and flow rows."""
    rows = {"edge": set(), "flow": set()}
    for line in trace.splitlines():
        if not line.startswith("seed,"):
            _, _, kind, text = line.split(",", 3)
            rows[kind].add(text)
    return rows


def _reference_trace_writer(fh, links):
    """The trace writer as it read ledgers keyed by (app, worker): one edge
    row per link, then one flow row per granted key in sorted order. It is
    the oracle of cli._trace_writer, which reads flow indices."""
    edge_cells = [f"edge,{e}," for e in range(links)]

    def write(ledger):
        head = f"{ledger.seed},{ledger.slot},"
        lines = [
            f"{head}{cells}{sampled},{sampled - residual},NA,{residual}\n"
            for cells, sampled, residual in zip(edge_cells, ledger.sampled, ledger.residual)
        ]
        done = ledger.successes
        lines += [
            f"{head}flow,{app_id}-{worker},NA,{granted},{done.get((app_id, worker), 0)},NA\n"
            for (app_id, worker), granted in sorted(ledger.grants.items())
        ]
        fh.write("".join(lines))

    return write


TRACE_CASES = 64


def _trace_case(i, capacity=(1, 4), slots=30):
    """Generated scenario ``i`` of the trace writer comparison, of ``slots``
    slots on links whose capacity_max is drawn from the range ``capacity``.
    The policy cycles with ``i``; bits 2, 3 and 4 turn on Poisson traffic
    (always on under FCFS), random pools and 3 replications; capacity is
    stochastic unless ``i`` is a multiple of 3. Apps need 1 or 2 workers,
    and swaps fail one time in ten at every node."""
    rng = random.Random(i)
    policy = [Policy.RR, Policy.WRR, Policy.DRR, Policy.FCFS][i % 4]
    poisson = policy is Policy.FCFS or i >> 2 & 1
    stochastic = i % 3 != 0
    n = rng.randint(5, 9)
    graph = random_connected_graph(
        rng, n, rng.randint(1, 4), capacity, (0.5, 0.75, 1.0) if stochastic else (1.0,), swap_q=0.9
    )
    apps = []
    for a in range(rng.randint(2, 5)):
        host = rng.randrange(n)
        candidates = rng.sample([x for x in range(n) if x != host], rng.randint(2, 4))
        rate = round(rng.uniform(0.3, 2.0), 2) if poisson else 0.0
        weight = float(rng.randint(1, 3))
        apps.append(Application(a, host, weight, rng.randint(1, 2), frozenset(candidates),
                                arrival_rate=rate))
    config = SimConfig(
        slots=slots,
        seed=i,
        policy=policy,
        warmup_slots=rng.randint(0, 5),
        traffic=Traffic.POISSON if poisson else Traffic.BACKLOGGED,
        capacity_mode=CapacityMode.STOCHASTIC if stochastic else CapacityMode.DETERMINISTIC,
        assignment=AssignmentSource.RANDOM if i >> 3 & 1 else AssignmentSource.GREEDY,
        replications=3 if i >> 4 & 1 else 1,
    )
    return validate_scenario(graph, apps, config)


def _run_size(scenario):
    """The links of the scenario's network and the flows of each of its runs."""
    return len(scenario.graph.links), sum(a.workers_needed for a in scenario.apps)


def _traces(scenario, on_ledger=None):
    """trace.csv's rows from cli._trace_writer and from the reference, fed
    the same ledgers."""
    links, flows = _run_size(scenario)
    new, ref = io.StringIO(), io.StringIO()
    writers = [_trace_writer(new, links, flows), _reference_trace_writer(ref, links)]
    if on_ledger is not None:
        writers.append(on_ledger)

    def on_slot(ledger):
        for write in writers:
            write(ledger)

    replication_runs(scenario, on_slot=on_slot)
    return new.getvalue(), ref.getvalue()


class TestTraceWriterOracle:
    @pytest.mark.parametrize("i", range(TRACE_CASES))
    def test_rows_equal_the_reference(self, i):
        new, ref = _traces(_trace_case(i))
        assert ",flow," in ref
        assert new == ref

    def test_golden_random_pools_over_three_replications(self):
        scenario = load_scenario(str(ROOT / "tests" / "scenarios" / "net60_random.json"))
        new, ref = _traces(revalidated(scenario, slots=60, warmup_slots=0, replications=3))
        assert new == ref

    @pytest.mark.parametrize("i", [1, 2, 8, 25])
    def test_rows_equal_the_reference_past_a_full_cache(self, i, monkeypatch):
        # links of 500 to 1000 pairs a slot make more distinct rows of each
        # kind than a cache of 64 holds, so the writer evicts rows and
        # formats some of them again; case 25 has three replications
        monkeypatch.setattr(cli, "_TRACE_ROW_CACHE", 64)
        new, ref = _traces(_trace_case(i, capacity=(500, 1000), slots=100))
        assert new == ref
        rows = _distinct_rows(ref)
        assert min(map(len, rows.values())) > 64, {k: len(v) for k, v in rows.items()}

    def test_run_sizes_each_cache_to_twice_a_slot_of_rows(self, write_scenario, tmp_path,
                                                          monkeypatch):
        # 90 links and 24 flows, more than the cache floor cut to 32: a cache
        # of 32 edge rows would evict each row just before the next slot
        # needs it. Each link makes its capacity_max every slot, so the edge
        # rows of each slot are mostly the rows of the slot before
        monkeypatch.setattr(cli, "_TRACE_ROW_CACHE", 32)
        caches = []

        def recording_lru_cache(maxsize):
            def decorate(fn):
                caches.append(functools.lru_cache(maxsize)(fn))
                return caches[-1]
            return decorate

        monkeypatch.setattr(cli, "lru_cache", recording_lru_cache)
        doc = network_doc(3)
        doc["sim"].update(capacity_mode="deterministic", slots=60)
        for link in doc["links"]:
            link["gen_success_prob"] = 1.0
        path = write_scenario(doc)
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", path, "--trace", "--output-dir", str(out)]) == 0
        scenario = load_scenario(path)
        links, flows = _run_size(scenario)
        ref = io.StringIO(",".join(TRACE_COLUMNS) + "\n")
        ref.seek(0, io.SEEK_END)
        replication_runs(scenario, on_slot=_reference_trace_writer(ref, links))
        trace = (out / "trace.csv").read_text()
        assert trace == ref.getvalue()
        edge_row, flow_row = (cache.cache_info() for cache in caches)
        assert (links, flows) == (90, 24)
        assert (edge_row.maxsize, flow_row.maxsize) == (2 * links, 2 * flows)
        # no edge row is formatted twice
        assert edge_row.misses == len(_distinct_rows(trace)["edge"]) < edge_row.maxsize
        # a small run keeps the floor
        _trace_writer(io.StringIO(), 3, 2)
        assert [cache.cache_info().maxsize for cache in caches[2:]] == [32, 32]

    def test_one_writer_over_two_runs_writes_what_two_fresh_writers_do(self):
        # random pools under two seeds give the runs different flow tables;
        # the shared writer's cache still holds the first run's rows when
        # the second run starts
        scenario = _trace_case(8)
        links, flows = _run_size(scenario)
        shared, fresh, tables = io.StringIO(), [], []
        write = _trace_writer(shared, links, flows)
        for seed in (8, 9):
            fresh.append(io.StringIO())
            own = _trace_writer(fresh[-1], links, flows)

            def on_slot(ledger):
                write(ledger)
                own(ledger)
                if not tables or tables[-1] is not ledger.flows:
                    tables.append(ledger.flows)

            run(revalidated(scenario, seed=seed), on_slot=on_slot)
        assert len(tables) == 2 and set(tables[0]) != set(tables[1])
        assert shared.getvalue() == fresh[0].getvalue() + fresh[1].getvalue()

    def test_slots_without_rows_write_nothing(self, write_scenario, tmp_path):
        # a valid scenario of one node, no links and no apps
        data = scenario_dict(slots=3)
        data.update(nodes=data["nodes"][:1], links=[], apps=[])
        out = tmp_path / "out"
        assert main(["run", "--config", write_scenario(data), "--trace",
                     "--output-dir", str(out)]) == 0
        assert (out / "trace.csv").read_text() == ",".join(TRACE_COLUMNS) + "\n"

    def test_cases_reach_what_the_writer_must_get_right(self):
        # slots that grant flows out of index order or leave a flow out, and
        # runs of one scenario whose flow tables differ
        grant_order, gaps, tables = 0, 0, 0
        for i in range(TRACE_CASES):
            flows = []

            def watch(ledger):
                nonlocal grant_order, gaps
                granted = list(ledger.flow_grants)
                grant_order += granted != sorted(granted)
                gaps += bool(granted) and max(granted) >= len(granted)
                if not flows or flows[-1] is not ledger.flows:
                    flows.append(ledger.flows)

            _traces(_trace_case(i), watch)
            tables += len(set(flows)) > 1
        assert grant_order > 500 and gaps > 500 and tables >= 8, (grant_order, gaps, tables)


class TestAssignCommand:
    def _forced_choice(self, write_scenario):
        return write_scenario(scenario_dict())

    def test_all_solvers_agree_on_forced_choice(self, write_scenario, capsys):
        path = self._forced_choice(write_scenario)
        outputs = []
        for solver in ("greedy", "random", "exhaustive"):
            assert main(
                ["assign", "--config", path, "--solver", solver, "--format", "csv"]
            ) == 0
            out = capsys.readouterr().out
            outputs.append(out.strip().split("\n")[1])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_csv_format_schema(self, write_scenario, capsys):
        path = self._forced_choice(write_scenario)
        assert main(["assign", "--config", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "app_id,workers,rate,weighted_rate,min_weighted_rate,jain_weighted"
        assert lines[1].startswith("0,1,")

    def test_text_format_reports_summary(self, write_scenario, capsys):
        path = self._forced_choice(write_scenario)
        assert main(["assign", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "min_weighted_rate=" in out and "jain_weighted=" in out

    def test_oversized_exhaustive_reports_product_and_hint(self, write_scenario, capsys):
        data = scenario_dict()
        data["nodes"] += [{"id": 2, "kind": "computation"}, {"id": 3, "kind": "computation"}]
        data["links"] += [
            {"id": 1, "endpoints": [0, 2], "capacity_max": 1, "gen_success_prob": 1.0, "fidelity": 1.0},
            {"id": 2, "endpoints": [0, 3], "capacity_max": 1, "gen_success_prob": 1.0, "fidelity": 1.0},
        ]
        data["apps"][0]["candidates"] = [1, 2, 3]
        path = write_scenario(data)
        assert main(
            ["assign", "--config", path, "--solver", "exhaustive", "--limit", "2"]
        ) == 2
        err = capsys.readouterr().err
        assert "3 assignments" in err and "--limit" in err

    def test_empty_apps_report_na(self, write_scenario, capsys):
        data = scenario_dict()
        data["apps"] = []
        path = write_scenario(data)
        assert main(["assign", "--config", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["solver=greedy", "min_weighted_rate=NA jain_weighted=NA"]
        assert main(["assign", "--config", path, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "app_id,workers,rate,weighted_rate,min_weighted_rate,jain_weighted"
        ]


class TestAssignPrintsRunPools:
    """``assign --solver random`` prints the pools that a one-replication
    ``run`` of the same file uses: both draw them from one stream."""

    @pytest.mark.parametrize("source", ["net60_random", 0, 1, 2])
    def test_random_pools_are_the_runs(self, write_scenario, capsys, source):
        if isinstance(source, str):
            path = str(ROOT / "tests" / "scenarios" / f"{source}.json")
        else:
            path = write_scenario(network_doc(source, assignment="random"))
        scenario = load_scenario(path)
        assert scenario.config.assignment is AssignmentSource.RANDOM
        ledgers = []
        run(revalidated(scenario, slots=1, warmup_slots=0), on_slot=ledgers.append)
        pools = {}
        for app_id, worker in ledgers[0].flows:
            pools.setdefault(app_id, []).append(worker)
        assert main(["assign", "--config", path, "--solver", "random", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        printed = {int(r.split(",")[0]): [int(w) for w in r.split(",")[1].split(";")] for r in rows}
        assert printed == {a: sorted(ws) for a, ws in pools.items()}
        assert len(printed) == len(scenario.apps)


class TestSearchSpaceHint:
    """Each command's hint for an oversized exhaustive search names only
    flags that the command itself accepts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["assign", "--solver", "exhaustive"],
            ["sweep", "--param", "seed", "--values", "1,2"],
        ],
    )
    def test_hint_flags_parse_for_the_command(self, write_scenario, tmp_path, capsys, argv):
        data = scenario_dict(assignment="exhaustive", exhaustive_limit=2)
        data["nodes"] += [{"id": 2, "kind": "computation"}, {"id": 3, "kind": "computation"}]
        data["links"] += [
            {"id": 1, "endpoints": [0, 2], "capacity_max": 1, "gen_success_prob": 1.0, "fidelity": 1.0},
            {"id": 2, "endpoints": [0, 3], "capacity_max": 1, "gen_success_prob": 1.0, "fidelity": 1.0},
        ]
        data["apps"][0]["candidates"] = [1, 2, 3]
        argv = argv + ["--config", write_scenario(data)]
        if argv[0] != "assign":
            argv += ["--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "3 assignments" in err
        hint = err[err.rindex("(") + 1:err.rindex(")")]
        values = {"--limit": "3", "--solver": "greedy"}
        for flag in re.findall(r"--[a-z][a-z-]*", hint):
            build_parser().parse_args(argv + [flag, values.get(flag, "1")])
        if argv[0] != "assign":
            assert "sim.assignment" in hint


class TestSweepCommand:
    def test_over_long_value_is_echoed_as_length(self, write_scenario, tmp_path, capsys):
        # 5001 digits are over int()'s limit; echoed, they made a 5 kB line
        path = write_scenario(scenario_dict())
        assert main(
            ["sweep", "--config", path, "--param", "sim.seed", "--values", "1" + "0" * 5000,
             "--output-dir", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: sim.seed: expected integer value, got a value of 5003 characters"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "param, values, line",
        [
            ("apps.0.weight.x", "1", "error: unknown parameter path: 'apps.0.weight.x'"),
            # int() refuses an index of over 4300 digits; it must not be asked
            ("apps." + "9" * 5000 + ".weight", "1",
             "error: unknown parameter path: a value of 5014 characters"),
            ("x" * 5000, "1", "error: unknown parameter path: a value of 5002 characters"),
            ("apps.0.candidates", "1", "error: apps.0.candidates: not a sweepable numeric field"),
            ("seed", ",", "error: no sweep values given"),
        ],
        ids=["path_too_long", "index_past_int_limit", "long_path", "id_list", "no_values"],
    )
    def test_usage_error_line(self, write_scenario, tmp_path, capsys, param, values, line):
        path = write_scenario(scenario_dict())
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", path, "--param", param, "--values", values,
             "--output-dir", str(out)]
        ) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", [line])
        assert not out.exists()

    def test_policy_sweep_produces_row_groups(self, write_scenario, tmp_path):
        data = scenario_dict(traffic="poisson", policy="FCFS", slots=80)
        data["apps"][0]["arrival_rate"] = 0.5
        path = write_scenario(data)
        out = tmp_path / "out"
        assert main(
            [
                "sweep",
                "--config",
                path,
                "--param",
                "policy",
                "--values",
                "FCFS,RR,WRR,DRR",
                "--output-dir",
                str(out),
            ]
        ) == 0
        _, rows = read_csv(out / "sweep_per_app.csv")
        assert [r["sweep_value"] for r in rows] == ["FCFS", "RR", "WRR", "DRR"]

    def test_seed_sweep_varies_stochastic_metrics_only(self, write_scenario, tmp_path):
        data = scenario_dict(capacity_mode="stochastic", slots=150)
        data["links"][0]["gen_success_prob"] = 0.5
        path = write_scenario(data)
        out = tmp_path / "out"
        values = ",".join(str(s) for s in range(10))
        assert main(
            ["sweep", "--config", path, "--param", "seed", "--values", values,
             "--output-dir", str(out)]
        ) == 0
        _, rows = read_csv(out / "sweep_per_app.csv")
        assert len(rows) == 10
        assert len({r["sweep_value"] for r in rows}) == 10
        delivered = {r["delivered"] for r in rows}
        assert len(delivered) > 1  # stochastic metric varies
        assert {r["slots"] for r in rows} == {"150"}  # deterministic field constant

    def test_weight_sweep_grows_rate_keeps_jain_near_one(self, write_scenario, tmp_path):
        # DRR single bottleneck, weights (w0, 1, 1): the fluid oracle gives
        # app 0 the rate 6*w0/(w0+2), increasing in w0, with weighted rates
        # equal across apps (Jain stays at 1)
        data = scenario_dict(policy="DRR", slots=2000)
        data["links"][0]["capacity_max"] = 6
        data["apps"] = [
            {"id": i, "host": 0, "weight": 1.0, "workers_needed": 1, "candidates": [1]}
            for i in range(3)
        ]
        path = write_scenario(data)
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", path, "--param", "apps.0.weight",
             "--values", "1,2,4", "--output-dir", str(out)]
        ) == 0
        _, rows = read_csv(out / "sweep_per_app.csv")
        app0 = [r for r in rows if r["app_id"] == "0"]
        rates = [float(r["rate_per_slot"]) for r in app0]
        oracle = [6 * w / (w + 2) for w in (1.0, 2.0, 4.0)]
        for got, want in zip(rates, oracle):
            assert got == pytest.approx(want, rel=0.02)
        assert rates[0] < rates[1] < rates[2]
        _, grows = read_csv(out / "sweep_global.csv")
        for r in grows:
            assert float(r["jain_weighted"]) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize(
        "param,values,override",
        [
            ("policy", "FCFS,RR", ["--policy", "DRR"]),
            ("seed", "1,2", ["--seed", "7"]),
            ("sim.slots", "50,60", ["--slots", "40"]),
        ],
    )
    def test_override_of_swept_field_rejected(
        self, write_scenario, tmp_path, capsys, param, values, override
    ):
        data = scenario_dict(traffic="poisson", policy="FCFS", slots=80)
        data["apps"][0]["arrival_rate"] = 0.5
        path = write_scenario(data)
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", path, "--param", param, "--values", values,
             "--output-dir", str(out), *override]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{override[0]} conflicts with --param {param}" in captured.err
        assert not out.exists()

    def test_unknown_parameter_path_exits_two(self, write_scenario, tmp_path, capsys):
        path = write_scenario(scenario_dict())
        assert main(
            ["sweep", "--config", path, "--param", "apps.0.nope", "--values", "1,2",
             "--output-dir", str(tmp_path)]
        ) == 2
        assert "unknown parameter path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "param,values,tags",
        [
            ("apps.0.weight", "1,1.5", ["1", "1.5"]),
            ("links.0.gen_success_prob", "1,0.5", ["1", "0.5"]),
        ],
    )
    def test_real_field_written_as_integer_takes_real_values(
        self, write_scenario, tmp_path, param, values, tags
    ):
        data = scenario_dict(capacity_mode="stochastic")
        data["apps"][0]["weight"] = 1
        data["links"][0]["gen_success_prob"] = 1
        path = write_scenario(data)
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", path, "--param", param, "--values", values,
             "--output-dir", str(out)]
        ) == 0
        _, rows = read_csv(out / "sweep_per_app.csv")
        assert [r["sweep_value"] for r in rows] == tags

    @pytest.mark.parametrize(
        "param,values,n_rows",
        [
            ("sim.exhaustive_limit", "10,100", 2),
            ("sim.replications", "1,2", 3),
            ("sim.traffic", "backlogged,poisson", 2),
            ("apps.0.min_fidelity", "0.25,0.5", 2),
        ],
    )
    def test_omitted_sim_key_can_be_swept(self, write_scenario, tmp_path, param, values, n_rows):
        data = scenario_dict()
        data["sim"].pop("replications")
        data["sim"].pop("traffic")
        assert "min_fidelity" not in data["apps"][0]
        path = write_scenario(data)
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", path, "--param", param, "--values", values,
             "--output-dir", str(out)]
        ) == 0
        _, rows = read_csv(out / "sweep_per_app.csv")
        assert len(rows) == n_rows
        assert {r["sweep_value"] for r in rows} == set(values.split(","))

    def test_integer_field_rejects_fraction(self, write_scenario, tmp_path, capsys):
        path = write_scenario(scenario_dict())
        assert main(
            ["sweep", "--config", path, "--param", "links.0.capacity_max",
             "--values", "1,1.5", "--output-dir", str(tmp_path / "out")]
        ) == 2
        assert "links.0.capacity_max: expected integer value, got '1.5'" in capsys.readouterr().err

    @UNREADABLE
    def test_non_utf8_file_exits_one_with_parse_error(self, tmp_path, capsys, content, err):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        assert main(
            ["sweep", "--config", str(path), "--param", "seed", "--values", "1",
             "--output-dir", str(tmp_path / "out")]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [err]
        assert not (tmp_path / "out").exists()

    def test_failed_write_removes_written_csvs(self, write_scenario, tmp_path, capsys):
        # sweep_per_app.csv is written, then sweep_global.csv cannot be
        path = write_scenario(scenario_dict())
        out = tmp_path / "out"
        (out / "sweep_global.csv").mkdir(parents=True)
        assert main(
            ["sweep", "--config", path, "--param", "seed", "--values", "1,2",
             "--output-dir", str(out)]
        ) == 1
        assert sorted(p.name for p in out.iterdir()) == ["sweep_global.csv"]
        assert "wrote" not in capsys.readouterr().out
