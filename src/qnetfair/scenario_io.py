"""Strict JSON scenario ingestion.

The schema rejects unknown keys at every level so a typo cannot silently
alter an experiment. Shape and type problems raise SchemaError with one
diagnostic per issue; semantic range checks live in ``validate``.

Top-level sections::

    nodes[]  id, kind ("repeater"|"computation"), swap_success_prob?
    links[]  id, endpoints [u, v], capacity_max, gen_success_prob?, fidelity?
    apps[]   id, host, weight, workers_needed, candidates,
             min_fidelity?, arrival_rate?, workers? (used when sim.assignment = "given")
    sim      slots, seed, policy, warmup?, traffic?, capacity_mode?,
             cost_mode?, quantum_base?, assignment?, exhaustive_limit?, replications?
"""
from __future__ import annotations

import json
from typing import Any, Optional, Sequence

from .model import (
    Application,
    AssignmentSource,
    CapacityMode,
    CostMode,
    NetworkGraph,
    Node,
    NodeKind,
    Policy,
    QuantumLink,
    Scenario,
    SimConfig,
    Traffic,
)
from .validate import validate_scenario

_TOP_KEYS = {"nodes", "links", "apps", "sim"}
_NODE_KEYS = {"id", "kind", "swap_success_prob"}
_LINK_KEYS = {"id", "endpoints", "capacity_max", "gen_success_prob", "fidelity"}
_APP_KEYS = {
    "id",
    "host",
    "weight",
    "workers_needed",
    "candidates",
    "min_fidelity",
    "arrival_rate",
    "workers",
}
_SIM_KEYS = {
    "slots",
    "warmup",
    "seed",
    "traffic",
    "capacity_mode",
    "policy",
    "cost_mode",
    "quantum_base",
    "assignment",
    "exhaustive_limit",
    "replications",
}

# The schema's integer-valued keys; every other number it reads is a
# real. ``sweep`` parses a swept value by the same set.
INT_KEYS = frozenset({
    "id", "host", "workers_needed", "capacity_max",
    "slots", "warmup", "seed", "quantum_base", "exhaustive_limit", "replications",
})

_MISSING = object()


class SchemaError(Exception):
    def __init__(self, diagnostics: Sequence[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class _Reader:
    def __init__(self) -> None:
        self.diags: list[str] = []

    def reject_unknown(self, obj: dict, allowed: set[str], path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.diags.append(f"{path}.{key}: unknown key")

    def lookup(self, obj: dict, key: str, path: str, default: Any) -> Any:
        """``obj[key]``, or ``default`` when the key is absent; the getters
        check a default as they check a given value. An absent key without
        a default is reported and reads as _MISSING."""
        value = obj.get(key, default)
        if value is _MISSING:
            self.diags.append(f"{path}.{key}: missing required key")
        return value

    def get_number(self, obj: dict, key: str, path: str, default: Any = _MISSING) -> Any:
        """An int for the keys in INT_KEYS, a float for every other key."""
        if key in INT_KEYS:
            kind, accepted, cast = "integer", int, int
        else:
            kind, accepted, cast = "number", (int, float), float
        value = self.lookup(obj, key, path, default)
        if value is _MISSING:
            return cast(0)
        if isinstance(value, bool) or not isinstance(value, accepted):
            self.diags.append(f"{path}.{key}: expected {kind}, got {value!r}")
            return cast(0)
        return cast(value)

    def get_enum(self, obj: dict, key: str, path: str, enum, default: Any = _MISSING):
        value = self.lookup(obj, key, path, default)
        if value is _MISSING:
            return None
        try:
            return enum(value)
        except ValueError:
            valid = ", ".join(repr(e.value) for e in enum)
            self.diags.append(f"{path}.{key}: expected one of {valid}, got {value!r}")
            return None

    def get_id_list(self, obj: dict, key: str, path: str):
        value = self.lookup(obj, key, path, _MISSING)
        if value is _MISSING:
            return []
        if not isinstance(value, list):
            self.diags.append(f"{path}.{key}: expected list of node ids, got {value!r}")
            return []
        ids = []
        for j, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, int):
                self.diags.append(f"{path}.{key}[{j}]: expected integer, got {item!r}")
                continue
            ids.append(item)
        if len(set(ids)) != len(ids):
            self.diags.append(f"{path}.{key}: duplicate entries")
        return ids


def parse_scenario(
    data: Any,
) -> tuple[NetworkGraph, tuple[Application, ...], SimConfig, Optional[dict[int, frozenset[int]]]]:
    """Parse a raw scenario document; raises SchemaError on shape/type issues."""
    r = _Reader()
    if not isinstance(data, dict):
        raise SchemaError(["scenario: expected a JSON object at top level"])
    r.reject_unknown(data, _TOP_KEYS, "scenario")
    for section in ("nodes", "links", "apps"):
        if section not in data:
            r.diags.append(f"scenario.{section}: missing required section")
        elif not isinstance(data[section], list):
            r.diags.append(f"scenario.{section}: expected a list")
    if "sim" not in data:
        r.diags.append("scenario.sim: missing required section")
    elif not isinstance(data["sim"], dict):
        r.diags.append("scenario.sim: expected an object")
    if r.diags:
        raise SchemaError(r.diags)

    nodes = []
    for i, raw in enumerate(data["nodes"]):
        path = f"nodes[{i}]"
        if not isinstance(raw, dict):
            r.diags.append(f"{path}: expected an object")
            continue
        r.reject_unknown(raw, _NODE_KEYS, path)
        nodes.append(
            Node(
                id=r.get_number(raw, "id", path),
                kind=r.get_enum(raw, "kind", path, NodeKind) or NodeKind.COMPUTATION,
                swap_success_prob=r.get_number(raw, "swap_success_prob", path, 1.0),
            )
        )

    links = []
    for i, raw in enumerate(data["links"]):
        path = f"links[{i}]"
        if not isinstance(raw, dict):
            r.diags.append(f"{path}: expected an object")
            continue
        r.reject_unknown(raw, _LINK_KEYS, path)
        endpoints = raw.get("endpoints")
        if (
            not isinstance(endpoints, list)
            or len(endpoints) != 2
            or any(isinstance(e, bool) or not isinstance(e, int) for e in endpoints)
        ):
            r.diags.append(f"{path}.endpoints: expected a pair of node ids, got {endpoints!r}")
            endpoints = [0, 0]
        links.append(
            QuantumLink(
                id=r.get_number(raw, "id", path),
                endpoints=(endpoints[0], endpoints[1]),
                capacity_max=r.get_number(raw, "capacity_max", path),
                gen_success_prob=r.get_number(raw, "gen_success_prob", path, 1.0),
                fidelity=r.get_number(raw, "fidelity", path, 1.0),
            )
        )

    apps = []
    given: dict[int, frozenset[int]] = {}
    for i, raw in enumerate(data["apps"]):
        path = f"apps[{i}]"
        if not isinstance(raw, dict):
            r.diags.append(f"{path}: expected an object")
            continue
        r.reject_unknown(raw, _APP_KEYS, path)
        app = Application(
            id=r.get_number(raw, "id", path),
            host=r.get_number(raw, "host", path),
            weight=r.get_number(raw, "weight", path),
            workers_needed=r.get_number(raw, "workers_needed", path),
            candidates=frozenset(r.get_id_list(raw, "candidates", path)),
            min_fidelity=r.get_number(raw, "min_fidelity", path, 0.25),
            arrival_rate=r.get_number(raw, "arrival_rate", path, 0.0),
        )
        apps.append(app)
        if "workers" in raw:
            given[app.id] = frozenset(r.get_id_list(raw, "workers", path))

    sim = data["sim"]
    r.reject_unknown(sim, _SIM_KEYS, "sim")
    config = SimConfig(
        slots=r.get_number(sim, "slots", "sim"),
        seed=r.get_number(sim, "seed", "sim"),
        policy=r.get_enum(sim, "policy", "sim", Policy) or Policy.RR,
        warmup_slots=r.get_number(sim, "warmup", "sim", 0),
        traffic=r.get_enum(sim, "traffic", "sim", Traffic, Traffic.BACKLOGGED),
        capacity_mode=r.get_enum(
            sim, "capacity_mode", "sim", CapacityMode, CapacityMode.STOCHASTIC
        ),
        cost_mode=r.get_enum(sim, "cost_mode", "sim", CostMode, CostMode.UNIT),
        quantum_base=r.get_number(sim, "quantum_base", "sim", 1),
        assignment=r.get_enum(
            sim, "assignment", "sim", AssignmentSource, AssignmentSource.GREEDY
        ),
        exhaustive_limit=r.get_number(sim, "exhaustive_limit", "sim", 1_000_000),
        replications=r.get_number(sim, "replications", "sim", 1),
    )

    if r.diags:
        raise SchemaError(r.diags)
    return NetworkGraph(nodes, links), tuple(apps), config, (given or None)


def load_scenario_file(path: str):
    """Read and parse a scenario file without validating semantics.

    Raises OSError on I/O problems and json.JSONDecodeError (which carries
    line/column) on malformed syntax.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_scenario(data)


def load_scenario(path: str) -> Scenario:
    """Read, parse and fully validate a scenario file."""
    graph, apps, config, given = load_scenario_file(path)
    return validate_scenario(graph, apps, config, given)
