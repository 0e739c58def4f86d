"""Workload inputs for the benchmark: one scenario document per workload.

Every input derives from the benchmark's ``--seed`` through a private
``random.Random``, so the same seed always yields the same scenario file.
The program under test only ever sees the written JSON file.

The generated graphs come from a fixed generator key, because a fresh graph
per seed changed the work per command by 10-25% from seed to seed, more
than the bounds of BENCHMARK.json allow:

* the mesh workloads and ``net500-drr`` set ``sim.seed`` to the seed, which
  drives every capacity, arrival and swap-success draw;
* ``exhaustive-30`` has no random draws, so the seed permutes the node and
  link ids instead: every seed enumerates an isomorphic instance with the
  same work but different ids, path tie-breaks and output bytes.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "assign"
    trace_csv: bool  # pass --trace to `qnetfair run`


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mesh-fcfs", "run", False),
        Workload("net500-drr", "run", False),
        Workload("exhaustive-30", "assign", False),
        Workload("mesh-wrr-trace", "run", True),
    )
}

# Sizes of the full benchmark and of the reduced self-test (``--quick``).
MESH_FCFS_SLOTS = {False: 2000, True: 200}
MESH_WRR_SLOTS = {False: 10000, True: 500}
NET_PARAMS = {
    False: dict(nodes=500, links=750, computation=125, apps=100, candidates=4, workers=2,
                slots=500, warmup=50),
    True: dict(nodes=60, links=90, computation=15, apps=12, candidates=4, workers=2,
               slots=60, warmup=10),
}
EXH_PARAMS = {
    False: dict(nodes=30, links=45, computation=12, apps=3, candidates=7, workers=2),
    True: dict(nodes=12, links=18, computation=7, apps=2, candidates=4, workers=2),
}


def _mesh(root: Path, seed: int, policy: str, slots: int) -> dict:
    with open(root / "scenarios" / "mesh_poisson.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["sim"].update(seed=seed, policy=policy, slots=slots, warmup=min(200, slots // 10))
    return doc


# Attribute draws of generated graphs, recorded beside every result.
GRAPH_ATTRS = dict(
    capacity_max=[2, 4],
    gen_success_prob=[0.5, 0.75, 0.9, 1.0],
    fidelity=[0.98, 0.99, 1.0],
    repeater_swap_success_prob=[0.9, 0.95, 0.99],
    app_weight=[1, 1, 2, 3],
)


def _random_graph(
    rng: random.Random, n_nodes: int, n_links: int, n_computation: int
) -> tuple[list[dict], list[dict], list[int]]:
    """Connected graph: a random recursive tree plus distinct chords.

    ``n_computation`` randomly chosen nodes are computation nodes (hosts
    and worker candidates); the rest are lossy repeaters.
    """
    computation = sorted(rng.sample(range(n_nodes), n_computation))
    comp_set = set(computation)
    nodes = [
        {
            "id": i,
            "kind": "computation" if i in comp_set else "repeater",
            "swap_success_prob": (
                1.0 if i in comp_set else rng.choice(GRAPH_ATTRS["repeater_swap_success_prob"])
            ),
        }
        for i in range(n_nodes)
    ]
    pairs: list[tuple[int, int]] = [(rng.randrange(v), v) for v in range(1, n_nodes)]
    seen = set(pairs)
    while len(pairs) < n_links:
        u, v = sorted(rng.sample(range(n_nodes), 2))
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    links = [
        {
            "id": i,
            "endpoints": [u, v],
            "capacity_max": rng.randint(*GRAPH_ATTRS["capacity_max"]),
            "gen_success_prob": rng.choice(GRAPH_ATTRS["gen_success_prob"]),
            "fidelity": rng.choice(GRAPH_ATTRS["fidelity"]),
        }
        for i, (u, v) in enumerate(pairs)
    ]
    return nodes, links, computation


def _random_apps(
    rng: random.Random, computation: list[int], n_apps: int, n_candidates: int, workers: int
) -> list[dict]:
    apps = []
    for i in range(n_apps):
        host = rng.choice(computation)
        others = [c for c in computation if c != host]
        apps.append(
            {
                "id": i,
                "host": host,
                "weight": float(rng.choice(GRAPH_ATTRS["app_weight"])),
                "workers_needed": workers,
                "candidates": sorted(rng.sample(others, n_candidates)),
            }
        )
    return apps


def _relabel(doc: dict, rng: random.Random) -> dict:
    """Isomorphic copy of a scenario with node and link ids permuted."""
    node_map = list(range(len(doc["nodes"])))
    link_map = list(range(len(doc["links"])))
    rng.shuffle(node_map)
    rng.shuffle(link_map)
    nodes = sorted(({**n, "id": node_map[n["id"]]} for n in doc["nodes"]), key=lambda n: n["id"])
    links = sorted(
        ({**l, "id": link_map[l["id"]], "endpoints": [node_map[x] for x in l["endpoints"]]}
         for l in doc["links"]),
        key=lambda l: l["id"],
    )
    apps = [
        {**a, "host": node_map[a["host"]],
         "candidates": sorted(node_map[c] for c in a["candidates"])}
        for a in doc["apps"]
    ]
    return {**doc, "nodes": nodes, "links": links, "apps": apps}


def _net_drr(seed: int, quick: bool) -> tuple[dict, dict]:
    p = NET_PARAMS[quick]
    rng = random.Random("net500-drr")
    nodes, links, comp = _random_graph(rng, p["nodes"], p["links"], p["computation"])
    apps = _random_apps(rng, comp, p["apps"], p["candidates"], p["workers"])
    sim = {
        "slots": p["slots"],
        "warmup": p["warmup"],
        "seed": seed,
        "policy": "DRR",
        "traffic": "backlogged",
        "capacity_mode": "stochastic",
        "assignment": "greedy",
    }
    doc = {"nodes": nodes, "links": links, "apps": apps, "sim": sim}
    return doc, dict(p, **GRAPH_ATTRS)


def _exhaustive(seed: int, quick: bool) -> tuple[dict, dict]:
    p = EXH_PARAMS[quick]
    rng = random.Random("exhaustive-30")
    nodes, links, comp = _random_graph(rng, p["nodes"], p["links"], p["computation"])
    apps = _random_apps(rng, comp, p["apps"], p["candidates"], p["workers"])
    sim = {"slots": 100, "seed": seed, "policy": "DRR", "exhaustive_limit": 1_000_000}
    doc = _relabel({"nodes": nodes, "links": links, "apps": apps, "sim": sim},
                   random.Random(f"exhaustive-30:{seed}"))
    params = dict(p, **GRAPH_ATTRS, search_space=comb(p["candidates"], p["workers"]) ** p["apps"])
    return doc, params


def build(name: str, root: Path, seed: int, quick: bool) -> tuple[dict, dict]:
    """Scenario document and generator parameters of one workload."""
    if name == "mesh-fcfs":
        slots = MESH_FCFS_SLOTS[quick]
        return _mesh(root, seed, "FCFS", slots), {"file": "scenarios/mesh_poisson.json",
                                                  "policy": "FCFS", "slots": slots}
    if name == "mesh-wrr-trace":
        slots = MESH_WRR_SLOTS[quick]
        return _mesh(root, seed, "WRR", slots), {"file": "scenarios/mesh_poisson.json",
                                                 "policy": "WRR", "slots": slots}
    if name == "net500-drr":
        return _net_drr(seed, quick)
    if name == "exhaustive-30":
        return _exhaustive(seed, quick)
    raise KeyError(name)


def command_argv(w: Workload, config: Path, out_dir: Path) -> list[str]:
    """Arguments to ``qnetfair.cli.main`` for one execution of the workload."""
    if w.command == "assign":
        return ["assign", "--config", str(config), "--solver", "exhaustive", "--format", "csv"]
    argv = ["run", "--config", str(config), "--output-dir", str(out_dir)]
    return argv + ["--trace"] if w.trace_csv else argv


def work_units(w: Workload, params: dict) -> int:
    """Simulated slots of a run command, or enumerated assignments of assign."""
    return params["search_space"] if w.command == "assign" else params["slots"]

