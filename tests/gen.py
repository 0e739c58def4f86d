"""Seeded random instance generators shared by the test suite."""
from __future__ import annotations

import random

from qnetfair import Application, NetworkGraph, Node, NodeKind, QuantumLink


def random_connected_graph(
    rng: random.Random,
    n_nodes: int,
    extra_edges: int = 1,
    cap_range: tuple[int, int] = (1, 3),
    pgen_choices: tuple[float, ...] = (0.5, 1.0),
    fidelity: float = 1.0,
    swap_q: float = 1.0,
) -> NetworkGraph:
    nodes = [Node(i, NodeKind.COMPUTATION, swap_q) for i in range(n_nodes)]
    links = []
    pairs = set()
    eid = 0
    for v in range(1, n_nodes):
        u = rng.randrange(v)
        pairs.add((u, v))
        links.append(
            QuantumLink(eid, (u, v), rng.randint(*cap_range), rng.choice(pgen_choices), fidelity)
        )
        eid += 1
    for _ in range(extra_edges):
        u, v = rng.sample(range(n_nodes), 2)
        key = (min(u, v), max(u, v))
        if key in pairs:
            continue
        pairs.add(key)
        links.append(
            QuantumLink(eid, key, rng.randint(*cap_range), rng.choice(pgen_choices), fidelity)
        )
        eid += 1
    return NetworkGraph(nodes, links)


def random_assignment_instance(rng: random.Random, n_apps: int | None = None):
    """Small contended instance where every candidate is eligible and the
    exhaustive search space stays tiny; 2 or 3 apps unless ``n_apps``."""
    n = rng.randint(4, 7)
    graph = random_connected_graph(rng, n, extra_edges=rng.randint(0, 2))
    if n_apps is None:
        n_apps = rng.randint(2, 3)
    apps = []
    for i in range(n_apps):
        host = rng.randrange(n)
        others = [x for x in range(n) if x != host]
        k = rng.randint(2, min(3, len(others)))
        candidates = rng.sample(others, k)
        apps.append(
            Application(
                id=i,
                host=host,
                weight=float(rng.choice([1.0, 1.0, 2.0])),
                workers_needed=1,
                candidates=frozenset(candidates),
            )
        )
    return graph, apps


def random_maxmin_instance(rng: random.Random):
    """Abstract fluid instance: up to 6 edges, up to 5 flows, random weights."""
    n_edges = rng.randint(1, 6)
    capacities = {e: rng.uniform(0.5, 4.0) for e in range(n_edges)}
    n_flows = rng.randint(1, 5)
    flow_edges = {}
    weights = {}
    for f in range(n_flows):
        k = rng.randint(1, n_edges)
        flow_edges[f] = tuple(rng.sample(range(n_edges), k))
        weights[f] = rng.uniform(0.5, 3.0)
    return flow_edges, capacities, weights


def dumbbell_instance(rng: random.Random):
    """Two well-provisioned clusters joined by a thin bridge, with worker
    candidates on both sides, so spreading load off the bridge is decisive."""
    a = rng.randint(2, 3)
    b = rng.randint(2, 3)
    n = a + b
    nodes = [Node(i, NodeKind.COMPUTATION, 1.0) for i in range(n)]
    links: list[QuantumLink] = []
    pairs = set()

    def add(u: int, v: int, cap: int) -> None:
        key = (min(u, v), max(u, v))
        if key in pairs:
            return
        pairs.add(key)
        links.append(QuantumLink(len(links), key, cap, 1.0, 1.0))

    for v in range(1, a):
        add(rng.randrange(v), v, rng.randint(3, 4))
    for v in range(a + 1, n):
        add(rng.randrange(a, v), v, rng.randint(3, 4))
    if a == 3 and rng.random() < 0.5:
        add(0, 2, rng.randint(3, 4))
    if b == 3 and rng.random() < 0.5:
        add(a, a + 2, rng.randint(3, 4))
    add(rng.randrange(a), rng.randrange(a, n), rng.randint(1, 2))  # bridge

    graph = NetworkGraph(nodes, links)
    apps = []
    for i in range(rng.randint(2, 3)):
        host = rng.randrange(a)
        near = [x for x in range(a) if x != host]
        far = list(range(a, n))
        cands = [rng.choice(near)] if near else []
        cands += rng.sample(far, rng.randint(1, min(2, len(far))))
        apps.append(
            Application(
                id=i,
                host=host,
                weight=float(rng.choice([1.0, 2.0])),
                workers_needed=1,
                candidates=frozenset(cands),
            )
        )
    return graph, apps


def pooled_instance(rng: random.Random):
    """The exhaustive benchmark's shape with ids relabeled: 30 nodes and 45
    links (a random recursive tree plus distinct chords), 12 computation
    nodes and lossy repeaters elsewhere, node and link ids shuffled; 3 apps
    each need 2 of 7 computation candidates, so 21**3 = 9261 assignments."""
    label = list(range(30))
    rng.shuffle(label)
    computation = set(rng.sample(range(30), 12))
    nodes = sorted(
        (
            Node(label[i], NodeKind.COMPUTATION, 1.0)
            if i in computation
            else Node(label[i], NodeKind.REPEATER, rng.choice([0.9, 0.95, 0.99]))
            for i in range(30)
        ),
        key=lambda n: n.id,
    )
    pairs = [(rng.randrange(v), v) for v in range(1, 30)]
    seen = set(pairs)
    while len(pairs) < 45:
        u, v = sorted(rng.sample(range(30), 2))
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    link_ids = list(range(45))
    rng.shuffle(link_ids)
    links = sorted(
        (
            QuantumLink(
                link_ids[i],
                (label[u], label[v]),
                rng.randint(2, 4),
                rng.choice([0.5, 0.75, 0.9, 1.0]),
                rng.choice([0.98, 0.99, 1.0]),
            )
            for i, (u, v) in enumerate(pairs)
        ),
        key=lambda link: link.id,
    )
    hosts = sorted(label[i] for i in computation)
    apps = []
    for i in range(3):
        host = rng.choice(hosts)
        cands = rng.sample([c for c in hosts if c != host], 7)
        apps.append(Application(i, host, float(rng.choice([1, 1, 2, 3])), 2, frozenset(cands)))
    return NetworkGraph(nodes, links), apps


def many_app_instance():
    """1000 apps with exactly one pool each, plus one app choosing 2 of 7
    workers (21 pools): a star of 40 computation leaves around hub 0, so
    every flow crosses two spokes. App i is hosted on a leaf and needs both
    of its two candidates, the next two leaves round the star."""
    nodes = [Node(i, NodeKind.COMPUTATION) for i in range(41)]
    links = [QuantumLink(i - 1, (0, i), 2 + i % 3, 1.0, 1.0) for i in range(1, 41)]

    def leaf(k: int) -> int:
        return 1 + k % 40

    apps = [
        Application(i, leaf(i), float(1 + i % 3), 2, frozenset({leaf(i + 1), leaf(i + 2)}))
        for i in range(1000)
    ]
    apps.append(Application(1000, leaf(0), 1.0, 2, frozenset(map(leaf, range(1, 8)))))
    return NetworkGraph(nodes, links), apps


def network_doc(
    seed: int, cost_mode: str = "unit", traffic: str = "backlogged", assignment: str = "greedy"
) -> dict:
    """Scenario document of a generated multi-hop network for the golden
    cases: 60 nodes and 90 links (a random recursive tree plus distinct
    chords), 15 computation nodes and lossy repeaters elsewhere, links of
    capacity 2..4 with generation probabilities below 1, and 12 apps of
    integer weight, each needing 2 of 4 candidate workers. The graph and the
    apps depend on ``seed`` only; Poisson traffic adds arrival rates from
    0.2 to 2.5 requests per slot, so some queues drain and rejoin. The
    "given" assignment draws each app's two workers after everything else,
    so the network is the same under every assignment source."""
    rng = random.Random(seed)
    computation = set(rng.sample(range(60), 15))
    nodes = [
        {
            "id": i,
            "kind": "computation" if i in computation else "repeater",
            "swap_success_prob": 1.0 if i in computation else rng.choice([0.9, 0.95, 0.99]),
        }
        for i in range(60)
    ]
    pairs = [(rng.randrange(v), v) for v in range(1, 60)]
    seen = set(pairs)
    while len(pairs) < 90:
        u, v = sorted(rng.sample(range(60), 2))
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    links = [
        {
            "id": i,
            "endpoints": [u, v],
            "capacity_max": rng.randint(2, 4),
            "gen_success_prob": rng.choice([0.5, 0.75, 0.9]),
            "fidelity": rng.choice([0.98, 0.99, 1.0]),
        }
        for i, (u, v) in enumerate(pairs)
    ]
    hosts = sorted(computation)
    apps = []
    for i in range(12):
        host = rng.choice(hosts)
        app = {
            "id": i,
            "host": host,
            "weight": float(rng.choice([1, 1, 2, 3])),
            "workers_needed": 2,
            "candidates": sorted(rng.sample([c for c in hosts if c != host], 4)),
        }
        rate = round(rng.uniform(0.2, 2.5), 2)
        if traffic == "poisson":
            app["arrival_rate"] = rate
        apps.append(app)
    sim = {
        "slots": 400,
        "warmup": 50,
        "seed": seed,
        "policy": "DRR",
        "traffic": traffic,
        "capacity_mode": "stochastic",
        "cost_mode": cost_mode,
        "assignment": assignment,
    }
    if assignment == "given":
        for app in apps:
            app["workers"] = sorted(rng.sample(app["candidates"], 2))
    return {"nodes": nodes, "links": links, "apps": apps, "sim": sim}


def instance_doc(graph: NetworkGraph, apps, sim: dict) -> dict:
    """Scenario document of a generated graph and apps, every field written
    out, so that the CLI reads the same instance back."""
    return {
        "nodes": [
            {"id": n.id, "kind": n.kind.value, "swap_success_prob": n.swap_success_prob}
            for n in graph.nodes
        ],
        "links": [
            {
                "id": l.id,
                "endpoints": list(l.endpoints),
                "capacity_max": l.capacity_max,
                "gen_success_prob": l.gen_success_prob,
                "fidelity": l.fidelity,
            }
            for l in graph.links
        ],
        "apps": [
            {
                "id": a.id,
                "host": a.host,
                "weight": a.weight,
                "workers_needed": a.workers_needed,
                "candidates": sorted(a.candidates),
                "min_fidelity": a.min_fidelity,
            }
            for a in apps
        ],
        "sim": sim,
    }
