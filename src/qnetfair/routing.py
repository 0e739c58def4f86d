"""Hop-count routing, per-path entanglement metrics and flow building.

Every flow uses a single fixed path chosen by minimum hop count, with a
deterministic tie-break toward the lexicographically smallest node-id
sequence. ``route`` is the one way in: it routes each host to the workers
it is asked for that the graph has not routed yet, builds their ``Flow``
objects and keeps them in ``graph.routes``, so validation, the solvers
and the engine route each (host, worker) pair once and share its Flow
between apps. ``host_flows`` reads a host's Flows from that memo.

``route`` searches from one host at a time, or routes many hosts in one
bit-parallel breadth-first sweep from their destinations (Then et al.,
"The More the Merrier: Efficient Multi-Source Graph Traversal", PVLDB
2014). A search costs about one pass over the graph per host, and a sweep
level about three (timed on generated trees with chords, 50-300 nodes).
So the input alone decides: the first host's search depth estimates the
levels, and the other hosts are swept when the batch holds more than
three hosts per level. Both give the same paths.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .model import WERNER_FLOOR, AppId, Application, Assignment, EdgeId, Flow, NetworkGraph, NodeId
from .model import shown


class NoPath(Exception):
    """No route exists between the requested endpoints."""


class EmptyEligibleSet(Exception):
    """An application has fewer eligible workers than it needs."""

    def __init__(self, app_id: int, eligible, needed: int):
        self.app_id = app_id
        self.eligible = frozenset(eligible)
        self.needed = needed
        super().__init__(
            f"app {app_id}: {len(self.eligible)} eligible workers, needs {needed}"
        )


def path_swap_prob(path: tuple[NodeId, ...], graph: NetworkGraph) -> float:
    """Probability that all swaps along the path succeed.

    Product of swap_success_prob over the intermediate nodes; 1.0 for a
    single-hop path (no swap needed).
    """
    nodes = graph._nodes
    prob = 1.0
    for node_id in path[1:-1]:
        prob *= nodes[node_id].swap_success_prob
    return prob


def edges_fidelity(graph: NetworkGraph, edges: Sequence[EdgeId]) -> float:
    """End-to-end Werner fidelity of the pair delivered over the edges.

    Left fold over the path's links of
        F <- F*Fe + (1 - F)*(1 - Fe)/3
    starting from the first link's fidelity. Closed on [0.25, 1], with
    0.25 (fully mixed) as a fixed point; each step is held at that floor,
    since rounding near it can land one ulp below 0.25.
    """
    links = graph._links
    fid = links[edges[0]].fidelity
    for edge_id in edges[1:]:
        fe = links[edge_id].fidelity
        fid = max(WERNER_FLOOR, fid * fe + (1.0 - fid) * (1.0 - fe) / 3.0)
    return fid


def route(graph: NetworkGraph, requests: Mapping[NodeId, Iterable[NodeId]]) -> None:
    """Route each host of ``requests`` to each of its workers and keep the
    Flows in ``graph.routes``: ``graph.routes[host][worker]`` is the Flow,
    or None when the worker is unreachable. Pairs already there are not
    routed again. Raises ValueError, before routing anything, when a host
    asks for itself or a requested node is not in the graph.

    The first host with new workers is searched; the others are swept
    together when the batch holds more than three hosts per hop of that
    search's depth, and searched one by one otherwise."""
    batch: dict[NodeId, set[NodeId]] = {}
    for host, workers in requests.items():
        known = graph.routes.get(host, {})
        new = {w for w in workers if w not in known}
        if host in new:
            raise ValueError("src and dst must differ")
        if not graph.has_node(host) or not all(map(graph.has_node, new)):
            bad = next(n for n in (host, *sorted(new)) if not graph.has_node(n))
            raise ValueError(f"unknown node in a request from host {shown(host)}: {shown(bad)}")
        if new:
            batch[host] = new
    if not batch:
        return
    first, *rest = batch
    depth = _search(graph, first, batch[first])
    if rest and len(batch) > 3 * depth:
        _sweep(graph, {host: batch[host] for host in rest})
    else:
        for host in rest:
            _search(graph, host, batch[host])


def _flow(graph: NetworkGraph, path: Sequence[NodeId], edges: Sequence[EdgeId]) -> Flow:
    path, edges = tuple(path), tuple(edges)
    return Flow(path, edges, path_swap_prob(path, graph), edges_fidelity(graph, edges))


def _search(graph: NetworkGraph, host: NodeId, dsts: set[NodeId]) -> int:
    """Route one host by breadth-first search; return the hop count of the
    last node it discovered, its farthest destination when all are found.

    Neighbors are expanded in ascending (node, edge) order and a node is
    never reparented, which among equal-hop paths yields the
    lexicographically smallest node sequence. The search stops once every
    destination is discovered."""
    adj = graph._adj
    parent = {host: host}
    parent_edge: dict[NodeId, EdgeId] = {}
    order = [host]
    outstanding = len(dsts)
    i = 0
    while outstanding and i < len(order):
        u = order[i]
        i += 1
        for v, edge in adj[u]:
            if v not in parent:
                parent[v] = u
                parent_edge[v] = edge
                order.append(v)
                if v in dsts:
                    outstanding -= 1
    known = graph.routes.setdefault(host, {})
    for dst in dsts:
        known[dst] = None  # unreachable, unless found
        if dst in parent:
            path, edges = [dst], []
            while path[-1] != host:
                edges.append(parent_edge[path[-1]])
                path.append(parent[path[-1]])
            known[dst] = _flow(graph, path[::-1], edges[::-1])
    depth, node = 0, order[-1]
    while node != host:
        depth += 1
        node = parent[node]
    return depth


def _sweep(graph: NetworkGraph, requests: Mapping[NodeId, set[NodeId]]) -> None:
    """Route many hosts in one multi-source breadth-first sweep.

    Each distinct destination owns one bit of an int, its lane. Level 0
    holds each destination's own lane; at level k, the nodes that gained
    lanes at level k - 1 push them to their neighbors, and a node keeps
    the lanes it gains for the first time. Each level is stored as a
    sparse dict of the lanes each node newly gained there, so a node
    gains destination t's lane exactly at its hop distance from t. The
    sweep stops when every host holds all of its lanes, or when no node
    gains any.

    From host h at distance D from t, step i moves to the first neighbor,
    in (node, edge) order, that gained t's lane at level D - i - 1. That
    yields the lexicographically smallest shortest path, the one the
    search's parent rule gives."""
    adj = graph._adj
    lanes = {t: 1 << i for i, t in enumerate(set().union(*requests.values()))}
    lack = {h: sum(lanes[t] for t in dsts) for h, dsts in requests.items()}
    waiting = len(lack)  # hosts that lack a lane
    frontier = dict(lanes)
    seen = dict(lanes)  # every lane each node holds
    levels = [frontier]
    while waiting and frontier:
        pushed: dict[NodeId, int] = {}
        for u, bits in frontier.items():
            for v, _ in adj[u]:
                pushed[v] = pushed.get(v, 0) | bits
        frontier = {}
        for v, bits in pushed.items():
            held = seen.get(v, 0)
            new = bits & ~held
            if new:
                frontier[v] = new
                seen[v] = held | new
                if lack.get(v):
                    lack[v] &= ~new
                    if not lack[v]:
                        waiting -= 1
        levels.append(frontier)
    for host, dsts in requests.items():
        gained = [(k, level[host]) for k, level in enumerate(levels) if host in level]
        known = graph.routes.setdefault(host, {})
        for dst in dsts:
            lane = lanes[dst]
            hops = next((k for k, bits in gained if bits & lane), None)
            known[dst] = None
            if hops is None:
                continue
            path, edges = [host], []
            for k in range(hops - 1, -1, -1):
                level = levels[k]
                for v, edge in adj[path[-1]]:
                    if level.get(v, 0) & lane:
                        break
                path.append(v)
                edges.append(edge)
            known[dst] = _flow(graph, path, edges)


def host_flows(graph: NetworkGraph, host: NodeId, workers: Iterable[NodeId]) -> list[Flow]:
    """Flows from host to each reachable worker, in ascending worker
    order; unreachable workers are left out.

    Workers the graph has not routed from this host yet are routed by
    ``route``, which raises ValueError for the host itself or an unknown
    node; the others are read from ``graph.routes``, so every call hands
    out the same Flow objects."""
    workers = sorted(workers)
    known = graph.routes.get(host)
    if known is None or not all(w in known for w in workers):
        route(graph, {host: workers})
        known = graph.routes.get(host, {})
    return [f for w in workers if (f := known[w]) is not None]


def eligible_flows(graph: NetworkGraph, app: Application) -> list[Flow]:
    """Flows to the reachable candidates whose end-to-end fidelity meets
    the app's threshold, in ascending worker order. Raises EmptyEligibleSet
    when fewer than workers_needed candidates survive the filter."""
    flows = host_flows(graph, app.host, app.candidates)
    flows = [f for f in flows if f.e2e_fidelity >= app.min_fidelity]
    if len(flows) < app.workers_needed:
        raise EmptyEligibleSet(app.id, (f.worker for f in flows), app.workers_needed)
    return flows


def build_flows(
    graph: NetworkGraph, apps: Sequence[Application], assignment: Assignment
) -> dict[AppId, list[Flow]]:
    """The flow of each (app, assigned worker), shared with every other
    caller of ``host_flows``; raises NoPath when an assigned worker is
    unreachable from its host."""
    flows: dict[AppId, list[Flow]] = {}
    for app in sorted(apps, key=lambda a: a.id):
        flows[app.id] = host_flows(graph, app.host, assignment[app.id])
        if len(flows[app.id]) < len(assignment[app.id]):
            raise NoPath(f"app {app.id}: an assigned worker is unreachable from {app.host}")
    return flows
