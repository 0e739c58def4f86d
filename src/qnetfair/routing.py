"""Hop-count routing, per-path entanglement metrics and flow building.

Every flow uses a single fixed path chosen by minimum hop count, with a
deterministic tie-break toward the lexicographically smallest node-id
sequence. ``host_flows``, the one public form of a route, searches all
of an app's workers at once and builds the ``Flow`` objects every other
module reads. All functions are pure over an immutable graph; each graph
keeps the routes found on it, so validation, the assignment solvers and
the engine search each (host, worker) route once.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .model import AppId, Application, Assignment, CostMode, EdgeId, Flow, NetworkGraph, NodeId


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


def _routes(
    graph: NetworkGraph, src: NodeId, dsts: Sequence[NodeId]
) -> dict[NodeId, tuple[tuple[NodeId, ...], tuple[EdgeId, ...]]]:
    """Minimum-hop (path, edges) from src to every reachable destination.

    Breadth-first search expanding neighbors in ascending id order, never
    reparenting a node once discovered; among equal-hop paths this yields
    the lexicographically smallest node sequence. The search stops once
    every destination is discovered; unreachable ones are left out. The
    graph keeps each route found, since a later search would find the same
    one, so later calls search only for new destinations.
    """
    known = graph.routes.setdefault(src, {})
    new = {d for d in dsts if d not in known}
    if src in new:
        raise ValueError("src and dst must differ")
    if not graph.has_node(src) or not all(map(graph.has_node, new)):
        raise ValueError(f"unknown node in ({src}, {sorted(new)})")
    known.update(dict.fromkeys(new))  # None: unreachable, unless found below
    pending = set(new)
    # node -> (parent, edge to the parent); the source has none
    parent: dict[NodeId, tuple[NodeId, EdgeId] | None] = {src: None}
    queue: deque[NodeId] = deque([src])
    while queue and pending:
        u = queue.popleft()
        for v, edge in graph.neighbors(u):
            if v not in parent:
                parent[v] = (u, edge)
                queue.append(v)
                pending.discard(v)
    for dst in new:
        if dst not in parent:
            continue
        path, edges = [dst], []
        while parent[path[-1]] is not None:
            u, edge = parent[path[-1]]
            path.append(u)
            edges.append(edge)
        known[dst] = (tuple(path[::-1]), tuple(edges[::-1]))
    return {d: known[d] for d in dsts if known[d] is not None}


def path_swap_prob(path: tuple[NodeId, ...], graph: NetworkGraph) -> float:
    """Probability that all swaps along the path succeed.

    Product of swap_success_prob over the intermediate nodes; 1.0 for a
    single-hop path (no swap needed).
    """
    prob = 1.0
    for node_id in path[1:-1]:
        prob *= graph.node(node_id).swap_success_prob
    return prob


def edges_fidelity(graph: NetworkGraph, edges: Sequence[EdgeId]) -> float:
    """End-to-end Werner fidelity of the pair delivered over the edges.

    Left fold over the path's links of
        F <- F*Fe + (1 - F)*(1 - Fe)/3
    starting from the first link's fidelity. Closed on [0.25, 1], with
    0.25 (fully mixed) as a fixed point.
    """
    fid = graph.link(edges[0]).fidelity
    for edge_id in edges[1:]:
        fe = graph.link(edge_id).fidelity
        fid = fid * fe + (1.0 - fid) * (1.0 - fe) / 3.0
    return fid


def host_flows(
    graph: NetworkGraph, app: Application, workers: Iterable[NodeId], cost_mode: CostMode
) -> list[Flow]:
    """Flows from the app's host to each reachable worker, in ascending
    worker order, from one breadth-first search; unreachable workers are
    left out."""
    routes = _routes(graph, app.host, sorted(workers))
    return [
        Flow(
            app=app.id,
            path=path,
            edges=edges,
            swap_prob=path_swap_prob(path, graph),
            e2e_fidelity=edges_fidelity(graph, edges),
            cost=1 if cost_mode is CostMode.UNIT else len(edges),
        )
        for path, edges in routes.values()
    ]


def eligible_flows(graph: NetworkGraph, app: Application) -> list[Flow]:
    """Flows to the reachable candidates whose end-to-end fidelity meets
    the app's threshold, in ascending worker order. Raises EmptyEligibleSet
    when fewer than workers_needed candidates survive the filter."""
    flows = host_flows(graph, app, app.candidates, CostMode.UNIT)
    flows = [f for f in flows if f.e2e_fidelity >= app.min_fidelity]
    if len(flows) < app.workers_needed:
        raise EmptyEligibleSet(app.id, (f.worker for f in flows), app.workers_needed)
    return flows


def eligible_workers(graph: NetworkGraph, app: Application) -> frozenset[NodeId]:
    """Worker ids of ``eligible_flows``; raises EmptyEligibleSet likewise."""
    return frozenset(f.worker for f in eligible_flows(graph, app))


def build_flows(
    graph: NetworkGraph,
    apps: Sequence[Application],
    assignment: Assignment,
    cost_mode: CostMode,
) -> dict[AppId, list[Flow]]:
    """One flow per (app, assigned worker) over the shortest path; raises
    NoPath when an assigned worker is unreachable from its host."""
    flows: dict[AppId, list[Flow]] = {}
    for app in sorted(apps, key=lambda a: a.id):
        flows[app.id] = host_flows(graph, app, assignment[app.id], cost_mode)
        if len(flows[app.id]) < len(assignment[app.id]):
            raise NoPath(f"app {app.id}: an assigned worker is unreachable from {app.host}")
    return flows
