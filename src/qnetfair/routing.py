"""Hop-count routing, per-path entanglement metrics and flow building.

Every flow uses a single fixed path chosen by minimum hop count, with a
deterministic tie-break toward the lexicographically smallest node-id
sequence. ``host_flows``, the one public form of a route, searches all
of a host's workers at once and builds the ``Flow`` objects every other
module reads. All functions are pure over an immutable graph; each graph
keeps each (host, worker) Flow it builds, so validation, the solvers and
the engine search and build it once and share it between apps.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .model import WERNER_FLOOR, AppId, Application, Assignment, EdgeId, Flow, NetworkGraph, NodeId


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
    prob = 1.0
    for node_id in path[1:-1]:
        prob *= graph.node(node_id).swap_success_prob
    return prob


def edges_fidelity(graph: NetworkGraph, edges: Sequence[EdgeId]) -> float:
    """End-to-end Werner fidelity of the pair delivered over the edges.

    Left fold over the path's links of
        F <- F*Fe + (1 - F)*(1 - Fe)/3
    starting from the first link's fidelity. Closed on [0.25, 1], with
    0.25 (fully mixed) as a fixed point; each step is held at that floor,
    since rounding near it can land one ulp below 0.25.
    """
    fid = graph.link(edges[0]).fidelity
    for edge_id in edges[1:]:
        fe = graph.link(edge_id).fidelity
        fid = max(WERNER_FLOOR, fid * fe + (1.0 - fid) * (1.0 - fe) / 3.0)
    return fid


def host_flows(graph: NetworkGraph, host: NodeId, workers: Iterable[NodeId]) -> list[Flow]:
    """Flows from host to each reachable worker, in ascending worker
    order; unreachable workers are left out.

    Breadth-first search expanding neighbors in ascending id order, never
    reparenting a node once discovered; among equal-hop paths this yields
    the lexicographically smallest node sequence. The search stops once
    every destination is discovered. The graph keeps each Flow it builds,
    so later calls search only for new destinations and return the same
    Flow objects."""
    workers = sorted(workers)
    known = graph.routes.setdefault(host, {})
    new = {w for w in workers if w not in known}
    if host in new:
        raise ValueError("src and dst must differ")
    if not graph.has_node(host) or not all(map(graph.has_node, new)):
        raise ValueError(f"unknown node in ({host}, {sorted(new)})")
    known.update(dict.fromkeys(new))  # None: unreachable, unless found below
    pending = set(new)
    # node -> (parent, edge to the parent); the source has none
    parent: dict[NodeId, tuple[NodeId, EdgeId] | None] = {host: None}
    queue: deque[NodeId] = deque([host])
    while queue and pending:
        u = queue.popleft()
        for v, edge in graph.neighbors(u):
            if v not in parent:
                parent[v] = (u, edge)
                queue.append(v)
                pending.discard(v)
    for dst in new & parent.keys():
        path, edges = [dst], []
        while parent[path[-1]] is not None:
            u, edge = parent[path[-1]]
            path.append(u)
            edges.append(edge)
        path, edges = tuple(path[::-1]), tuple(edges[::-1])
        known[dst] = Flow(path, edges, path_swap_prob(path, graph), edges_fidelity(graph, edges))
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
