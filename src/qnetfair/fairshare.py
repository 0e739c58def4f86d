"""Analytical fairness machinery and worker-pool assignment solvers.

The weighted max-min rate vector (computed by progressive filling over a
fluid model of the network) serves both as the oracle that scheduling
disciplines are compared against and as the objective for choosing which
computation nodes join each application's worker pool.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .model import AppId, Application, Assignment, CostMode, Flow, NetworkGraph
from .routing import build_flows, eligible_flows, eligible_workers

FlowKey = Hashable


class SearchSpaceTooLarge(Exception):
    """Exhaustive enumeration would exceed the configured limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"search space has {size} assignments, limit is {limit}")


def maxmin_rates(
    flow_edges: Mapping[FlowKey, Iterable[int]],
    capacities: Mapping[int, float],
    flow_weights: Mapping[FlowKey, float],
) -> dict[FlowKey, float]:
    """Weighted max-min rate allocation by progressive filling.

    All unfrozen flows grow at rate weight*t for a common scalar t; when
    an edge saturates, the flows crossing it freeze at their current
    rate, and filling continues with the rest. The result satisfies the
    bottleneck property (see ``verify_bottleneck``).
    """
    flows = list(flow_edges)
    edge_sets: dict[FlowKey, frozenset[int]] = {}
    for f in flows:
        edges = frozenset(flow_edges[f])
        if not edges:
            raise ValueError(f"flow {f!r} crosses no edge")
        if flow_weights[f] <= 0:
            raise ValueError(f"flow {f!r} has non-positive weight")
        edge_sets[f] = edges
    flows_on_edge: dict[int, list[FlowKey]] = {}
    for f in flows:
        for e in edge_sets[f]:
            if capacities[e] <= 0:
                raise ValueError(f"edge {e} has non-positive capacity")
            flows_on_edge.setdefault(e, []).append(f)

    rates: dict[FlowKey, float] = {}
    unfrozen = set(flows)
    while unfrozen:
        fill_limits: dict[int, float] = {}
        for e, on_edge in flows_on_edge.items():
            live_weight = sum(flow_weights[f] for f in on_edge if f in unfrozen)
            if live_weight == 0.0:
                continue
            frozen_load = sum(rates[f] for f in on_edge if f not in unfrozen)
            fill_limits[e] = (capacities[e] - frozen_load) / live_weight
        # every unfrozen flow crosses some edge, so fill_limits is non-empty
        t_star = max(min(fill_limits.values()), 0.0)
        saturated = [
            e for e, t in fill_limits.items() if t <= t_star + 1e-12 * max(t_star, 1.0)
        ]
        newly_frozen = {
            f for e in saturated for f in flows_on_edge[e] if f in unfrozen
        }
        for f in newly_frozen:
            rates[f] = flow_weights[f] * t_star
        unfrozen -= newly_frozen
    return {f: rates.get(f, 0.0) for f in flows}


def verify_bottleneck(
    flow_edges: Mapping[FlowKey, Iterable[int]],
    capacities: Mapping[int, float],
    flow_weights: Mapping[FlowKey, float],
    rates: Mapping[FlowKey, float],
    tol: float = 1e-9,
) -> bool:
    """Check feasibility plus the max-min optimality certificate.

    Every flow must cross at least one saturated edge on which its
    weighted rate (rate/weight) is maximal among that edge's flows.
    """
    edge_load: dict[int, float] = {}
    for f, edges in flow_edges.items():
        for e in set(edges):
            edge_load[e] = edge_load.get(e, 0.0) + rates[f]
    for e, load in edge_load.items():
        if load > capacities[e] + tol:
            return False
    for f, edges in flow_edges.items():
        wrate = rates[f] / flow_weights[f]
        ok = False
        for e in set(edges):
            if edge_load[e] < capacities[e] - tol:
                continue
            peers = (
                rates[g] / flow_weights[g]
                for g, ge in flow_edges.items()
                if e in set(ge)
            )
            if wrate >= max(peers) - tol:
                ok = True
                break
        if not ok:
            return False
    return True


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index (sum x)^2 / (n * sum x^2), in [1/n, 1].

    The index is scale invariant, so inputs are normalized by their
    maximum first; this keeps the squares away from under- and overflow.
    """
    vals = list(values)
    if not vals:
        raise ValueError("jain_index undefined for empty input")
    if any(v < 0 for v in vals):
        raise ValueError("jain_index requires non-negative values")
    peak = max(vals)
    if peak == 0.0:
        raise ValueError("jain_index undefined for all-zero input")
    scaled = [v / peak for v in vals]
    total = math.fsum(scaled)
    sq = math.fsum(v * v for v in scaled)  # >= 1: the peak maps to exactly 1
    return (total * total) / (len(vals) * sq)


@dataclass(frozen=True)
class AppRatePrediction:
    granted: float  # expected grants per slot under max-min sharing
    delivered: float  # granted discounted by swap success probability
    weighted: float  # delivered / app weight


def predicted_app_rates(
    graph: NetworkGraph,
    apps: Sequence[Application],
    assignment: Assignment,
) -> dict[int, AppRatePrediction]:
    """Analytical per-app rates under a given worker assignment.

    One flow per (app, worker) over the shortest path, flow weight
    weight/workers_needed so a pool's size does not change the app's
    aggregate entitlement. Grants contend in the max-min fluid model;
    deliveries discount each flow by its swap success probability.
    """
    return _flow_rates(graph, apps, build_flows(graph, apps, assignment, CostMode.UNIT))


def _flow_rates(
    graph: NetworkGraph,
    apps: Sequence[Application],
    flows: Mapping[AppId, Sequence[Flow]],
) -> dict[int, AppRatePrediction]:
    """``predicted_app_rates`` over already built flows, each app's flows
    in ascending worker order."""
    # keyed by (app, worker): hashing a Flow would hash all of its fields
    flow_edges: dict[tuple[int, int], tuple[int, ...]] = {}
    weights: dict[tuple[int, int], float] = {}
    for app in sorted(apps, key=lambda a: a.id):
        for flow in flows[app.id]:
            key = (app.id, flow.worker)
            flow_edges[key] = flow.edges
            weights[key] = app.weight / app.workers_needed
    rates = maxmin_rates(flow_edges, graph.effective_capacities(), weights)
    out: dict[int, AppRatePrediction] = {}
    for app in sorted(apps, key=lambda a: a.id):
        app_rates = [(rates[(app.id, f.worker)], f.swap_prob) for f in flows[app.id]]
        granted = math.fsum(r for r, _ in app_rates)
        delivered = math.fsum(r * swap for r, swap in app_rates)
        out[app.id] = AppRatePrediction(granted, delivered, delivered / app.weight)
    return out


def assign_random(
    graph: NetworkGraph, apps: Sequence[Application], rng: random.Random
) -> Assignment:
    """Uniform random worker pools, the baseline solver.

    Each app independently draws a workers_needed-subset of its eligible
    workers without replacement from the caller-seeded generator.
    """
    out: Assignment = {}
    for app in sorted(apps, key=lambda a: a.id):
        eligible = sorted(eligible_workers(graph, app))
        out[app.id] = frozenset(rng.sample(eligible, app.workers_needed))
    return out


def assign_greedy(graph: NetworkGraph, apps: Sequence[Application]) -> Assignment:
    """Deterministic load-spreading heuristic.

    Apps are processed in descending weight (ties: ascending id); each
    worker slot picks the candidate whose tentative flow leaves the
    smallest sorted-descending vector of normalized edge loads
    (sum of flow_weight / effective_capacity per edge); ties go to the
    smallest worker id.
    """
    caps = graph.effective_capacities()
    load = dict.fromkeys(caps, 0.0)
    # the same loads, kept sorted: a candidate changes only its own edges,
    # so its vector is a copy of this list with those values replaced
    ascending = [0.0] * len(caps)
    out: Assignment = {}
    for app in sorted(apps, key=lambda a: (-a.weight, a.id)):
        cand_edges = {f.worker: f.edges for f in eligible_flows(graph, app)}
        phi = app.weight / app.workers_needed
        picked: list[int] = []
        for _ in range(app.workers_needed):
            best = None
            best_vec = None
            for cand in cand_edges:
                if cand in picked:
                    continue
                vec = ascending.copy()
                for e in cand_edges[cand]:
                    del vec[bisect_left(vec, load[e])]
                    insort(vec, load[e] + phi / caps[e])
                vec.reverse()
                if best_vec is None or vec < best_vec:
                    best, best_vec = cand, vec
            assert best is not None
            picked.append(best)
            for e in cand_edges[best]:
                del ascending[bisect_left(ascending, load[e])]
                load[e] += phi / caps[e]
                insort(ascending, load[e])
        out[app.id] = frozenset(picked)
    return out


def assign_exhaustive(
    graph: NetworkGraph, apps: Sequence[Application], limit: int = 1_000_000
) -> Assignment:
    """Exact solver: enumerate every assignment and keep the lexicographic
    maximum of the ascending-sorted weighted delivered rates.

    Raises SearchSpaceTooLarge (reporting the assignment count) when the
    product of per-app subset counts exceeds ``limit``.
    """
    ordered = sorted(apps, key=lambda a: a.id)
    options = [
        list(itertools.combinations(eligible_flows(graph, app), app.workers_needed))
        for app in ordered
    ]
    size = math.prod(len(o) for o in options)
    if size > limit:
        raise SearchSpaceTooLarge(size, limit)
    best: tuple[Sequence[Flow], ...] | None = None
    best_score: tuple[float, ...] | None = None
    for combo in itertools.product(*options):
        pred = _flow_rates(graph, ordered, dict(zip((a.id for a in ordered), combo)))
        score = tuple(sorted(p.weighted for p in pred.values()))
        if best_score is None or score > best_score:
            best, best_score = combo, score
    assert best is not None, "every app has at least one eligible pool"
    return {app.id: frozenset(f.worker for f in pool) for app, pool in zip(ordered, best)}
