"""Analytical fairness machinery and worker-pool assignment solvers.

The weighted max-min rate vector (computed by progressive filling over a
fluid model of the network) serves both as the oracle that scheduling
disciplines are compared against and as the objective for choosing which
computation nodes join each application's worker pool. One kernel on flow
indices, ``progressive_fill``, does all filling; ``maxmin_rates`` is its
keyed, checked form, and ``assign_exhaustive`` checks each app's
candidates as ``maxmin_rates`` would, then calls the kernel directly for
each assignment that its capacity bound cannot rule out.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .model import Application, Assignment, Flow, NetworkGraph
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
    bottleneck property: every flow crosses a saturated edge on which its
    weighted rate is the largest. This keyed form checks its input, then
    ``progressive_fill`` fills with the flows numbered in iteration order.
    """
    edge_sets = _checked_edge_sets(flow_edges, capacities, flow_weights)
    rates = progressive_fill([flow_weights[f] for f in edge_sets], edge_sets.values(), capacities)
    return dict(zip(edge_sets, rates))


def _checked_edge_sets(
    flow_edges: Mapping[FlowKey, Iterable[int]],
    capacities: Mapping[int, float],
    flow_weights: Mapping[FlowKey, float],
) -> dict[FlowKey, frozenset[int]]:
    """Each flow's set of edges, once ``progressive_fill`` is known to fill
    them: ValueError unless every flow crosses an edge and has a positive
    weight, and every crossed edge has a positive capacity."""
    edge_sets = {f: frozenset(edges) for f, edges in flow_edges.items()}
    for f, edges in edge_sets.items():
        if not edges:
            raise ValueError(f"flow {f!r} crosses no edge")
        if not flow_weights[f] > 0:  # NaN too: it would never saturate an edge
            raise ValueError(f"flow {f!r} has non-positive weight")
    for edges in edge_sets.values():
        for e in edges:
            if not capacities[e] > 0:
                raise ValueError(f"edge {e} has non-positive capacity")
    return edge_sets


def progressive_fill(
    weights: Sequence[float], flow_edges: Iterable[Iterable[int]], capacities: Mapping[int, float]
) -> list[float]:
    """``maxmin_rates`` on flows 0..n-1, unchecked: every weight and every
    crossed edge's capacity must be positive, and no flow may list an edge
    twice. An edge's fill limit sums its live weights and frozen rates in
    flow order, so the rates are the same floats whatever the caller's keys."""
    on_edge: dict[int, list[int]] = {}
    for i, edges in enumerate(flow_edges):
        for e in edges:
            on_edge.setdefault(e, []).append(i)
    # of edges crossed by the same flows, only the least capacity can bind
    tightest: dict[tuple[int, ...], float] = {}
    for e, on in on_edge.items():
        key = tuple(on)
        if capacities[e] < tightest.get(key, math.inf):
            tightest[key] = capacities[e]
    rates: list = [None] * len(weights)  # None while the flow is unfrozen
    # (fill limit, capacity, flows) of each edge with an unfrozen flow
    limits = [(cap / sum([weights[f] for f in on]), cap, on) for on, cap in tightest.items()]
    while limits:
        t_star = max(min([t for t, _, _ in limits]), 0.0)
        cut = t_star + 1e-12 * max(t_star, 1.0)
        newly_frozen = set()
        unsaturated = []
        for limit in limits:
            if limit[0] > cut:
                unsaturated.append(limit)
                continue
            for f in limit[2]:
                if rates[f] is None:
                    rates[f] = weights[f] * t_star
                    newly_frozen.add(f)
        limits = []
        for t, cap, on in unsaturated:
            if newly_frozen.isdisjoint(on):  # the same sums, so the same limit
                limits.append((t, cap, on))
                continue
            live_weights = [weights[f] for f in on if rates[f] is None]
            if live_weights:
                frozen_load = sum([r for f in on if (r := rates[f]) is not None])
                limits.append(((cap - frozen_load) / sum(live_weights), cap, on))
    return rates


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
    flows = build_flows(graph, apps, assignment)
    ordered = sorted(apps, key=lambda a: a.id)
    # keyed by (app, worker): apps with the same host share their Flows
    flow_edges = {(a.id, f.worker): f.edges for a in ordered for f in flows[a.id]}
    weights = {(a.id, f.worker): a.weight / a.workers_needed for a in ordered for f in flows[a.id]}
    rates = maxmin_rates(flow_edges, graph.effective_capacities(), weights)
    out: dict[int, AppRatePrediction] = {}
    for app in ordered:
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


def _pool_bound(pool: Sequence[Flow], weight: float, caps: Mapping[int, float]) -> float:
    """An upper bound on the weighted delivered rate an app gets from this
    pool, whatever the other pools: no flow's max-min rate exceeds its path's
    least capacity. The factor covers the rounding of ``progressive_fill``."""
    peak = math.fsum(min([caps[e] for e in f.edges]) * f.swap_prob for f in pool)
    return peak / weight * (1 + 1e-9)


def assign_exhaustive(
    graph: NetworkGraph, apps: Sequence[Application], limit: int = 1_000_000
) -> Assignment:
    """Exact solver: enumerate every assignment and keep the lexicographic
    maximum of the ascending-sorted weighted delivered rates (those of
    ``predicted_app_rates``); among equals, the first one enumerated.

    An assignment is skipped unfilled when the sorted bounds of its pools
    (``_pool_bound``) do not exceed the best score: each rate is at most its
    bound, so its sorted rates could not either.

    Raises SearchSpaceTooLarge (with the assignment count) before building
    any pool when the product of per-app subset counts exceeds ``limit``.
    """
    ordered = sorted(apps, key=lambda a: a.id)
    eligible = [eligible_flows(graph, app) for app in ordered]
    size = math.prod(math.comb(len(f), a.workers_needed) for a, f in zip(ordered, eligible))
    if size > limit:
        raise SearchSpaceTooLarge(size, limit)
    caps = graph.effective_capacities()
    for app, flows in zip(ordered, eligible):  # each candidate is checked once
        flow_edges = {(app.id, f.worker): f.edges for f in flows}
        # a flow's weight, app.weight / workers_needed, has the sign of app.weight
        _checked_edge_sets(flow_edges, caps, dict.fromkeys(flow_edges, app.weight))
    # every assignment has the same flow weights: apps in id order, pools in worker order
    weights = [a.weight / a.workers_needed for a in ordered for _ in range(a.workers_needed)]
    options = [  # each app's pools, each with its bound
        [(p, _pool_bound(p, a.weight, caps)) for p in itertools.combinations(f, a.workers_needed)]
        for a, f in zip(ordered, eligible)
    ]
    best: tuple | None = None
    best_score: tuple[float, ...] | None = None
    for combo in itertools.product(*options):
        if best_score is not None and tuple(sorted([u for _, u in combo])) <= best_score:
            continue
        flows = [f for pool, _ in combo for f in pool]
        rates = progressive_fill(weights, [f.edges for f in flows], caps)
        delivered = iter([r * f.swap_prob for r, f in zip(rates, flows)])
        score = tuple(sorted(
            math.fsum(itertools.islice(delivered, a.workers_needed)) / a.weight for a in ordered
        ))
        if best_score is None or score > best_score:
            best, best_score = combo, score
    assert best is not None, "every app has at least one eligible pool"
    return {app.id: frozenset(f.worker for f in pool) for app, (pool, _) in zip(ordered, best)}
