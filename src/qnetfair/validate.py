"""Scenario validation: every model invariant, checked in one place.

Validation gives the same diagnostics for the same input, changes
nothing but the graph's route memo, and reports one diagnostic per
violation with a path-like locator such as
``apps[2].candidates: node 7 is a repeater``. Structural problems are
reported first; derived checks (eligibility, DRR quanta, given pools)
run only once the structure is sound, since they need resolvable paths.
They start by routing every host to all its apps' candidates in one
``routing.route`` call. The Scenario keeps no eligibility: the solvers
read it from the routes.
"""
from __future__ import annotations

from math import inf
from typing import Mapping, Optional, Sequence

from .model import (
    Application,
    AssignmentSource,
    CapacityMode,
    NetworkGraph,
    NodeKind,
    Scenario,
    SimConfig,
    Traffic,
    WERNER_FLOOR,
    shown,
)
from .routing import EmptyEligibleSet, eligible_flows, route
from .scheduling import flow_cost, policy_problems, quantum_problems

# exact Poisson sampling stays numerically safe up to this rate
MAX_ARRIVAL_RATE = 30.0
# stochastic sampling draws one trial per unit of capacity per link per slot
MAX_CAPACITY = 1000
# an app's flow_weight (weight / workers_needed) and the weighted rates stay
# normal floats, and a sum of weights on an edge stays finite
MIN_WEIGHT = 1e-15
MAX_WEIGHT = 1e15

_CAPACITY_INT_TOL = 1e-9


class ValidationError(Exception):
    def __init__(self, diagnostics: Sequence[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def window_problems(slots: int, warmup_slots: int) -> list[str]:
    """What keeps (slots, warmup) from leaving a non-empty measured window,
    one diagnostic per violation."""
    problems = []
    if slots < 1:
        problems.append(f"sim.slots: must be >= 1, got {shown(slots)}")
    if not 0 <= warmup_slots < max(slots, 1):
        problems.append(
            f"sim.warmup: must satisfy 0 <= warmup < slots, got {shown(warmup_slots)}"
        )
    return problems


def _dense_ids(items, section: str, diags: list[str]) -> bool:
    ids = [it.id for it in items]
    if sorted(ids) == list(range(len(ids))):
        return True
    # n ids miss one of 0..n-1 exactly when one repeats or is out of range
    present = set(ids)
    missing = next(i for i in range(len(ids)) if i not in present)
    seen = set()
    for bad in ids:
        if bad in seen or bad not in range(len(ids)):
            break
        seen.add(bad)
    diags.append(
        f"{section}: ids must be dense integers from 0 to {len(ids) - 1}; {shown(missing)} "
        f"is missing, {shown(bad)} is {'repeated' if bad in seen else 'out of range'}"
    )
    return False


def _check_structure(
    graph: NetworkGraph,
    apps: Sequence[Application],
    config: SimConfig,
    diags: list[str],
) -> None:
    _dense_ids(graph.nodes, "nodes", diags)
    for i, node in enumerate(graph.nodes):
        if not 0.0 < node.swap_success_prob <= 1.0:
            diags.append(
                f"nodes[{i}].swap_success_prob: must be in (0, 1], got {node.swap_success_prob}"
            )

    _dense_ids(graph.links, "links", diags)
    seen_pairs: set[tuple[int, int]] = set()
    for i, link in enumerate(graph.links):
        u, v = link.endpoints
        if u == v:
            diags.append(
                f"links[{i}].endpoints: endpoints must differ, got ({shown(u)}, {shown(v)})"
            )
        for end in (u, v):
            if not graph.has_node(end):
                diags.append(f"links[{i}].endpoints: node {shown(end)} does not exist")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            diags.append(
                f"links[{i}]: duplicate link between nodes {shown(pair[0])} and {shown(pair[1])}"
            )
        seen_pairs.add(pair)
        capacity_ok = 1 <= link.capacity_max <= MAX_CAPACITY
        if link.capacity_max < 1:
            diags.append(
                f"links[{i}].capacity_max: must be >= 1, got {shown(link.capacity_max)}"
            )
        elif not capacity_ok:
            diags.append(
                f"links[{i}].capacity_max: must be <= {MAX_CAPACITY}, "
                f"got {shown(link.capacity_max)}"
            )
        prob_ok = 0.0 < link.gen_success_prob <= 1.0
        if not prob_ok:
            diags.append(
                f"links[{i}].gen_success_prob: must be in (0, 1], got {link.gen_success_prob}"
            )
        if not WERNER_FLOOR <= link.fidelity <= 1.0:
            diags.append(
                f"links[{i}].fidelity: fidelity below Werner floor {WERNER_FLOOR} or above 1, "
                f"got {link.fidelity}"
            )
        # only in-range factors have a product that round() takes
        if config.capacity_mode is CapacityMode.DETERMINISTIC and capacity_ok and prob_ok:
            eff = link.effective_capacity
            if abs(eff - round(eff)) > _CAPACITY_INT_TOL:
                diags.append(
                    f"links[{i}]: deterministic capacity mode needs integral "
                    f"capacity_max * gen_success_prob, got {eff}"
                )

    _dense_ids(apps, "apps", diags)
    for i, app in enumerate(apps):
        if not graph.has_node(app.host):
            diags.append(f"apps[{i}].host: node {shown(app.host)} does not exist")
        elif graph.node(app.host).kind is not NodeKind.COMPUTATION:
            diags.append(f"apps[{i}].host: node {app.host} is a repeater")
        # JSON input may carry NaN or Infinity; NaN fails every comparison
        if not app.weight > 0:
            diags.append(f"apps[{i}].weight: must be > 0, got {app.weight}")
        elif app.weight == inf:
            diags.append(f"apps[{i}].weight: must be finite, got {app.weight}")
        elif not MIN_WEIGHT <= app.weight <= MAX_WEIGHT:
            diags.append(
                f"apps[{i}].weight: must be in [{MIN_WEIGHT:g}, {MAX_WEIGHT:g}], got {app.weight}"
            )
        if app.workers_needed < 1:
            diags.append(
                f"apps[{i}].workers_needed: must be >= 1, got {shown(app.workers_needed)}"
            )
        if app.workers_needed > len(app.candidates):
            diags.append(
                f"apps[{i}].workers_needed: workers_needed exceeds candidates "
                f"({shown(app.workers_needed)} > {len(app.candidates)})"
            )
        if app.host in app.candidates:
            diags.append(f"apps[{i}].candidates: host {shown(app.host)} cannot be its own worker")
        for cand in sorted(app.candidates):
            if not graph.has_node(cand):
                diags.append(f"apps[{i}].candidates: node {shown(cand)} does not exist")
            elif graph.node(cand).kind is not NodeKind.COMPUTATION:
                diags.append(f"apps[{i}].candidates: node {cand} is a repeater")
        if not WERNER_FLOOR <= app.min_fidelity <= 1.0:
            diags.append(
                f"apps[{i}].min_fidelity: must be in [{WERNER_FLOOR}, 1], got {app.min_fidelity}"
            )
        if not app.arrival_rate >= 0:
            diags.append(f"apps[{i}].arrival_rate: must be >= 0, got {app.arrival_rate}")
        elif app.arrival_rate == inf:
            diags.append(f"apps[{i}].arrival_rate: must be finite, got {app.arrival_rate}")
        elif config.traffic is Traffic.POISSON and app.arrival_rate > MAX_ARRIVAL_RATE:
            diags.append(
                f"apps[{i}].arrival_rate: exact Poisson sampling requires "
                f"rate <= {MAX_ARRIVAL_RATE}, got {app.arrival_rate}"
            )

    diags += window_problems(config.slots, config.warmup_slots)
    if config.exhaustive_limit < 1:
        diags.append(f"sim.exhaustive_limit: must be >= 1, got {shown(config.exhaustive_limit)}")
    if config.replications < 1:
        diags.append(f"sim.replications: must be >= 1, got {shown(config.replications)}")
    diags += policy_problems(config.policy, apps, config.traffic, config.quantum_base)


def validate_scenario(
    graph: NetworkGraph,
    apps: Sequence[Application],
    config: SimConfig,
    given_assignment: Optional[Mapping[int, frozenset[int]]] = None,
) -> Scenario:
    """Check every invariant and cross-reference; raise ValidationError
    with one diagnostic per violation, or return the validated Scenario."""
    diags: list[str] = []
    _check_structure(graph, apps, config, diags)
    if diags:
        raise ValidationError(diags)

    # each host once, with all its apps' candidates; hosts in app order
    requests: dict[int, set[int]] = {}
    for app in apps:
        requests.setdefault(app.host, set()).update(app.candidates)
    route(graph, requests)
    eligible: dict[int, frozenset[int]] = {}
    max_cost: dict[int, int] = {}  # of the app's dearest eligible flow
    for i, app in enumerate(apps):
        try:
            flows = eligible_flows(graph, app)
        except EmptyEligibleSet as err:
            diags.append(
                f"apps[{i}]: only {len(err.eligible)} eligible workers "
                f"(reachable with fidelity >= {app.min_fidelity}), needs {app.workers_needed}"
            )
            continue
        eligible[app.id] = frozenset(f.worker for f in flows)
        max_cost[app.id] = max(flow_cost(f.edges, config.cost_mode) for f in flows)
    diags += quantum_problems(config.policy, apps, config.quantum_base, max_cost)

    if config.assignment is AssignmentSource.GIVEN:
        if given_assignment is None:
            diags.append("sim.assignment: 'given' requires a workers list on every app")
        else:
            for i, app in enumerate(apps):
                workers = given_assignment.get(app.id)
                if workers is None:
                    diags.append(f"apps[{i}].workers: required when sim.assignment is 'given'")
                    continue
                if len(workers) != app.workers_needed:
                    diags.append(
                        f"apps[{i}].workers: expected {app.workers_needed} workers, "
                        f"got {len(workers)}"
                    )
                extra = set(workers) - set(app.candidates)
                if extra:
                    diags.append(f"apps[{i}].workers: {shown(sorted(extra))} not among candidates")
                elif app.id in eligible:
                    bad = set(workers) - set(eligible[app.id])
                    if bad:
                        diags.append(
                            f"apps[{i}].workers: {shown(sorted(bad))} not eligible "
                            f"(unreachable or below min_fidelity)"
                        )

    if diags:
        raise ValidationError(diags)
    return Scenario(
        graph=graph,
        apps=tuple(sorted(apps, key=lambda a: a.id)),
        config=config,
        given_assignment=(
            {a: frozenset(w) for a, w in given_assignment.items()}
            if given_assignment is not None
            else None
        ),
    )
