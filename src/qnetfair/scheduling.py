"""Per-slot arbitration of end-to-end entanglement grants.

A grant reserves one EPR pair on every edge of the flow's path within the
current slot, so contention is network-wide rather than per link. Four
disciplines are supported:

* FCFS: pending requests granted in (arrival_slot, app id) order from a
  heap of queue heads, one visit per run of an app's requests keyed
  before the next head, at O((apps + app switches) log apps + grants) a
  slot; a blocked app is dropped for the rest of the slot. FCFS keeps no
  ring. Requires Poisson traffic.
* RR: repeated passes over the active-app ring, one grant per app per pass.
* WRR: as RR with up to ``weight`` grants per app per pass (integer weights).
* DRR: classic deficit round robin; each pass credits every visited app
  with quantum_base*weight, and grants spend the flow's ``flow_cost`` from
  the deficit. A deficit blocked by capacity persists across slots, capped
  at quantum + the app's largest flow cost; an emptied queue resets it to 0.

Passes repeat while some backlogged app still has a flow with residual
capacity on every edge, which keeps the slot work-conserving and, for
DRR, lets an app accumulate credit across fruitless passes until it can
afford an expensive flow. Residuals only shrink within a slot, so an app
whose flows are all capacity-blocked sits out the rest of the slot; for
DRR the quantum credits of the passes it sat out are replayed, capped
after each one, when the slot ends. The ring and its head change only
between slots: the first pass visits every app of the ring from the
head, later passes skip apps drained or blocked in the slot; after a
slot with grants the head moves to the first still-backlogged app after
the last app granted, round the ring, and drained apps leave. A pick
moves the app's flow cursor past the picked flow before DRR compares its
cost with the deficit, so a flow the app cannot yet afford still
advances the cursor.

The slot runs on dense integer indices. SchedulerState numbers the flows
0..F-1 in (app id, worker) order and keeps per-app state in lists by app
id, so app ids must be dense from 0 (others raise ConfigError). The
run's slot loop alone calls the kernels, ``_enqueue_arrivals`` and
``_schedule_slot``; they trust its lists (a negative capacity would
grant forever), and ``_schedule_slot`` returns SlotGrants whose residual
is a list by link id and whose grants count by flat flow index. A flow
is live while every edge on it has residual >= 1: flows crossing an edge
sampled at 0 start the slot dead, and a grant that takes an edge to 0
kills the flows crossing it, as progressive filling freezes the flows of
a saturated link. A pick scans live flags, and passes run while an app
of the ring has one. A visit to an app with no live flow costs one step:
under DRR its credit, min(deficit + quantum, cap), and the block. The
four disciplines share one visit step, bound once a run and once a slot.
A pending request is its arrival slot, queued FIFO per app, and a
granted one is (app, arrival_slot).
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Callable, Mapping, Optional, Sequence

from .model import AppId, Application, CostMode, EdgeId, Flow, Policy, Traffic, shown

# slack for deficit-vs-cost comparisons; deficits are floats because
# weights are reals, costs are small integers
_DEFICIT_EPS = 1e-9


class ConfigError(Exception):
    """Scheduler configuration the discipline cannot honor."""


@dataclass(slots=True)
class SlotGrants:
    """Outcome of one scheduling slot, in index form."""

    residual: list[int]  # by dense link id
    per_flow: dict[int, int]  # flat flow index -> grants
    # (app, arrival_slot) per granted request; empty in backlogged mode
    granted_requests: list[tuple[AppId, int]]
    last_granted: Optional[AppId]
    passes: int  # round-robin passes started in this slot
    # capacity-blocked app -> the pass (0 under FCFS) in which it had no
    # live flow; residuals only shrink, so it sits out the rest of the slot
    blocked: dict[AppId, int]
    # working state of the slot, not part of the outcome: by flat flow
    # index, every edge of the flow has residual >= 1; live flows by app id
    _live: list[bool] = field(repr=False)
    _live_count: list[int] = field(repr=False)


def policy_problems(
    policy: Policy, apps: Sequence[Application], traffic: Traffic, quantum_base: int
) -> list[str]:
    """What the discipline cannot honor, one diagnostic per violation.

    Validation reports these lines. WRR lines locate apps by their index
    in ``apps``.
    """
    problems = []
    if policy is Policy.WRR:
        problems += [
            f"apps[{i}].weight: WRR needs integer weights, got {app.weight}"
            for i, app in enumerate(apps)
            if not float(app.weight).is_integer()
        ]
    if not isinstance(quantum_base, int) or quantum_base < 1:
        problems.append(f"sim.quantum_base: must be >= 1, got {shown(quantum_base)}")
    if policy is Policy.FCFS and traffic is Traffic.BACKLOGGED:
        problems.append(
            "sim.policy: FCFS is rejected with backlogged traffic "
            "(always-full queues have no arrival order)"
        )
    return problems


def flow_cost(edges: Sequence[EdgeId], cost_mode: CostMode) -> int:
    """What a DRR grant over ``edges`` spends: 1, or in hops mode the hop count."""
    return 1 if cost_mode is CostMode.UNIT else len(edges)


# A DRR pass credits every app in the ring one quantum, quantum_base *
# weight, so a grant of cost c can wait ceil(c / quantum) fruitless passes
MAX_DRR_PASSES = 1000


def quantum_problems(
    policy: Policy, apps: Sequence[Application], quantum_base: int, max_cost: Mapping[AppId, int]
) -> list[str]:
    """Under DRR, one line per app (by index in ``apps``) whose quantum is not
    a finite float or lets a grant of its dearest flow, of cost
    ``max_cost[app.id]``, wait over MAX_DRR_PASSES fruitless passes; apps
    without a cost are skipped. Validation reports these lines."""
    problems = []
    for i, app in enumerate(apps if policy is Policy.DRR else ()):
        if (cost := max_cost.get(app.id)) is None:
            continue
        try:
            quantum = quantum_base * app.weight
        except OverflowError:  # an int beyond the float range
            quantum = math.inf
        if not (0 < quantum < math.inf and cost / quantum <= MAX_DRR_PASSES):
            problems.append(
                f"apps[{i}].weight: DRR quantum sim.quantum_base * weight must be finite and "
                f">= {cost / MAX_DRR_PASSES:g} (flow cost {cost} / {MAX_DRR_PASSES} passes), "
                f"got {quantum:g}"
            )
    return problems


class SchedulerState:
    """Mutable scheduler state, owned by a single engine run.

    Flows are numbered 0..F-1 in (app id, worker) order: app ``a`` owns
    flows ``first_flow[a]`` to ``first_flow[a + 1] - 1``, and every per-app
    list is indexed by app id, so app ids must be dense from 0. In
    backlogged mode every app always has a synthetic pending request
    (queues are conceptually infinite) and the active ring is fixed; in
    Poisson mode apps join the ring when they become backlogged and leave
    it at the end of the slot in which their queue drains. FCFS keeps no
    ring: its ``active`` stays empty and its ``head`` None.

    The policy, traffic, quantum_base and weights are taken as the run's
    validated scenario has them (``policy_problems``, ``quantum_problems``)
    and not checked again; only the app ids and flows are checked here.
    """

    def __init__(
        self,
        policy: Policy,
        apps: Sequence[Application],
        flows_by_app: Mapping[AppId, Sequence[Flow]],
        traffic: Traffic,
        quantum_base: int = 1,
        cost_mode: CostMode = CostMode.UNIT,
    ):
        self.policy = policy
        self.apps = sorted(apps, key=lambda a: a.id)
        ids = [a.id for a in self.apps]
        if ids != list(range(len(ids))):
            raise ConfigError(f"app ids must be dense integers from 0, got {shown(ids)}")
        self.flows: list[Flow] = []  # by flat flow index
        self.first_flow = [0]
        for app_id in ids:
            flows = sorted(flows_by_app[app_id], key=lambda f: f.worker)
            if not flows:
                raise ConfigError(f"app {app_id} has no flows")
            self.flows += flows
            self.first_flow.append(len(self.flows))
        self.flow_count = [len(flows_by_app[a]) for a in ids]
        self.flow_app = [a for a in ids for _ in range(self.flow_count[a])]
        self.flow_edges = [f.edges for f in self.flows]
        # the flows crossing each crossed edge: when a grant takes the edge
        # to 0 they stop fitting for the rest of the slot
        self.edge_flows: dict[EdgeId, list[int]] = {}
        for f, edges in enumerate(self.flow_edges):
            for e in edges:
                self.edge_flows.setdefault(e, []).append(f)
        self.queues: dict[AppId, deque[int]] = {a: deque() for a in ids}  # arrival slots
        self.cursor = self.first_flow[:-1]  # the flow each app's next pick tries first
        self.deficit = [0.0] * len(ids)
        # only DRR charges flow costs (by flow) and credits quanta; cost,
        # max_cost, quantum and deficit_cap are empty otherwise
        drr = policy is Policy.DRR
        self.cost = [flow_cost(e, cost_mode) for e in self.flow_edges] if drr else []
        self.max_cost = [
            max(self.cost[self.first_flow[a] : self.first_flow[a + 1]]) for a in ids if drr
        ]
        self.quantum = [quantum_base * app.weight for app in self.apps if drr]
        self.deficit_cap = [q + c for q, c in zip(self.quantum, self.max_cost)]
        self.drr, self.poisson, wrr = drr, traffic is Traffic.POISSON, policy is Policy.WRR
        # the most grants one visit of the ring may make; DRR's deficit is its only bound:
        # no slot has 2**30 - 1 pairs, the largest int CPython compares on its fast path
        self.budget = [2**30 - 1 if drr else int(a.weight) if wrr else 1 for a in self.apps]
        # a DRR pass can legitimately grant nothing while deficits build up
        # toward an expensive flow, but never more often than this; an RR
        # or WRR pass always grants, so its guard of 2 is never reached
        self.stall_guard = 2 + max(
            (math.ceil(c / q) for c, q in zip(self.max_cost, self.quantum)), default=0
        )
        self.active: list[AppId] = ids if traffic is Traffic.BACKLOGGED else []
        self.head: Optional[AppId] = self.active[0] if self.active else None
        self.bind_slot, self.visit = _visitor(self)  # the slot kernels' one visit step


def _enqueue_arrivals(state: SchedulerState, slot: int, counts: list[int]) -> None:
    """Queue ``counts[a]`` requests of ``slot`` FIFO for each app a; apps
    newly backlogged join the tail of the ring, which FCFS does not keep.
    The counts are the run's own Poisson draws, by app id, and are not
    checked."""
    queues, active = state.queues, state.active
    ring = state.policy is not Policy.FCFS
    for app_id, count in enumerate(counts):
        if count:
            queue = queues[app_id]
            if not queue and ring:
                active.append(app_id)
                if state.head is None:
                    state.head = app_id
            queue.extend([slot] * count)


def _visitor(state: SchedulerState) -> tuple[Callable, Callable]:
    """The run's one visit step for RR, WRR, DRR and FCFS, ``visit(app_id,
    budget)``, bound to the run's lists here and by ``bind(ctx)`` to those
    of the slot of ``ctx``: a visit reads no attribute but ``ctx.passes``.
    One visit of an app makes up to ``budget`` grants, at least 1. The
    ring passes the app's ``state.budget``: 1 under RR, ``weight`` under
    WRR, and under DRR one quantum of credit, then grants while the
    deficit covers the picked flow's cost. FCFS passes the app's run, its
    requests keyed before the next app's head. Each pick takes the app's
    first live flow from its cursor on, in cyclic order, and moves the
    cursor past it, before DRR compares its cost with the deficit. An app
    with no live flow is blocked, with its cursor unchanged and, under
    DRR, its deficit capped: one step for a visit that starts so. An
    emptied queue ends the visit and resets a DRR deficit. A visit
    returns the number of grants."""
    cursor, flow_edges, edge_flows = state.cursor, state.flow_edges, state.edge_flows
    flow_app, queues = state.flow_app, state.queues if state.poisson else None
    drr, deficits, quantum, deficit_cap = state.drr, state.deficit, state.quantum, state.deficit_cap
    cost = list(map(float, state.cost))  # as the float deficit: mixed arithmetic is slower
    ends = zip(state.first_flow, state.first_flow[1:])  # succ[f]: the next flow of its app, cyclic
    succ = [f + 1 if f + 1 < end else first for first, end in ends for f in range(first, end)]
    ctx = live = live_count = residual = per_flow = blocked = granted = None

    def bind(slot: SlotGrants) -> None:
        nonlocal ctx, live, live_count, residual, per_flow, blocked, granted
        ctx, live, live_count, residual = slot, slot._live, slot._live_count, slot.residual
        per_flow, blocked, granted = slot.per_flow, slot.blocked, slot.granted_requests

    def visit(app_id: AppId, budget: float) -> int:
        if not live_count[app_id]:
            if drr:  # min(deficit + quantum, cap)
                deficit, cap = deficits[app_id] + quantum[app_id], deficit_cap[app_id]
                deficits[app_id] = cap if cap < deficit else deficit
            blocked[app_id] = ctx.passes
            return 0
        queue = queues[app_id] if queues is not None else None
        if drr:
            deficit = deficits[app_id] + quantum[app_id]
        made = 0
        while True:  # a compare in the loop's head would jump too far for CPython's fast path
            if not live_count[app_id]:
                if drr and deficit_cap[app_id] < deficit:
                    deficit = deficit_cap[app_id]
                blocked[app_id] = ctx.passes
                break
            f = cursor[app_id]
            while not live[f]:  # ends: the app has a live flow
                f = succ[f]
            cursor[app_id] = succ[f]
            if drr:
                if deficit < cost[f] - _DEFICIT_EPS:
                    break
                deficit -= cost[f]
            for e in flow_edges[f]:
                left = residual[e] - 1
                residual[e] = left
                if not left:  # saturated: the live flows crossing it die
                    for g in edge_flows[e]:
                        if live[g]:
                            live[g] = False
                            live_count[flow_app[g]] -= 1
            per_flow[f] = per_flow.get(f, 0) + 1
            made += 1
            if queue is not None:
                granted.append((app_id, queue.popleft()))
                if not queue:
                    deficit = 0.0
                    break
            if made == budget:
                break
        if made:
            ctx.last_granted = app_id
        if drr:
            deficits[app_id] = deficit
        return made

    return bind, visit


def _round_robin_slot(state: SchedulerState, ctx: SlotGrants) -> None:
    # every active app is backlogged when the slot starts, and pass 1
    # visits each one from the head, even one with no live flow left (it
    # is blocked there, and DRR credits it first); later passes skip
    # blocked and drained apps and run while an app of the ring has a
    # live flow
    i = state.active.index(state.head) if state.active else 0
    ring = state.active[i:] + state.active[:i]
    live_count, blocked, queues, budget = ctx._live_count, ctx.blocked, state.queues, state.budget
    backlogged, visit = not state.poisson, state.visit
    fruitless = 0
    while any(map(live_count.__getitem__, ring)):
        ctx.passes += 1
        made = 0
        for app_id in ring:
            made += visit(app_id, budget[app_id])
        fruitless = 0 if made else fruitless + 1
        if fruitless > state.stall_guard:
            raise RuntimeError("scheduler stalled with feasible capacity")
        ring = [a for a in ring if a not in blocked and (backlogged or queues[a])]
    if state.policy is Policy.DRR:
        # each pass a blocked app sat out would have credited it
        # min(deficit + quantum, cap); replay those steps in the same float order
        deficits, caps, quanta, passes = state.deficit, state.deficit_cap, state.quantum, ctx.passes
        for app_id, blocked_in in blocked.items():
            deficit, cap = deficits[app_id], caps[app_id]
            if deficit == cap:
                continue  # a capped deficit stays capped
            for _ in range(passes - blocked_in):
                deficit += quanta[app_id]
                if deficit >= cap:
                    deficit = cap
                    break
            deficits[app_id] = deficit


def _fcfs_slot(state: SchedulerState, ctx: SlotGrants) -> None:
    # only a queue head can be granted, so a heap of heads keyed
    # (arrival_slot, app) yields the global FCFS order; one visit grants the
    # app's run keyed before the next head. No slot grants more than its
    # pairs, which bounds the bisect: a shorter run only pops the app again
    queues, visit = state.queues, state.visit
    heads = [(q[0], a) for a, q in queues.items() if q]
    heapq.heapify(heads)
    most = sum(ctx.residual) or 1  # a run of 1 grants or blocks even without pairs
    while heads:
        head, app_id = heapq.heappop(heads)
        queue = queues[app_id]
        run = min(len(queue), most)
        if heads:
            slot, other = heads[0]
            run = (bisect_left if app_id > other else bisect_right)(queue, slot, 0, run)
        if not run:  # the popped head always counts: a run of 0 would spin forever
            raise RuntimeError(f"FCFS run of 0 for app {app_id} at head {head}")
        if visit(app_id, run) < run:
            # the app is blocked, and residuals only shrink within the
            # slot, so its later requests are too: it leaves the heap
            continue
        if queue:
            heapq.heappush(heads, (queue[0], app_id))


def _schedule_slot(state: SchedulerState, capacities: list[int]) -> SlotGrants:
    """One slot's grants against the run's sampled capacities, a list of
    non-negative ints by dense link id, unchecked and left unchanged. On
    return no further grant is capacity-feasible for any backlogged app."""
    live, live_count = [True] * len(state.flows), state.flow_count.copy()
    if 0 in capacities:  # the flows crossing an edge sampled at 0 start the slot dead
        edge_flows, flow_app = state.edge_flows, state.flow_app
        for e in filterfalse(capacities.__getitem__, edge_flows):
            for f in edge_flows[e]:
                if live[f]:
                    live[f] = False
                    live_count[flow_app[f]] -= 1
    ctx = SlotGrants(capacities.copy(), {}, [], None, 0, {}, live, live_count)
    state.bind_slot(ctx)
    if state.policy is Policy.FCFS:
        _fcfs_slot(state, ctx)
        return ctx
    _round_robin_slot(state, ctx)
    if ctx.last_granted is not None:
        ring = state.active
        i = ring.index(ctx.last_granted) + 1
        if state.poisson:
            backlogged = state.queues.__getitem__
            state.head = next(filter(backlogged, ring[i:] + ring[:i]), None)
            state.active = list(filter(backlogged, ring))
        else:
            state.head = ring[i % len(ring)]
    return ctx
