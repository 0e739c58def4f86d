"""Per-slot arbitration of end-to-end entanglement grants.

A grant reserves one EPR pair on every edge of the flow's path within the
current slot, so contention is network-wide rather than per link. Four
disciplines are supported:

* FCFS: pending requests granted in (arrival_slot, app id) order,
  taken from a heap of the queue heads; an app whose head is blocked is
  dropped for the rest of the slot. Requires Poisson traffic.
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
between slots: each pass starts at the head and skips apps drained or
blocked in the slot; after a slot with grants the head moves to the
first still-backlogged app after the last app granted, round the ring,
and drained apps leave. A pick moves the app's flow cursor past the
picked flow before DRR compares its cost with the deficit, so a flow the
app cannot yet afford still advances the cursor.

The slot runs on integer indices. ``schedule_slot`` takes the sampled
capacities as a list by dense link id, checks that each is a
non-negative int and that the list reaches every edge a flow crosses,
and returns SlotGrants whose residual is a list by link id and whose
grants are counted by (app, flow index) in worker order; ``select_flow``
returns the index of the flow it picks. A pending request is its arrival
slot, queued FIFO per app, and a granted one is (app, arrival_slot).
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .model import AppId, Application, CostMode, EdgeId, Flow, Policy, Traffic, shown

# slack for deficit-vs-cost comparisons; deficits are floats because
# weights are reals, costs are small integers
_DEFICIT_EPS = 1e-9


class ConfigError(Exception):
    """Scheduler configuration the discipline cannot honor."""


FlowKey = tuple[AppId, int]  # (app, flow index) in the scheduler's worker order


@dataclass
class SlotGrants:
    """Outcome of one scheduling slot, in index form."""

    residual: list[int]  # by dense link id
    per_flow: dict[FlowKey, int] = field(default_factory=dict)
    # (app, arrival_slot) per granted request; empty in backlogged mode
    granted_requests: list[tuple[AppId, int]] = field(default_factory=list)
    last_granted: Optional[AppId] = None
    passes: int = 0  # round-robin passes started in this slot
    # capacity-blocked app -> the pass in which select_flow returned None;
    # residuals only shrink, so it sits out every later pass of the slot
    blocked: dict[AppId, int] = field(default_factory=dict)

    def per_app(self) -> dict[AppId, int]:
        out: dict[AppId, int] = {}
        for (app_id, _), count in self.per_flow.items():
            out[app_id] = out.get(app_id, 0) + count
        return out


def policy_problems(
    policy: Policy, apps: Sequence[Application], traffic: Traffic, quantum_base: int
) -> list[str]:
    """What the discipline cannot honor, one diagnostic per violation.

    Validation reports these lines; SchedulerState refuses to start with
    any of them. WRR lines locate apps by their index in ``apps``.
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
    without a cost are skipped. Validation reports these lines, and
    SchedulerState refuses to start with any of them."""
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

    In backlogged mode every app always has a synthetic pending request
    (queues are conceptually infinite) and the active ring is fixed; in
    Poisson mode apps join the ring when they become backlogged and leave
    it at the end of the slot in which their queue drains.
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
        problems = policy_problems(policy, apps, traffic, quantum_base)
        if problems:
            raise ConfigError("; ".join(problems))

        self.policy = policy
        self.traffic = traffic
        self.apps = {a.id: a for a in sorted(apps, key=lambda a: a.id)}
        self.flows: dict[AppId, tuple[Flow, ...]] = {}
        for app_id in self.apps:
            flows = tuple(sorted(flows_by_app[app_id], key=lambda f: f.worker))
            if not flows:
                raise ConfigError(f"app {app_id} has no flows")
            self.flows[app_id] = flows
        # the slot loop reads each flow by (app, flow index) in this order
        self.edges = {a: tuple(f.edges for f in fs) for a, fs in self.flows.items()}
        # schedule_slot rejects a capacity list that ends before an edge a flow crosses
        crossed = [e for paths in self.edges.values() for path in paths for e in path]
        self.links_needed = 1 + max(crossed, default=-1)
        self.queues: dict[AppId, deque[int]] = {a: deque() for a in self.apps}  # arrival slots
        self.cursor: dict[AppId, int] = dict.fromkeys(self.apps, 0)
        self.deficit: dict[AppId, float] = dict.fromkeys(self.apps, 0.0)
        # only DRR charges flow costs (in the slot loop's flow order) and
        # credits quanta; cost, max_cost and quantum are empty otherwise
        drr = self.apps.items() if policy is Policy.DRR else ()
        self.cost = {a: tuple(flow_cost(e, cost_mode) for e in self.edges[a]) for a, _ in drr}
        self.max_cost = {a: max(costs) for a, costs in self.cost.items()}
        problems = quantum_problems(policy, apps, quantum_base, self.max_cost)
        if problems:
            raise ConfigError("; ".join(problems))
        self.quantum = {a: quantum_base * app.weight for a, app in drr}
        # a DRR pass can legitimately grant nothing while deficits build up
        # toward an expensive flow, but never more often than this; an RR
        # or WRR pass always grants, so its guard of 2 is never reached
        self.stall_guard = 2 + max(
            (math.ceil(self.max_cost[a] / q) for a, q in self.quantum.items()), default=0
        )
        if traffic is Traffic.BACKLOGGED:
            self.active: list[AppId] = list(self.apps)
        else:
            self.active = []
        self.head: Optional[AppId] = self.active[0] if self.active else None

    def backlogged(self, app_id: AppId) -> bool:
        return self.traffic is Traffic.BACKLOGGED or bool(self.queues[app_id])

    def deficit_cap(self, app_id: AppId) -> float:
        return self.quantum[app_id] + self.max_cost[app_id]


def enqueue_arrivals(
    state: SchedulerState, slot: int, arrivals: Mapping[AppId, int]
) -> None:
    """Append new requests FIFO per app; newly backlogged apps join the
    tail of the active ring. Poisson traffic only."""
    if state.traffic is not Traffic.POISSON:
        raise ConfigError("arrivals are only meaningful with Poisson traffic")
    for app_id in sorted(arrivals):
        count = arrivals[app_id]
        if count < 0:
            raise ValueError(f"negative arrival count for app {app_id}")
        if count == 0:
            continue
        queue = state.queues[app_id]
        newly_backlogged = not queue
        queue.extend([slot] * count)
        if newly_backlogged:
            state.active.append(app_id)
            if state.head is None:
                state.head = app_id


def _fits(flow: Flow, residual: list[int]) -> bool:
    """A grant needs one pair of residual capacity on every path edge."""
    for e in flow.edges:
        if residual[e] < 1:
            return False
    return True


def select_flow(state: SchedulerState, app_id: AppId, residual: list[int]) -> Optional[int]:
    """Index of the app's next feasible flow, rotating over its flows.

    Starting at the app's cursor, each flow is tried once in cyclic
    order; the index of the first that fits the residual capacities is
    returned and the cursor advances past it, whether or not the caller
    then grants it: DRR checks the deficit only after the pick. Returns
    None (blocked) with the cursor unchanged when no flow fits.
    """
    edges = state.edges[app_id]
    n = len(edges)
    start = state.cursor[app_id]
    for i in range(start, start + n):
        if i >= n:
            i -= n
        for e in edges[i]:  # _fits, inlined on the hot path
            if residual[e] < 1:
                break
        else:
            state.cursor[app_id] = i + 1 if i + 1 < n else 0
            return i
    return None


def _grant(state: SchedulerState, ctx: SlotGrants, app_id: AppId, i: int) -> None:
    """Grant the app's flow ``i``, as select_flow has just picked it."""
    residual = ctx.residual
    for e in state.edges[app_id][i]:
        residual[e] -= 1
    key = (app_id, i)
    ctx.per_flow[key] = ctx.per_flow.get(key, 0) + 1
    if state.traffic is Traffic.POISSON:
        ctx.granted_requests.append((app_id, state.queues[app_id].popleft()))
    ctx.last_granted = app_id


def _visit_budgeted(
    state: SchedulerState, ctx: SlotGrants, app_id: AppId, budget: int
) -> int:
    """RR/WRR visit: up to ``budget`` grants through the flow cursor."""
    made = 0
    while made < budget and state.backlogged(app_id):
        i = select_flow(state, app_id, ctx.residual)
        if i is None:
            ctx.blocked[app_id] = ctx.passes
            break
        _grant(state, ctx, app_id, i)
        made += 1
    return made


def _visit_drr(state: SchedulerState, ctx: SlotGrants, app_id: AppId) -> int:
    """DRR visit: credit one quantum, then serve while the deficit and the
    residual capacities allow. Capacity blocking caps and keeps the
    deficit; an emptied queue resets it."""
    deficit = state.deficit[app_id] + state.quantum[app_id]
    made = 0
    while True:
        i = select_flow(state, app_id, ctx.residual)
        if i is None:
            deficit = min(deficit, state.deficit_cap(app_id))
            ctx.blocked[app_id] = ctx.passes
            break
        cost = state.cost[app_id][i]
        if deficit < cost - _DEFICIT_EPS:
            break
        _grant(state, ctx, app_id, i)
        made += 1
        deficit -= cost
        if not state.backlogged(app_id):
            deficit = 0.0
            break
    state.deficit[app_id] = deficit
    return made


def _round_robin_slot(state: SchedulerState, ctx: SlotGrants) -> None:
    # every active app is backlogged when the slot starts; passes start
    # at the head and visit only apps that can still be granted
    i = state.active.index(state.head) if state.active else 0
    ring = state.active[i:] + state.active[:i]
    fruitless = 0
    while any(_fits(flow, ctx.residual) for a in ring for flow in state.flows[a]):
        ctx.passes += 1
        made = 0
        for app_id in ring:
            if state.policy is Policy.RR:
                made += _visit_budgeted(state, ctx, app_id, 1)
            elif state.policy is Policy.WRR:
                made += _visit_budgeted(state, ctx, app_id, int(state.apps[app_id].weight))
            else:
                made += _visit_drr(state, ctx, app_id)
        fruitless = 0 if made else fruitless + 1
        if fruitless > state.stall_guard:  # pragma: no cover - internal invariant
            raise RuntimeError("scheduler stalled with feasible capacity")
        # blocked and drained apps sit out the rest of the slot
        ring = [a for a in ring if a not in ctx.blocked and state.backlogged(a)]
    if state.policy is Policy.DRR:
        # each pass a blocked app sat out would have credited one quantum
        # and capped it again; replay those steps in the same float order
        for app_id, blocked_in in ctx.blocked.items():
            deficit, cap = state.deficit[app_id], state.deficit_cap(app_id)
            if deficit == cap:
                continue  # a capped deficit stays capped
            for _ in range(ctx.passes - blocked_in):
                deficit = min(deficit + state.quantum[app_id], cap)
                if deficit == cap:
                    break
            state.deficit[app_id] = deficit


def _fcfs_slot(state: SchedulerState, ctx: SlotGrants) -> None:
    # only a queue head can be granted, so a heap of heads keyed
    # (arrival_slot, app) yields the global FCFS order
    heads = [(q[0], a) for a, q in state.queues.items() if q]
    heapq.heapify(heads)
    while heads:
        _, app_id = heapq.heappop(heads)
        i = select_flow(state, app_id, ctx.residual)
        if i is None:
            # residuals only shrink within the slot, so the app's later
            # requests are blocked too: it leaves the heap for this slot
            continue
        _grant(state, ctx, app_id, i)  # pops the queue head
        queue = state.queues[app_id]
        if queue:
            heapq.heappush(heads, (queue[0], app_id))


def schedule_slot(state: SchedulerState, capacities: list[int]) -> SlotGrants:
    """Arbitrate one slot's grants against the sampled edge capacities,
    listed by dense link id; the list itself is left unchanged.

    Every grant decrements the residual of each edge on the granted
    flow's path and consumes one pending request. On return no further
    grant is capacity-feasible for any backlogged app.
    """
    if not isinstance(capacities, list):
        raise TypeError(f"capacities must be a list by link id, got {type(capacities).__name__}")
    # C-level scans; the generator only runs to name the offending edge
    if not all(map(int.__instancecheck__, capacities)) or min(capacities, default=0) < 0:
        e = next(e for e, c in enumerate(capacities) if not isinstance(c, int) or c < 0)
        raise ValueError(f"sampled capacity of edge {e} must be a non-negative integer")
    if len(capacities) < state.links_needed:
        raise ValueError(f"capacity list too short: {len(capacities)} < {state.links_needed} links")
    ctx = SlotGrants(residual=capacities.copy())
    if state.policy is Policy.FCFS:
        _fcfs_slot(state, ctx)
    else:
        _round_robin_slot(state, ctx)
    if ctx.last_granted is not None:
        ring = state.active
        i = ring.index(ctx.last_granted) + 1
        state.head = next((a for a in ring[i:] + ring[:i] if state.backlogged(a)), None)
        state.active = [a for a in ring if state.backlogged(a)]
    return ctx
