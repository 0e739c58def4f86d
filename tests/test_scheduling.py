import contextlib
import dataclasses
import functools
import importlib.util
import math
import random
from collections import Counter
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import pytest

from conftest import line_graph, parking_lot, shared_link_apps, shared_link_graph
from gen import random_connected_graph, tree_chords_instance
from qnetfair import (
    Application,
    CapacityMode,
    ConfigError,
    CostMode,
    NetworkGraph,
    Node,
    NodeKind,
    Policy,
    QuantumLink,
    Traffic,
    build_flows,
    host_flows,
    poisson_sample,
)
import qnetfair
from qnetfair import cli, engine, fairshare, routing, scenario_io, scheduling, validate
from qnetfair.scheduling import SchedulerState, SlotGrants

ROOT = Path(__file__).resolve().parent.parent

# the slot kernel, which the run alone calls with lists it built itself
schedule_slot = scheduling._schedule_slot


def enqueue_arrivals(state, slot, arrivals):
    """Queue ``arrivals``, counts by app id, as the run queues its own
    draws: a count per app in app-id order, 0 for an app not named."""
    scheduling._enqueue_arrivals(state, slot, [arrivals.get(a, 0) for a in range(len(state.apps))])


def make_state(policy, graph, apps, assignment, traffic=Traffic.BACKLOGGED,
               cost_mode=CostMode.UNIT, quantum_base=1):
    flows = build_flows(graph, apps, assignment)
    return SchedulerState(policy, apps, flows, traffic, quantum_base, cost_mode)


def single_link_state(policy, weights, capacity, traffic=Traffic.BACKLOGGED, **kw):
    graph = shared_link_graph(capacity)
    apps = shared_link_apps(weights)
    assignment = {a.id: frozenset({1}) for a in apps}
    return make_state(policy, graph, apps, assignment, traffic, **kw), graph


def per_app(state, result):
    """A slot's grants summed by app, in the order of each app's first grant."""
    out = {}
    for f, count in result.per_flow.items():
        app_id = state.flow_app[f]
        out[app_id] = out.get(app_id, 0) + count
    return out


def app_flows(state, app_id):
    """Flat indices of the app's flows, in worker order."""
    return range(state.first_flow[app_id], state.first_flow[app_id + 1])


def fits(state, f, residual):
    """A grant needs one pair of residual capacity on every path edge."""
    return all(residual[e] >= 1 for e in state.flows[f].edges)


def slot_ctx(state, residual):
    """SlotGrants at the start of a slot, its live flags read off ``residual``."""
    live = [fits(state, f, residual) for f in range(len(state.flows))]
    live_count = [sum(live[f] for f in app_flows(state, a)) for a in range(len(state.apps))]
    return SlotGrants(residual, {}, [], None, 0, {}, live, live_count)


@contextlib.contextmanager
def wrapped_visits(state, wrap):
    """In the block, each slot of ``state`` visits through what
    ``wrap(ctx, visit)`` returns. ``wrap`` gets the slot's SlotGrants and
    the state's own visit step before the step is bound to the slot, and
    the kernels call whatever ``state.visit`` holds once ``state.bind_slot``
    has run."""
    bind, visit = state.bind_slot, state.visit

    def bind_slot(ctx):
        state.visit = wrap(ctx, visit)
        bind(ctx)

    with mock.patch.multiple(state, bind_slot=bind_slot, visit=visit):
        yield


def assert_conserved(sampled, result, state):
    consumed = [0] * len(sampled)
    for f, count in result.per_flow.items():
        for e in state.flows[f].edges:
            consumed[e] += count
    for e in range(len(sampled)):
        assert consumed[e] <= sampled[e]
        assert result.residual[e] == sampled[e] - consumed[e]
        assert result.residual[e] >= 0


def assert_work_conserving(state, residual):
    # no backlogged app may still have a flow with residual on every edge
    for app_id in state.active:
        for f in app_flows(state, app_id):
            assert not fits(state, f, residual)


class TestQuanta:
    # the policy and quantum rules are validation's (test_model.py's
    # TestConfigDiagnostics and TestDRRQuantumDiagnostics)
    @pytest.mark.parametrize(
        "weight, quantum_base", [(1e-12, 1), (1.0, 10**400)], ids=["tiny_weight", "huge_base"]
    )
    def test_only_drr_credits_quanta(self, weight, quantum_base):
        state, _ = single_link_state(Policy.RR, [weight], 1, quantum_base=quantum_base)
        assert state.quantum == []


class TestEnqueueArrivals:
    def test_first_arrival_activates_app(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0], 1, Traffic.POISSON)
        assert state.active == [] and state.head is None
        enqueue_arrivals(state, 0, {0: 1})
        assert state.active == [0]
        assert state.head == 0
        assert len(state.queues[0]) == 1

    def test_fifo_arrival_slots(self):
        state, _ = single_link_state(Policy.RR, [1.0], 1, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 2})
        enqueue_arrivals(state, 3, {0: 1})
        assert list(state.queues[0]) == [0, 0, 3]

    def test_counts_queue_fifo_and_join_the_ring_tail(self):
        # against a plain model of the kernel's contract, with slots between
        # that drain queues, so apps leave the ring and rejoin it; FCFS
        # keeps no ring
        def queued(state):
            return {a: list(q) for a, q in state.queues.items()}, list(state.active), state.head

        for seed in range(40):
            rng = random.Random(seed)
            policy = rng.choice(list(Policy))
            weights = [float(rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
            state, _ = single_link_state(policy, weights, 2, Traffic.POISSON)
            for slot in range(60):
                counts = [rng.choice([0, 0, 0, 1, 2, rng.randint(0, 5)]) for _ in weights]
                queues, active, head = queued(state)
                for a, count in enumerate(counts):
                    if count and not queues[a] and policy is not Policy.FCFS:
                        active.append(a)
                        head = a if head is None else head
                    queues[a] += [slot] * count
                scheduling._enqueue_arrivals(state, slot, counts)
                assert queued(state) == (queues, active, head), (seed, slot)
                if policy is Policy.FCFS:
                    assert active == [] and head is None
                schedule_slot(state, [rng.randint(0, 3)])

    def test_backlogged_apps_always_pending(self):
        # no request is queued, yet every app of the ring is served
        state, _ = single_link_state(Policy.RR, [1.0, 1.0], 2)
        assert state.active == [0, 1]
        assert per_app(state, schedule_slot(state, [2])) == {0: 1, 1: 1}
        assert not any(state.queues.values())


class TestPick:
    """A visit picks the app's first live flow from its cursor on, in
    cyclic order, and moves the cursor past it."""

    def _two_flow_state(self):
        # app 0 can reach worker 1 (edge 0) or worker 2 (edge 1)
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(3)]
        links = [QuantumLink(0, (0, 1), 1, 1.0, 1.0), QuantumLink(1, (0, 2), 1, 1.0, 1.0)]
        g = NetworkGraph(nodes, links)
        apps = [Application(0, 0, 1.0, 2, frozenset({1, 2}))]
        return make_state(Policy.RR, g, apps, {0: frozenset({1, 2})})

    @staticmethod
    def _pick(state, residual):
        """The flow one RR visit of app 0 grants, or None when it is blocked."""
        ctx = slot_ctx(state, residual)
        state.bind_slot(ctx)
        if state.visit(0, state.budget[0]):
            return next(iter(ctx.per_flow))
        assert ctx.blocked == {0: 0}
        return None

    def test_single_feasible_flow(self):
        state, _ = single_link_state(Policy.RR, [1.0], 1)
        assert self._pick(state, [1]) == 0
        assert state.flows[0].worker == 1

    def test_skips_infeasible_first_flow(self):
        state = self._two_flow_state()
        assert self._pick(state, [0, 1]) == 1
        assert state.flows[1].worker == 2
        assert state.cursor[0] == 0  # advanced past flow 1, wrapped

    def test_blocked_leaves_cursor(self):
        state = self._two_flow_state()
        state.cursor[0] = 1
        assert self._pick(state, [0, 0]) is None
        assert state.cursor[0] == 1

    def test_cursor_rotates_between_grants(self):
        state = self._two_flow_state()
        first = self._pick(state, [5, 5])
        second = self._pick(state, [5, 5])
        assert (first, second) == (0, 1)
        assert {state.flows[first].worker, state.flows[second].worker} == {1, 2}

    def test_flat_numbering_in_app_then_worker_order(self):
        # app 1 is listed first and its flows are given in descending worker order
        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(4)],
            [QuantumLink(i, (0, i + 1), 1, 1.0, 1.0) for i in range(3)],
        )
        apps = [
            Application(1, 0, 1.0, 2, frozenset({2, 3})),
            Application(0, 0, 1.0, 1, frozenset({1})),
        ]
        flows = build_flows(graph, apps, {0: frozenset({1}), 1: frozenset({2, 3})})
        flows[1].reverse()
        state = SchedulerState(Policy.DRR, apps, flows, Traffic.BACKLOGGED)
        assert [(state.flow_app[f], fl.worker) for f, fl in enumerate(state.flows)] == [
            (0, 1), (1, 2), (1, 3)
        ]
        assert state.first_flow == [0, 1, 3] and state.flow_count == [1, 2]
        assert state.flow_edges == [(0,), (1,), (2,)]
        assert state.edge_flows == {0: [0], 1: [1], 2: [2]}
        assert state.cursor == [0, 1]

    @pytest.mark.parametrize("ids", [[1, 2], [0, 2], [0, 0]])
    def test_app_ids_must_be_dense(self, ids):
        graph = shared_link_graph(1)
        apps = [Application(i, 0, 1.0, 1, frozenset({1})) for i in ids]
        flows = {i: host_flows(graph, 0, [1]) for i in ids}
        with pytest.raises(ConfigError, match="app ids must be dense integers from 0"):
            SchedulerState(Policy.RR, apps, flows, Traffic.BACKLOGGED)

    def test_id_too_long_for_str_gets_the_dense_diagnostic(self):
        # repr of a list holding an int past 4300 digits raises ValueError
        apps = [Application(10**5000, 0, 1.0, 1, frozenset({1}))]
        with pytest.raises(ConfigError) as err:
            SchedulerState(Policy.RR, apps, {}, Traffic.BACKLOGGED)
        assert str(err.value) == (
            "app ids must be dense integers from 0, got a value too long to show"
        )

    def test_app_without_flows_is_named(self):
        # validation rejects such a scenario; a hand-built one reaches here
        graph = shared_link_graph(1)
        apps = [Application(i, 0, 1.0, 1, frozenset({1})) for i in range(2)]
        flows = {0: host_flows(graph, 0, [1]), 1: []}
        with pytest.raises(ConfigError) as err:
            SchedulerState(Policy.RR, apps, flows, Traffic.BACKLOGGED)
        assert str(err.value) == "app 1 has no flows"


class TestDRR:
    def test_single_bottleneck_grants_match_weights_every_slot(self):
        state, _ = single_link_state(Policy.DRR, [1.0, 2.0, 3.0], 6)
        for _ in range(50):
            result = schedule_slot(state, [6])
            assert per_app(state, result) == {0: 1, 1: 2, 2: 3}
            for app_id, deficit in enumerate(state.deficit):
                assert 0.0 <= deficit <= state.deficit_cap[app_id]

    def test_parking_lot_alternates(self):
        graph, apps, assignment = parking_lot()
        state = make_state(Policy.DRR, graph, apps, assignment)
        pattern = []
        totals = {0: 0, 1: 0, 2: 0}
        for _ in range(10):
            counts = per_app(state, schedule_slot(state, [1, 1]))
            pattern.append(set(counts))
            for a, c in counts.items():
                totals[a] += c
        assert pattern == [{0}, {1, 2}] * 5
        assert totals == {0: 5, 1: 5, 2: 5}

    def test_deficit_zeroed_when_queue_drains(self):
        state, _ = single_link_state(Policy.DRR, [4.0], 10, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 2})
        result = schedule_slot(state, [10])
        assert per_app(state, result) == {0: 2}
        assert state.deficit[0] == 0.0
        assert state.active == []
        assert state.head is None

    def test_ten_credits_of_a_tenth_cover_a_unit_cost(self):
        # ten quanta of 0.1 sum to just under 1 in floats; the slack of the
        # deficit-vs-cost comparison lets the tenth pass grant. Without it
        # the grant, and the slot, would wait for pass 11, still inside
        # the stall guard of 12
        assert sum([0.1] * 10) == 0.9999999999999999
        state, _ = single_link_state(Policy.DRR, [0.1], 1)
        assert (state.quantum, state.stall_guard) == ([0.1], 12)
        result = schedule_slot(state, [1])
        assert per_app(state, result) == {0: 1}
        assert result.passes == 10
        assert state.deficit[0] == 0.9999999999999999 - 1

    def test_blocked_deficit_capped(self):
        state, _ = single_link_state(Policy.DRR, [5.0], 1)
        for _ in range(10):
            schedule_slot(state, [1])
            assert state.deficit[0] <= state.deficit_cap[0]

    def test_hops_cost_charges_by_path_length(self):
        # app 0: 1-hop flow (cost 1); app 1: 2-hop flow (cost 2) sharing
        # edge 0; equal weights split edge capacity by resource footprint,
        # so grants settle at 2:1
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(3)]
        links = [QuantumLink(0, (0, 1), 3, 1.0, 1.0), QuantumLink(1, (1, 2), 5, 1.0, 1.0)]
        g = NetworkGraph(nodes, links)
        apps = [
            Application(0, 0, 1.0, 1, frozenset({1})),
            Application(1, 0, 1.0, 1, frozenset({2})),
        ]
        state = make_state(
            Policy.DRR, g, apps,
            {0: frozenset({1}), 1: frozenset({2})},
            cost_mode=CostMode.HOPS,
        )
        totals = {0: 0, 1: 0}
        for _ in range(40):
            for a, c in per_app(state, schedule_slot(state, [3, 5])).items():
                totals[a] += c
        assert totals[0] == pytest.approx(2 * totals[1], abs=2)

    def test_deficit_accumulates_toward_expensive_flow(self):
        # 3-hop flow costs 3 with quantum 1: grants still happen every
        # slot because passes keep crediting until the flow is affordable
        g = line_graph([1.0, 1.0, 1.0])
        apps = [Application(0, 0, 1.0, 1, frozenset({3}))]
        state = make_state(
            Policy.DRR, g, apps, {0: frozenset({3})}, cost_mode=CostMode.HOPS
        )
        sampled = [1, 1, 1]
        for _ in range(5):
            assert per_app(state, schedule_slot(state, sampled)) == {0: 1}

    def test_unaffordable_flow_still_advances_cursor(self):
        # app 0 reaches worker 1 over edge 0 (cost 1) and worker 3 over
        # edges 1, 2 (cost 2). With the cursor on the 2-hop flow, the first
        # visit picks it but cannot afford it; the cursor moves past it all
        # the same, so the next pass starts at worker 1.
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(4)]
        links = [
            QuantumLink(0, (0, 1), 1, 1.0, 1.0),
            QuantumLink(1, (0, 2), 1, 1.0, 1.0),
            QuantumLink(2, (2, 3), 1, 1.0, 1.0),
        ]
        apps = [Application(0, 0, 1.0, 2, frozenset({1, 3}))]
        state = make_state(
            Policy.DRR, NetworkGraph(nodes, links), apps, {0: frozenset({1, 3})},
            cost_mode=CostMode.HOPS,
        )
        state.cursor[0] = 1
        result = schedule_slot(state, [1, 1, 1])
        assert [state.flows[f].worker for f in result.per_flow] == [1, 3]
        assert state.cursor[0] == 0
        assert state.deficit[0] == 0.0


class TestRR:
    def test_strict_alternation_on_unit_link(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0], 1)
        grants = []
        for _ in range(6):
            grants.append(next(iter(per_app(state, schedule_slot(state, [1])))))
        assert grants == [0, 1, 0, 1, 0, 1]

    def test_spread_never_exceeds_one(self):
        for n in (2, 3, 5):
            state, _ = single_link_state(Policy.RR, [1.0] * n, 1)
            cum = dict.fromkeys(range(n), 0)
            for _ in range(200):
                for a, c in per_app(state, schedule_slot(state, [1])).items():
                    cum[a] += c
                assert max(cum.values()) - min(cum.values()) <= 1

    def test_weights_ignored(self):
        state, _ = single_link_state(Policy.RR, [1.0, 5.0], 4)
        result = schedule_slot(state, [4])
        assert per_app(state, result) == {0: 2, 1: 2}


class TestWRR:
    def test_grants_proportional_each_slot(self):
        state, _ = single_link_state(Policy.WRR, [1.0, 2.0, 3.0], 6)
        for _ in range(20):
            assert per_app(state, schedule_slot(state, [6])) == {0: 1, 1: 2, 2: 3}

    def test_cumulative_deviation_bounded_by_max_weight(self):
        weights = [1.0, 2.0, 3.0]
        state, _ = single_link_state(Policy.WRR, weights, 6)
        cum = {0: 0, 1: 0, 2: 0}
        for _ in range(200):
            for a, c in per_app(state, schedule_slot(state, [6])).items():
                cum[a] += c
            total = sum(cum.values())
            for a, w in enumerate(weights):
                assert abs(cum[a] - w / 6.0 * total) <= max(weights)


class TestFCFS:
    def _poisson_state(self, weights, capacity):
        return single_link_state(Policy.FCFS, weights, capacity, Traffic.POISSON)

    def test_grants_follow_global_arrival_order(self):
        state, _ = self._poisson_state([1.0, 1.0], 10)
        enqueue_arrivals(state, 0, {1: 2})
        enqueue_arrivals(state, 1, {0: 1})
        result = schedule_slot(state, [10])
        assert result.granted_requests == [(1, 0), (1, 0), (0, 1)]

    def test_same_app_served_in_arrival_order(self):
        state, _ = self._poisson_state([1.0], 10)
        enqueue_arrivals(state, 0, {0: 2})
        enqueue_arrivals(state, 1, {0: 1})
        assert schedule_slot(state, [2]).granted_requests == [(0, 0), (0, 0)]
        assert list(state.queues[0]) == [1]
        assert schedule_slot(state, [10]).granted_requests == [(0, 1)]

    def test_infeasible_requests_stay_queued(self):
        state, _ = self._poisson_state([1.0, 1.0], 10)
        enqueue_arrivals(state, 0, {0: 3, 1: 2})
        result = schedule_slot(state, [2])
        assert len(result.granted_requests) == 2
        assert len(state.queues[0]) + len(state.queues[1]) == 3
        # global (arrival_slot, app) order puts app 0's requests first
        assert result.granted_requests == [(0, 0), (0, 0)]
        assert {a: list(q) for a, q in state.queues.items()} == {0: [0], 1: [0, 0]}
        # next slot continues in order with the leftover capacity
        result = schedule_slot(state, [3])
        assert result.granted_requests == [(0, 0), (1, 0), (1, 0)]


def scan_select_flow(state, app_id, residual):
    """Reference pick, scanning residuals: the flat index of the app's
    first flow, from its cursor on in cyclic order, with residual >= 1 on
    every edge; the cursor moves past it. None, with the cursor unchanged,
    when no flow fits."""
    first, end = state.first_flow[app_id], state.first_flow[app_id + 1]
    start = state.cursor[app_id]
    for f in [*range(start, end), *range(first, start)]:
        if fits(state, f, residual):
            state.cursor[app_id] = f + 1 if f + 1 < end else first
            return f
    return None


def scan_grant(state, ctx, f):
    """Reference grant: one pair off every edge of flow f, with no live flags."""
    for e in state.flows[f].edges:
        ctx.residual[e] -= 1
    ctx.per_flow[f] = ctx.per_flow.get(f, 0) + 1
    app_id = state.flow_app[f]
    if state.poisson:
        ctx.granted_requests.append((app_id, state.queues[app_id].popleft()))
    ctx.last_granted = app_id


def _sorted_fcfs_slot(state, ctx, log):
    """Reference FCFS: sort every pending request, keyed by (arrival_slot,
    app, position in the app's queue), then scan them once with the
    residual-scanning pick, logging (app, picked flow or None) to ``log``."""
    pending = sorted(
        (arrival_slot, app_id, pos)
        for app_id, queue in state.queues.items()
        for pos, arrival_slot in enumerate(queue)
    )
    blocked = set()
    for arrival_slot, app_id, _ in pending:
        if app_id in blocked:
            continue  # an earlier request of this app was blocked
        f = scan_select_flow(state, app_id, ctx.residual)
        log.append((app_id, f))
        if f is None:
            blocked.add(app_id)
        else:
            scan_grant(state, ctx, f)
            assert ctx.granted_requests[-1] == (app_id, arrival_slot)


class _PickLog(dict):
    """A slot's grants by flow that logs (app, flow) for each grant."""

    def __init__(self, grants, flow_app, log):
        super().__init__(grants)
        self.flow_app, self.log = flow_app, log

    def __setitem__(self, f, count):
        self.log.append((self.flow_app[f], f))
        super().__setitem__(f, count)


class TestFCFSOracle:
    """The heap of queue heads over live flags grants exactly what the
    sorted scan over residuals grants."""

    def _instance(self, rng):
        n = rng.randint(5, 10)
        graph = random_connected_graph(rng, n, extra_edges=rng.randint(0, 3), cap_range=(1, 4))
        overloaded = rng.random() < 0.5
        apps, assignment = [], {}
        for i in range(rng.randint(2, 5)):
            host = rng.randrange(n)
            others = [x for x in range(n) if x != host]
            workers = frozenset(rng.sample(others, rng.randint(1, 3)))
            rate = rng.uniform(1.5, 4.0) if overloaded else rng.uniform(0.1, 1.0)
            apps.append(Application(i, host, 1.0, len(workers), workers, arrival_rate=rate))
            assignment[i] = workers
        flows = build_flows(graph, apps, assignment)
        return graph, apps, flows

    @staticmethod
    def _recording_visit(state, log, visits):
        """For ``wrapped_visits``: the visit step logging, in order, (app,
        flow) for each of its picks and (app, None) when it blocks the app;
        ``visits`` collects (app, budget, grants) for each visit."""
        def wrap(ctx, visit):
            ctx.per_flow = _PickLog(ctx.per_flow, state.flow_app, log)

            def wrapped(app_id, budget):
                picks = len(log)
                made = visit(app_id, budget)
                assert made == len(log) - picks <= budget
                assert all(a == app_id for a, _ in log[picks:])
                if app_id in ctx.blocked:  # an app leaves the heap when blocked
                    log.append((app_id, None))
                visits.append((app_id, budget, made))
                return made
            return wrapped
        return wrap

    def _slot(self, states, calls, slot, arrivals, sampled, where):
        """Queue ``arrivals`` of ``slot`` in both states, then run the slot
        on ``sampled`` through the heap on states[0] and the sorted scan on
        states[1], logging their picks to ``calls``, and assert that they
        agree. Returns the heap's visits as (app, budget, grants)."""
        visits = []
        for state in states:
            enqueue_arrivals(state, slot, arrivals)
        with wrapped_visits(states[0], self._recording_visit(states[0], calls[0], visits)):
            heap = schedule_slot(states[0], sampled)
        reference = functools.partial(_sorted_fcfs_slot, log=calls[1])
        with mock.patch.object(scheduling, "_fcfs_slot", reference):
            ref = schedule_slot(states[1], sampled)
        where = f"{where}, slot {slot}"
        assert heap.granted_requests == ref.granted_requests, where
        assert list(heap.per_flow.items()) == list(ref.per_flow.items()), where
        assert heap.residual == ref.residual, where
        assert calls[0] == calls[1], where
        a, b = states
        assert a.cursor == b.cursor, where
        assert {k: list(q) for k, q in a.queues.items()} == {
            k: list(q) for k, q in b.queues.items()
        }, where
        assert (a.active, a.head) == (b.active, b.head) == ([], None), where
        return visits

    def test_matches_sorted_scan_every_slot(self):
        multi_hop = 0
        runs = Counter()
        for seed in range(120):
            rng = random.Random(7000 + seed)
            graph, apps, flows = self._instance(rng)
            multi_hop += any(len(f.edges) > 1 for fs in flows.values() for f in fs)
            states = [
                SchedulerState(Policy.FCFS, apps, flows, Traffic.POISSON) for _ in range(2)
            ]
            calls = ([], [])
            for slot in range(60):
                # arrivals pause for slots 25..39 so backlogs drain and rejoin
                arrivals = {
                    a.id: 0 if 25 <= slot < 40 else poisson_sample(a.arrival_rate, rng)
                    for a in apps
                }
                sampled = [rng.randint(0, l.capacity_max) for l in graph.links]
                visits = self._slot(states, calls, slot, arrivals, sampled, f"seed {seed}")
                for _, budget, made in visits:
                    runs["granted a run of 2 or more"] += made > 1
                    runs["blocked partway through a run"] += 0 < made < budget
        assert multi_hop >= 100
        assert min(runs.values()) >= 1000, runs

    # a fork of three links from the hosts' node 0: app 0 reaches worker 1
    # over link 0 and worker 3 over links 1 and 2, app 1 worker 2 over link
    # 1, and app 2 worker 1 over link 0. Each case is its slots' (arrivals,
    # sampled), and the heap's visits in the last slot as (app, run, grants)
    EDGE_CASES = {
        # app 0's run takes its requests of slot 1 too, which come before
        # app 1's head (1, 1), and drains its queue; app 1 is then alone
        "tie_lower_app_popped_first": (
            [({0: 1}, [0, 0, 0]), ({0: 2, 1: 2}, [5, 5, 5])], [(0, 3, 3), (1, 2, 2)]
        ),
        # app 1's run stops before its requests of slot 1, which come after
        # app 0's head (1, 0)
        "tie_higher_app_popped_first": (
            [({1: 1}, [0, 0, 0]), ({0: 2, 1: 2}, [5, 5, 5])], [(1, 1, 1), (0, 2, 2), (1, 2, 2)]
        ),
        # app 0's two picks saturate all three links before its run of 3 ends
        "run_blocked_partway": ([({0: 5}, [0, 0, 0]), ({1: 1}, [1, 1, 1])], [(0, 3, 2), (1, 1, 0)]),
        "lone_app_drains": ([({0: 3}, [5, 5, 5])], [(0, 3, 3)]),
        # the bisect looks at 4 of app 0's 200 requests, the slot's pairs:
        # the app is popped again and then blocked
        "queue_deeper_than_the_bisect_bound": (
            [({0: 200}, [0, 0, 0]), ({2: 1}, [4, 0, 0])], [(0, 4, 4), (0, 4, 0), (2, 1, 0)]
        ),
    }

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases_of_a_run(self, case):
        slots, last_visits = self.EDGE_CASES[case]
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(4)]
        links = [QuantumLink(i, ends, 5, 1.0, 1.0) for i, ends in enumerate([(0, 1), (0, 2), (2, 3)])]
        graph = NetworkGraph(nodes, links)
        workers = [frozenset({1, 3}), frozenset({2}), frozenset({1})]
        apps = [Application(a, 0, 1.0, len(w), w, arrival_rate=1.0) for a, w in enumerate(workers)]
        flows = build_flows(graph, apps, dict(enumerate(workers)))
        states = [SchedulerState(Policy.FCFS, apps, flows, Traffic.POISSON) for _ in range(2)]
        calls = ([], [])
        for slot, (arrivals, sampled) in enumerate(slots):
            visits = self._slot(states, calls, slot, arrivals, sampled, case)
        assert visits == last_visits

    def test_a_run_of_zero_raises_at_once(self):
        # a run of 0 would grant 0, which is not less than the run, so the
        # app would go back on the heap with the same head forever
        state, _ = single_link_state(Policy.FCFS, [1.0, 1.0], 4, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 2, 1: 1})
        visits = []

        def counted(ctx, visit):
            def wrapped(app_id, budget):
                visits.append((app_id, budget))
                return visit(app_id, budget)
            return wrapped

        with wrapped_visits(state, counted), mock.patch.object(
            scheduling, "bisect_left", lambda *args: 0
        ), mock.patch.object(scheduling, "bisect_right", lambda *args: 0):
            with pytest.raises(RuntimeError, match=r"^FCFS run of 0 for app 0 at head 0$"):
                schedule_slot(state, [4])
        assert visits == []


def _visit_every_app_slot(state, ctx, skipped):
    """Reference round robin over residuals: every pass visits every
    backlogged app of the ring, including apps whose flows were
    capacity-blocked in an earlier pass, and rescans all of them for a
    feasible flow; passes run while a backlogged app of the ring has a flow
    that fits. ``skipped`` counts, per policy, the visits the scheduler
    under test leaves out."""
    i = state.active.index(state.head) if state.active else 0
    ring = state.active[i:] + state.active[:i]

    def backlogged(app_id):
        return not state.poisson or bool(state.queues[app_id])

    def feasible():
        return any(
            fits(state, f, ctx.residual)
            for a in ring
            if backlogged(a)
            for f in app_flows(state, a)
        )

    blocked = set()
    # DRR apps whose deficit a skipped visit took to the cap, and those of
    # them skipped again after that: the scheduler's replay stops partway
    capped, capped_partway = set(), set()
    fruitless = 0
    while feasible():
        made = 0
        for app_id in ring:
            if not backlogged(app_id):
                continue
            skipped[state.policy] += app_id in blocked
            if state.policy is Policy.DRR:
                deficit, cap = state.deficit[app_id], state.deficit_cap[app_id]
                if app_id in capped:
                    capped_partway.add(app_id)
                elif app_id in blocked and deficit < cap <= deficit + state.quantum[app_id]:
                    capped.add(app_id)
                deficit = state.deficit[app_id] + state.quantum[app_id]
                while True:
                    f = scan_select_flow(state, app_id, ctx.residual)
                    if f is None:
                        deficit = min(deficit, state.deficit_cap[app_id])
                        blocked.add(app_id)
                        break
                    if deficit < state.cost[f] - scheduling._DEFICIT_EPS:
                        break
                    scan_grant(state, ctx, f)
                    made += 1
                    deficit -= state.cost[f]
                    if not backlogged(app_id):
                        deficit = 0.0
                        break
                state.deficit[app_id] = deficit
            else:
                budget = 1 if state.policy is Policy.RR else int(state.apps[app_id].weight)
                for _ in range(budget):
                    if not backlogged(app_id):
                        break
                    f = scan_select_flow(state, app_id, ctx.residual)
                    if f is None:
                        blocked.add(app_id)
                        break
                    scan_grant(state, ctx, f)
                    made += 1
        if made == 0:
            if state.policy is not Policy.DRR:
                break
            fruitless += 1
            # only DRR has quanta
            assert fruitless <= 2 + max(
                math.ceil(c / q) for c, q in zip(state.max_cost, state.quantum)
            )
        else:
            fruitless = 0
    skipped["replay capped partway"] += len(capped_partway)


class TestRoundRobinOracle:
    """Live flags, skipping capacity-blocked apps and replaying their DRR
    credits at the end of the slot leave every slot as visiting every app
    and scanning residuals would."""

    POLICIES = (Policy.RR, Policy.WRR, Policy.DRR)

    def _instance(self, rng):
        n = rng.randint(5, 9)
        graph = random_connected_graph(rng, n, extra_edges=rng.randint(0, 3), cap_range=(1, 4))
        overloaded = rng.random() < 0.5
        apps = {policy: [] for policy in self.POLICIES}
        assignment = {}
        for i in range(rng.randint(2, 4)):
            host = rng.randrange(n)
            others = [x for x in range(n) if x != host]
            workers = frozenset(rng.sample(others, rng.randint(1, 3)))
            rate = rng.uniform(1.5, 4.0) if overloaded else rng.uniform(0.1, 1.0)
            # small non-integer quanta keep replayed DRR credits below the cap,
            # where repeated float addition and a product round differently
            real = rng.choice([0.3, 0.7, 1.0, 1.3, 2.5])
            for policy in self.POLICIES:
                weight = float(rng.randint(1, 3)) if policy is Policy.WRR else real
                apps[policy].append(
                    Application(i, host, weight, len(workers), workers, arrival_rate=rate)
                )
            assignment[i] = workers
        return graph, apps, assignment

    @staticmethod
    def _counting_visit(policy, counts):
        """For ``wrapped_visits``: the visit step counting, by policy, the
        visits that start with no live flow."""
        def wrap(ctx, visit):
            def wrapped(app_id, budget):
                counts[policy] += not ctx._live_count[app_id]
                return visit(app_id, budget)
            return wrapped
        return wrap

    def _slot(self, states, sampled, reference, dead_visits, where):
        """Run one slot on ``sampled`` through the kernel on states[0] and
        ``reference`` on states[1], and assert that they agree. Returns the
        kernel's SlotGrants."""
        a, b = states
        with wrapped_visits(a, self._counting_visit(a.policy, dead_visits)):
            fast = schedule_slot(a, sampled)
        with mock.patch.object(scheduling, "_round_robin_slot", reference):
            ref = schedule_slot(b, sampled)
        assert list(fast.per_flow.items()) == list(ref.per_flow.items()), where
        assert fast.granted_requests == ref.granted_requests, where
        assert fast.residual == ref.residual, where
        assert fast._live == [fits(a, f, fast.residual) for f in range(len(a.flows))], where
        assert a.deficit == b.deficit, where
        assert a.cursor == b.cursor, where
        assert {k: list(q) for k, q in a.queues.items()} == {
            k: list(q) for k, q in b.queues.items()
        }, where
        assert (a.active, a.head) == (b.active, b.head), where
        return fast

    def test_matches_visit_every_app_every_slot(self):
        skipped = Counter()
        reference = functools.partial(_visit_every_app_slot, skipped=skipped)
        # visits of the scheduler under test that start with no live flow,
        # which it ends in one step
        dead_visits = Counter()
        rejoined = 0
        # DRR apps of the ring with no flow that fits the sample and a
        # deficit below its cap: pass 1 must still credit them
        dead_at_start = 0
        for seed in range(120):
            rng = random.Random(9100 + seed)
            graph, apps_by_policy, assignment = self._instance(rng)
            for policy in self.POLICIES:
                apps = apps_by_policy[policy]
                flows = build_flows(graph, apps, assignment)
                for cost_mode in (CostMode.UNIT, CostMode.HOPS):
                    for traffic in (Traffic.BACKLOGGED, Traffic.POISSON):
                        states = [
                            SchedulerState(policy, apps, flows, traffic, 1, cost_mode)
                            for _ in range(2)
                        ]
                        inactive = set()
                        for slot in range(24):
                            sampled = [rng.randint(0, l.capacity_max) for l in graph.links]
                            # arrivals pause for slots 8..15 so backlogs drain and rejoin
                            arrivals = {
                                a.id: 0 if 8 <= slot < 16 else poisson_sample(a.arrival_rate, rng)
                                for a in apps
                            }
                            a, b = states
                            if traffic is Traffic.POISSON:
                                enqueue_arrivals(a, slot, arrivals)
                                enqueue_arrivals(b, slot, arrivals)
                            if policy is Policy.DRR:
                                dead_at_start += sum(
                                    a.deficit[app] < a.deficit_cap[app]
                                    and not any(fits(a, f, sampled) for f in app_flows(a, app))
                                    for app in a.active
                                )
                            where = f"seed {seed}, {policy}, {cost_mode}, {traffic}, slot {slot}"
                            self._slot(states, sampled, reference, dead_visits, where)
                            rejoined += len(inactive.intersection(a.active))
                            inactive = set(range(len(a.apps))).difference(a.active)
        assert rejoined >= 500
        assert dead_at_start >= 500
        # the skip and the one-step visit are exercised under every policy
        assert min(skipped[p] for p in self.POLICIES) >= 1000, skipped
        assert min(dead_visits[p] for p in self.POLICIES) >= 5000, dead_visits
        assert skipped["replay capped partway"] >= 500, skipped

    def test_matches_visit_every_app_on_the_benchmark_shape(self):
        # net500-drr's shape at 250 nodes: a tree with chords, 50 apps on
        # greedy pools, backlogged DRR with non-integer weights and each
        # link's capacity drawn per slot as a run draws it
        rng = random.Random(9300)
        graph, apps = tree_chords_instance(rng, 250, 375, 62, 50)
        apps = [
            dataclasses.replace(app, weight=rng.choice([0.3, 0.7, 1.3, 2.5])) for app in apps
        ]
        flows = build_flows(graph, apps, fairshare.assign_greedy(graph, apps))
        states = [SchedulerState(Policy.DRR, apps, flows, Traffic.BACKLOGGED) for _ in range(2)]
        links = sorted(graph.links, key=lambda l: l.id)
        sample = engine.capacity_sampler(links, CapacityMode.STOCHASTIC, rng)
        skipped, dead_visits, passes = Counter(), Counter(), []
        reference = functools.partial(_visit_every_app_slot, skipped=skipped)
        for slot in range(40):
            fast = self._slot(states, sample(), reference, dead_visits, f"slot {slot}")
            passes.append(fast.passes)
            # every app ends the slot blocked by capacity: no flow fits
            assert not any(fast._live), f"slot {slot}"
        assert sum(passes) / len(passes) >= 3, passes
        # blocked apps sit out later passes, and visits that start dead end in one step
        assert skipped[Policy.DRR] > 0 and dead_visits[Policy.DRR] > 0, (skipped, dead_visits)


class TestBenchmarkTracerContract:
    """perfbench/tracer.py counts a slot's grants as the sum of
    ``SlotGrants.per_flow.values()`` and the requests left queued as the
    sum of ``len`` over ``SchedulerState.queues.values()``; were either a
    list, a traced benchmark run would raise AttributeError."""

    @staticmethod
    def _slot():
        state, _ = single_link_state(Policy.RR, [1.0, 1.0], 2, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 3, 1: 1})
        return state

    def test_grants_and_queues_are_mappings(self):
        state = self._slot()
        result = schedule_slot(state, [2])
        assert isinstance(result.per_flow, Mapping)
        assert list(result.per_flow.values()) == [1, 1]
        assert isinstance(state.queues, Mapping)
        assert [len(q) for q in state.queues.values()] == [2, 0]

    @staticmethod
    def _tracer_module():
        path = ROOT / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        return tracer_module

    def test_the_committed_tracer_reads_them(self):
        tracer_module = self._tracer_module()
        tracer = tracer_module.Tracer()
        state = self._slot()
        # the tracer counts grants on its "scheduling.schedule_slot" target,
        # here wrapped around the kernel that the run calls
        tracer.wrap("scheduling.schedule_slot", scheduling._schedule_slot)(state, [2])
        assert (tracer.grants, tracer.pending_end()) == (2, 2)

    # targets that the program no longer has or no longer calls; a change
    # that inlines or stops calling any other target makes its metrics read 0.
    # poisson_sample runs only in the forked producer of a run's draws, and
    # schedule_slot and enqueue_arrivals are gone: the run calls the kernels
    # _schedule_slot and _enqueue_arrivals
    RETIRED = {
        "routing.shortest_path",
        "engine.sample_capacity",
        "engine.poisson_sample",
        "scheduling.select_flow",
        "scheduling.schedule_slot",
        "scheduling.enqueue_arrivals",
    }

    def test_only_retired_targets_read_no_calls(self, tmp_path, capsys):
        tracer_module = self._tracer_module()
        tracer = tracer_module.Tracer()
        config = str(ROOT / "scenarios" / "mesh_poisson.json")
        modules = [qnetfair, cli, engine, fairshare, routing, scenario_io, scheduling, validate]
        # two CPUs, so the run forks its producer on a one-CPU host too
        with tracer_module.installed(tracer, modules), \
                mock.patch.object(fairshare.os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            assert cli.main(
                ["run", "--config", config, "--slots", "400", "--output-dir", str(tmp_path)]
            ) == 0
            assert cli.main(["assign", "--config", config, "--solver", "exhaustive"]) == 0
        capsys.readouterr()
        calls = tracer.metrics()
        silent = {t for t in tracer_module.TARGETS if not calls[f"{t}.calls"]}
        assert silent == self.RETIRED


class TestPointerPersistence:
    def test_head_moves_to_successor_of_last_granted(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0, 1.0], 1)
        assert state.head == 0
        schedule_slot(state, [1])  # grants app 0
        assert state.head == 1
        schedule_slot(state, [1])  # grants app 1
        assert state.head == 2
        schedule_slot(state, [1])  # grants app 2, wraps
        assert state.head == 0

    def test_head_unchanged_without_grants(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0], 1)
        schedule_slot(state, [0])
        assert state.head == 0

    def test_head_valid_after_drained_app_leaves(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0], 3, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 1, 1: 3})
        result = schedule_slot(state, [3])
        # app 0 drained and left; head must reference a live app or None
        assert per_app(state, result) == {0: 1, 1: 2}
        assert state.active == [1]
        assert state.head == 1
        schedule_slot(state, [5])
        assert state.active == [] and state.head is None

    def test_second_pass_starts_after_drained_head(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0, 1.0], 1, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 3, 1: 1, 2: 2})
        schedule_slot(state, [1])  # grants app 0
        assert state.head == 1
        # pass 1 runs 1, 2, 0 and drains app 1, the head; pass 2 starts at 2
        result = schedule_slot(state, [4])
        assert result.granted_requests == [(1, 0), (2, 0), (0, 0), (2, 0)]
        # app 2 drained on the last grant; the head moves past it, wrapping
        assert state.active == [0]
        assert state.head == 0

    def test_head_skips_last_granted_app_that_drains(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0, 1.0], 3, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 2, 1: 2, 2: 1})
        result = schedule_slot(state, [3])
        assert [app for app, _ in result.granted_requests] == [0, 1, 2]
        assert state.active == [0, 1]
        assert state.head == 0

    def test_head_stays_on_last_granted_app_when_it_is_the_only_one_left(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0, 1.0], 4, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 1, 1: 3, 2: 1})
        result = schedule_slot(state, [4])
        assert [app for app, _ in result.granted_requests] == [0, 1, 2, 1]
        assert state.active == [1]
        assert state.head == 1

    def test_fcfs_keeps_no_ring_after_drain(self):
        rings = {}
        for policy in (Policy.FCFS, Policy.RR):
            state, _ = single_link_state(policy, [1.0, 1.0, 1.0], 2, Traffic.POISSON)
            enqueue_arrivals(state, 0, {0: 1, 1: 2, 2: 1})
            result = schedule_slot(state, [2])
            assert [app for app, _ in result.granted_requests] == [0, 1]
            rings[policy] = (state.active, state.head)
        assert rings == {Policy.FCFS: ([], None), Policy.RR: ([1, 2], 2)}


class TestInvariants:
    def _random_multiflow_state(self, policy, rng):
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(5)]
        links = [
            QuantumLink(0, (0, 1), rng.randint(1, 3), 1.0, 1.0),
            QuantumLink(1, (1, 2), rng.randint(1, 3), 1.0, 1.0),
            QuantumLink(2, (0, 3), rng.randint(1, 3), 1.0, 1.0),
            QuantumLink(3, (3, 4), rng.randint(1, 3), 1.0, 1.0),
        ]
        g = NetworkGraph(nodes, links)
        apps = [
            Application(0, 0, 1.0, 2, frozenset({2, 4})),
            Application(1, 0, 2.0, 1, frozenset({1, 3})),
            Application(2, 1, 1.0, 1, frozenset({2})),
        ]
        assignment = {0: frozenset({2, 4}), 1: frozenset({1, 3}), 2: frozenset({2})}
        return make_state(policy, g, apps, assignment), g

    @pytest.mark.parametrize("policy", [Policy.RR, Policy.WRR, Policy.DRR])
    def test_conservation_and_work_conservation(self, policy):
        rng = random.Random(1000 + hash(policy.value) % 97)
        state, g = self._random_multiflow_state(policy, rng)
        for _ in range(100):
            sampled = [rng.randint(0, 3) for _ in range(4)]
            result = schedule_slot(state, sampled)
            assert_conserved(sampled, result, state)
            assert_work_conserving(state, result.residual)

    def test_deterministic_replay(self):
        def run_once():
            rng = random.Random(55)
            state, _ = self._random_multiflow_state(Policy.DRR, random.Random(9))
            out = []
            for _ in range(50):
                sampled = [rng.randint(0, 3) for _ in range(4)]
                result = schedule_slot(state, sampled)
                out.append(sorted(
                    (state.flow_app[f], state.flows[f].worker, c)
                    for f, c in result.per_flow.items()
                ))
            return out

        assert run_once() == run_once()

    def test_fruitless_passes_past_the_guard_raise(self):
        # a visit that grants nothing and blocks no app leaves every flow
        # live, so each pass is fruitless; the pass after stall_guard of
        # them raises. Weights 1 and 2 at unit cost give a guard of 3
        state, _ = single_link_state(Policy.DRR, [1.0, 2.0], 2)
        assert state.stall_guard == 3
        visits = []

        def fruitless(ctx, visit):
            def wrapped(app_id, budget):
                visits.append((ctx.passes, app_id))
                return 0
            return wrapped

        with wrapped_visits(state, fruitless):
            with pytest.raises(RuntimeError, match="^scheduler stalled with feasible capacity$"):
                schedule_slot(state, [2])
        assert visits == [(p, a) for p in range(1, state.stall_guard + 2) for a in (0, 1)]


class TestDRRBoundedLag:
    """With complete passes (capacity a multiple of the quanta sum) every
    continuously backlogged app's service stays within one max flow cost
    of passes * quantum."""

    @pytest.mark.parametrize("capacity,passes_per_slot", [(6, 1), (12, 2), (18, 3)])
    def test_service_tracks_quanta_per_pass(self, capacity, passes_per_slot):
        weights = [1.0, 2.0, 3.0]
        state, _ = single_link_state(Policy.DRR, weights, capacity)
        served = {0: 0, 1: 0, 2: 0}
        for slot in range(1, 101):
            for a, c in per_app(state, schedule_slot(state, [capacity])).items():
                served[a] += c
            passes = slot * passes_per_slot
            for a in served:
                lag = abs(served[a] - passes * state.quantum[a])
                assert lag <= state.max_cost[a]
