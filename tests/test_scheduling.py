import functools
import math
import random
from collections import Counter
from unittest import mock

import pytest

from conftest import line_graph, parking_lot, shared_link_apps, shared_link_graph
from gen import random_connected_graph
from qnetfair import (
    Application,
    ConfigError,
    CostMode,
    NetworkGraph,
    Node,
    NodeKind,
    Policy,
    QuantumLink,
    SchedulerState,
    Traffic,
    build_flows,
    enqueue_arrivals,
    poisson_sample,
    schedule_slot,
    select_flow,
)
from qnetfair import scheduling


def make_state(policy, graph, apps, assignment, traffic=Traffic.BACKLOGGED,
               cost_mode=CostMode.UNIT, quantum_base=1):
    flows = build_flows(graph, apps, assignment)
    return SchedulerState(policy, apps, flows, traffic, quantum_base, cost_mode)


def single_link_state(policy, weights, capacity, traffic=Traffic.BACKLOGGED, **kw):
    graph = shared_link_graph(capacity)
    apps = shared_link_apps(weights)
    assignment = {a.id: frozenset({1}) for a in apps}
    return make_state(policy, graph, apps, assignment, traffic, **kw), graph


def assert_conserved(sampled, result, flows_by_app):
    consumed = [0] * len(sampled)
    for (app_id, i), count in result.per_flow.items():
        for e in flows_by_app[app_id][i].edges:
            consumed[e] += count
    for e in range(len(sampled)):
        assert consumed[e] <= sampled[e]
        assert result.residual[e] == sampled[e] - consumed[e]
        assert result.residual[e] >= 0


def assert_work_conserving(state, residual):
    # no backlogged app may still have a flow with residual on every edge
    for app_id in state.active:
        for flow in state.flows[app_id]:
            assert any(residual[e] < 1 for e in flow.edges)


class TestConfigGuards:
    def test_fcfs_with_backlogged_rejected(self):
        with pytest.raises(ConfigError):
            single_link_state(Policy.FCFS, [1.0, 1.0], 1)

    def test_wrr_with_non_integer_weight_rejected(self):
        with pytest.raises(ConfigError):
            single_link_state(Policy.WRR, [1.5, 1.0], 1)

    def test_quantum_base_must_be_positive_integer(self):
        with pytest.raises(ConfigError):
            single_link_state(Policy.DRR, [1.0], 1, quantum_base=0)

    @pytest.mark.parametrize(
        "weight, quantum_base", [(1e-12, 1), (1.0, 10**400)], ids=["tiny_weight", "huge_base"]
    )
    def test_drr_quantum_must_be_finite_and_bound_fruitless_passes(self, weight, quantum_base):
        with pytest.raises(ConfigError, match=r"apps\[0\]\.weight: DRR quantum"):
            single_link_state(Policy.DRR, [weight], 1, quantum_base=quantum_base)
        state, _ = single_link_state(Policy.RR, [weight], 1, quantum_base=quantum_base)
        assert state.quantum == {}  # only DRR credits quanta

    @pytest.mark.parametrize("capacity", [-1, 1.5])
    def test_sampled_capacity_must_be_non_negative_integer(self, capacity):
        state, _ = single_link_state(Policy.RR, [1.0], 1)
        with pytest.raises(ValueError, match="edge 0"):
            schedule_slot(state, [capacity])

    def test_capacities_must_be_a_list(self):
        state, _ = single_link_state(Policy.RR, [1.0], 1)
        with pytest.raises(TypeError, match="list by link id"):
            schedule_slot(state, {0: 1})

    @pytest.mark.parametrize("policy", [Policy.FCFS, Policy.RR])
    def test_short_capacity_list_rejected_before_any_grant(self, policy):
        # line 0-1-2: app 0 crosses edge 0 only, app 1 edge 1 only, so a
        # one-entry list would let app 0 be granted before app 1's pick fails
        graph = line_graph([1.0, 1.0])
        apps = [
            Application(0, 0, 1.0, 1, frozenset({1})),
            Application(1, 1, 1.0, 1, frozenset({2})),
        ]
        assignment = {0: frozenset({1}), 1: frozenset({2})}
        state = make_state(policy, graph, apps, assignment, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 1, 1: 1})
        queues = {a: list(q) for a, q in state.queues.items()}
        before = (dict(state.cursor), list(state.active), state.head)
        with pytest.raises(ValueError, match="too short: 1 < 2 links"):
            schedule_slot(state, [2])
        assert {a: list(q) for a, q in state.queues.items()} == queues
        assert (dict(state.cursor), list(state.active), state.head) == before
        assert len(schedule_slot(state, [2, 2]).granted_requests) == 2


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

    def test_rejected_in_backlogged_mode(self):
        state, _ = single_link_state(Policy.RR, [1.0], 1)
        with pytest.raises(ConfigError):
            enqueue_arrivals(state, 0, {0: 1})

    def test_backlogged_apps_always_pending(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0], 1)
        assert state.backlogged(0) and state.backlogged(1)
        assert state.active == [0, 1]


class TestSelectFlow:
    def _two_flow_state(self):
        # app 0 can reach worker 1 (edge 0) or worker 2 (edge 1)
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(3)]
        links = [QuantumLink(0, (0, 1), 1, 1.0, 1.0), QuantumLink(1, (0, 2), 1, 1.0, 1.0)]
        g = NetworkGraph(nodes, links)
        apps = [Application(0, 0, 1.0, 2, frozenset({1, 2}))]
        return make_state(Policy.RR, g, apps, {0: frozenset({1, 2})})

    def test_single_feasible_flow(self):
        state, _ = single_link_state(Policy.RR, [1.0], 1)
        assert select_flow(state, 0, [1]) == 0
        assert state.flows[0][0].worker == 1

    def test_skips_infeasible_first_flow(self):
        state = self._two_flow_state()
        assert select_flow(state, 0, [0, 1]) == 1
        assert state.flows[0][1].worker == 2
        assert state.cursor[0] == 0  # advanced past flow index 1, wrapped

    def test_blocked_leaves_cursor(self):
        state = self._two_flow_state()
        state.cursor[0] = 1
        assert select_flow(state, 0, [0, 0]) is None
        assert state.cursor[0] == 1

    def test_cursor_rotates_between_grants(self):
        state = self._two_flow_state()
        first = select_flow(state, 0, [5, 5])
        second = select_flow(state, 0, [5, 5])
        assert (first, second) == (0, 1)
        assert {state.flows[0][first].worker, state.flows[0][second].worker} == {1, 2}


class TestDRR:
    def test_single_bottleneck_grants_match_weights_every_slot(self):
        state, _ = single_link_state(Policy.DRR, [1.0, 2.0, 3.0], 6)
        for _ in range(50):
            result = schedule_slot(state, [6])
            assert result.per_app() == {0: 1, 1: 2, 2: 3}
            for app_id, deficit in state.deficit.items():
                assert 0.0 <= deficit <= state.deficit_cap(app_id)

    def test_parking_lot_alternates(self):
        graph, apps, assignment = parking_lot()
        state = make_state(Policy.DRR, graph, apps, assignment)
        pattern = []
        totals = {0: 0, 1: 0, 2: 0}
        for _ in range(10):
            per_app = schedule_slot(state, [1, 1]).per_app()
            pattern.append(set(per_app))
            for a, c in per_app.items():
                totals[a] += c
        assert pattern == [{0}, {1, 2}] * 5
        assert totals == {0: 5, 1: 5, 2: 5}

    def test_deficit_zeroed_when_queue_drains(self):
        state, _ = single_link_state(Policy.DRR, [4.0], 10, Traffic.POISSON)
        enqueue_arrivals(state, 0, {0: 2})
        result = schedule_slot(state, [10])
        assert result.per_app() == {0: 2}
        assert state.deficit[0] == 0.0
        assert state.active == []
        assert state.head is None

    def test_blocked_deficit_capped(self):
        state, _ = single_link_state(Policy.DRR, [5.0], 1)
        for _ in range(10):
            schedule_slot(state, [1])
            assert state.deficit[0] <= state.deficit_cap(0)

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
            for a, c in schedule_slot(state, [3, 5]).per_app().items():
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
            assert schedule_slot(state, sampled).per_app() == {0: 1}

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
        assert [state.flows[a][i].worker for a, i in result.per_flow] == [1, 3]
        assert state.cursor[0] == 0
        assert state.deficit[0] == 0.0


class TestRR:
    def test_strict_alternation_on_unit_link(self):
        state, _ = single_link_state(Policy.RR, [1.0, 1.0], 1)
        grants = []
        for _ in range(6):
            per_app = schedule_slot(state, [1]).per_app()
            grants.append(next(iter(per_app)))
        assert grants == [0, 1, 0, 1, 0, 1]

    def test_spread_never_exceeds_one(self):
        for n in (2, 3, 5):
            state, _ = single_link_state(Policy.RR, [1.0] * n, 1)
            cum = dict.fromkeys(range(n), 0)
            for _ in range(200):
                for a, c in schedule_slot(state, [1]).per_app().items():
                    cum[a] += c
                assert max(cum.values()) - min(cum.values()) <= 1

    def test_weights_ignored(self):
        state, _ = single_link_state(Policy.RR, [1.0, 5.0], 4)
        result = schedule_slot(state, [4])
        assert result.per_app() == {0: 2, 1: 2}


class TestWRR:
    def test_grants_proportional_each_slot(self):
        state, _ = single_link_state(Policy.WRR, [1.0, 2.0, 3.0], 6)
        for _ in range(20):
            assert schedule_slot(state, [6]).per_app() == {0: 1, 1: 2, 2: 3}

    def test_cumulative_deviation_bounded_by_max_weight(self):
        weights = [1.0, 2.0, 3.0]
        state, _ = single_link_state(Policy.WRR, weights, 6)
        cum = {0: 0, 1: 0, 2: 0}
        for _ in range(200):
            for a, c in schedule_slot(state, [6]).per_app().items():
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


def _sorted_fcfs_slot(state, ctx):
    """Reference FCFS: sort every pending request, keyed by (arrival_slot,
    app, position in the app's queue), then scan them once."""
    pending = sorted(
        (arrival_slot, app_id, pos)
        for app_id, queue in state.queues.items()
        for pos, arrival_slot in enumerate(queue)
    )
    blocked = set()
    for arrival_slot, app_id, _ in pending:
        if app_id in blocked:
            continue  # an earlier request of this app was blocked
        i = scheduling.select_flow(state, app_id, ctx.residual)
        if i is None:
            blocked.add(app_id)
        else:
            scheduling._grant(state, ctx, app_id, i)
            assert ctx.granted_requests[-1] == (app_id, arrival_slot)


class TestFCFSOracle:
    """The heap of queue heads grants exactly what the sorted scan grants."""

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
    def _recording_select_flow(log):
        select = scheduling.select_flow

        def wrapped(state, app_id, residual):
            i = select(state, app_id, residual)
            log.append((app_id, i))
            return i
        return wrapped

    def test_matches_sorted_scan_every_slot(self):
        multi_hop = 0
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
                results = []
                for state, log, fcfs in zip(
                    states, calls, (scheduling._fcfs_slot, _sorted_fcfs_slot)
                ):
                    enqueue_arrivals(state, slot, arrivals)
                    select = self._recording_select_flow(log)
                    with mock.patch.object(scheduling, "_fcfs_slot", fcfs), \
                            mock.patch.object(scheduling, "select_flow", select):
                        results.append(schedule_slot(state, sampled))
                heap, ref = results
                where = f"seed {seed}, slot {slot}"
                assert heap.granted_requests == ref.granted_requests, where
                assert list(heap.per_flow.items()) == list(ref.per_flow.items()), where
                assert heap.residual == ref.residual, where
                assert calls[0] == calls[1], where
                a, b = states
                assert a.cursor == b.cursor, where
                assert {k: list(q) for k, q in a.queues.items()} == {
                    k: list(q) for k, q in b.queues.items()
                }, where
                assert (a.active, a.head) == (b.active, b.head), where
        assert multi_hop >= 100


def _visit_every_app_slot(state, ctx, skipped):
    """Reference round robin: every pass visits every backlogged app of the
    ring, including apps whose flows were capacity-blocked in an earlier
    pass, and rescans all of them for a feasible flow. ``skipped`` counts,
    per policy, the visits the scheduler under test leaves out."""
    i = state.active.index(state.head) if state.active else 0
    ring = state.active[i:] + state.active[:i]

    def feasible():
        return any(
            scheduling._fits(flow, ctx.residual)
            for a in ring
            if state.backlogged(a)
            for flow in state.flows[a]
        )

    fruitless = 0
    while feasible():
        made = 0
        for app_id in ring:
            if not state.backlogged(app_id):
                continue
            skipped[state.policy] += app_id in ctx.blocked
            if state.policy is Policy.RR:
                made += scheduling._visit_budgeted(state, ctx, app_id, 1)
            elif state.policy is Policy.WRR:
                budget = int(state.apps[app_id].weight)
                made += scheduling._visit_budgeted(state, ctx, app_id, budget)
            else:
                made += scheduling._visit_drr(state, ctx, app_id)
        if made == 0:
            if state.policy is not Policy.DRR:
                break
            fruitless += 1
            # only DRR has quanta
            assert fruitless <= 2 + max(
                math.ceil(state.max_cost[a] / state.quantum[a]) for a in state.apps
            )
        else:
            fruitless = 0


class TestRoundRobinOracle:
    """Skipping capacity-blocked apps, with the DRR credits replayed at the
    end of the slot, leaves every slot as visiting every app would."""

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

    def test_matches_visit_every_app_every_slot(self):
        skipped = Counter()
        reference = functools.partial(_visit_every_app_slot, skipped=skipped)
        rejoined = 0
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
                            results = []
                            for state, rr in zip(
                                states, (scheduling._round_robin_slot, reference)
                            ):
                                if traffic is Traffic.POISSON:
                                    enqueue_arrivals(state, slot, arrivals)
                                with mock.patch.object(scheduling, "_round_robin_slot", rr):
                                    results.append(schedule_slot(state, sampled))
                            fast, ref = results
                            where = f"seed {seed}, {policy}, {cost_mode}, {traffic}, slot {slot}"
                            assert list(fast.per_flow.items()) == list(ref.per_flow.items()), where
                            assert fast.granted_requests == ref.granted_requests, where
                            assert fast.residual == ref.residual, where
                            a, b = states
                            assert a.deficit == b.deficit, where
                            assert a.cursor == b.cursor, where
                            assert {k: list(q) for k, q in a.queues.items()} == {
                                k: list(q) for k, q in b.queues.items()
                            }, where
                            assert (a.active, a.head) == (b.active, b.head), where
                            rejoined += len(inactive.intersection(a.active))
                            inactive = set(a.apps).difference(a.active)
        assert rejoined >= 500
        # the skip is exercised under every policy
        assert min(skipped[p] for p in self.POLICIES) >= 1000, skipped


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
        assert result.per_app() == {0: 1, 1: 2}
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

    def test_fcfs_ring_matches_rr_after_drain(self):
        rings = {}
        for policy in (Policy.FCFS, Policy.RR):
            state, _ = single_link_state(policy, [1.0, 1.0, 1.0], 2, Traffic.POISSON)
            enqueue_arrivals(state, 0, {0: 1, 1: 2, 2: 1})
            result = schedule_slot(state, [2])
            assert [app for app, _ in result.granted_requests] == [0, 1]
            rings[policy] = (state.active, state.head)
        assert rings[Policy.FCFS] == rings[Policy.RR] == ([1, 2], 2)


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
            assert_conserved(sampled, result, state.flows)
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
                    (a, state.flows[a][i].worker, c) for (a, i), c in result.per_flow.items()
                ))
            return out

        assert run_once() == run_once()


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
            for a, c in schedule_slot(state, [capacity]).per_app().items():
                served[a] += c
            passes = slot * passes_per_slot
            for a in served:
                lag = abs(served[a] - passes * state.quantum[a])
                assert lag <= state.max_cost[a]
