import dataclasses
import itertools
import math
import random
import time
from typing import Iterable, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from conftest import edges_along, line_graph, shared_link_apps, shared_link_graph
from gen import (
    dumbbell_instance,
    many_app_instance,
    pooled_instance,
    random_assignment_instance,
    random_connected_graph,
    random_maxmin_instance,
)
from qnetfair import (
    Application,
    NetworkGraph,
    Node,
    NodeKind,
    QuantumLink,
    SearchSpaceTooLarge,
    assign_exhaustive,
    assign_greedy,
    assign_random,
    eligible_workers,
    host_flows,
    jain_index,
    maxmin_rates,
    predicted_app_rates,
)
from qnetfair import fairshare
from qnetfair.fairshare import FlowKey, _pool_bound, progressive_fill
from qnetfair.routing import eligible_flows


def reference_maxmin(flow_edges, capacities, flow_weights):
    """The dict-keyed progressive filling that ``maxmin_rates`` replaced,
    kept unchanged as the exact-equality oracle for its index-form kernel."""
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
    """Check feasibility plus the max-min optimality certificate
    (Bertsekas & Gallager, *Data Networks*, section 6.5.2).

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


def count_fills(monkeypatch) -> list:
    """A list that grows by one entry per call ``fairshare`` makes to
    ``progressive_fill`` from now on."""
    calls = []

    def counted(*args):
        calls.append(None)
        return progressive_fill(*args)

    monkeypatch.setattr(fairshare, "progressive_fill", counted)
    return calls


def scored_assignments(graph, apps):
    """Every assignment in ``assign_exhaustive``'s order, with each app's
    weighted delivered rate (apps in id order) computed as the solver
    computes it: one ``progressive_fill`` per assignment, none skipped."""
    ordered = sorted(apps, key=lambda a: a.id)
    eligible = [eligible_flows(graph, app) for app in ordered]
    caps = graph.effective_capacities()
    weights = [a.weight / a.workers_needed for a in ordered for _ in range(a.workers_needed)]
    options = [itertools.combinations(f, a.workers_needed) for a, f in zip(ordered, eligible)]
    for combo in itertools.product(*options):
        flows = [f for pool in combo for f in pool]
        rates = progressive_fill(weights, [f.edges for f in flows], caps)
        delivered = iter([r * f.swap_prob for r, f in zip(rates, flows)])
        yield combo, [
            math.fsum(itertools.islice(delivered, a.workers_needed)) / a.weight for a in ordered
        ]


def unpruned_exhaustive(graph, apps):
    """``assign_exhaustive`` without its bound: the exact-equality oracle
    that pruning never changes the assignment, ties included."""
    ordered = sorted(apps, key=lambda a: a.id)
    best, best_score = None, None
    for combo, weighted in scored_assignments(graph, ordered):
        score = tuple(sorted(weighted))
        if best_score is None or score > best_score:
            best, best_score = combo, score
    return {app.id: frozenset(f.worker for f in pool) for app, pool in zip(ordered, best)}


def with_swap_probs(graph, rng):
    """The graph with each node's swap success probability drawn from
    {0.8, 0.9, 1.0}, so that pools differ in delivery, not only in rate."""
    nodes = [dataclasses.replace(n, swap_success_prob=rng.choice([0.8, 0.9, 1.0]))
             for n in graph.nodes]
    return NetworkGraph(nodes, graph.links)


def contended_pool_instance(rng):
    """Three apps on one 9-node graph, each choosing 2 of 4 candidates:
    216 assignments over shared edges of capacities 0.5 to 3."""
    graph = with_swap_probs(random_connected_graph(rng, 9, extra_edges=3), rng)
    apps = []
    for i in range(3):
        host = rng.randrange(9)
        cands = rng.sample([x for x in range(9) if x != host], 4)
        apps.append(Application(i, host, rng.choice([1.0, 2.0]), 2, frozenset(cands)))
    return graph, apps


class TestMaxminRates:
    def test_single_bottleneck_splits_by_weight(self):
        rates = maxmin_rates(
            {0: (0,), 1: (0,), 2: (0,)}, {0: 6.0}, {0: 1.0, 1: 2.0, 2: 3.0}
        )
        assert rates == {0: 1.0, 1: 2.0, 2: 3.0}

    def test_parking_lot_is_half_each(self):
        rates = maxmin_rates(
            {"A": (0, 1), "B": (0,), "C": (1,)},
            {0: 1.0, 1: 1.0},
            {"A": 1.0, "B": 1.0, "C": 1.0},
        )
        assert rates == {"A": 0.5, "B": 0.5, "C": 0.5}

    def test_series_links_bound_by_min_capacity(self):
        rates = maxmin_rates({0: (0, 1)}, {0: 1.0, 1: 2.0}, {0: 1.0})
        assert rates == {0: 1.0}

    def test_empty_flow_set(self):
        assert maxmin_rates({}, {0: 1.0}, {}) == {}

    def test_unequal_weights_two_bottlenecks(self):
        # flow 0 (w=1) shares edge 0 with flow 1 (w=3); flow 1 also needs
        # edge 1 of capacity 1: fill freezes flow 1 at rate 1 (t=1/3),
        # then flow 0 takes the rest of edge 0
        rates = maxmin_rates(
            {0: (0,), 1: (0, 1)}, {0: 4.0, 1: 1.0}, {0: 1.0, 1: 3.0}
        )
        assert rates[1] == pytest.approx(1.0)
        assert rates[0] == pytest.approx(3.0)

    def test_feasible_and_bottleneck_on_random_instances(self):
        rng = random.Random(606)
        for _ in range(300):
            flow_edges, caps, weights = random_maxmin_instance(rng)
            rates = maxmin_rates(flow_edges, caps, weights)
            assert verify_bottleneck(flow_edges, caps, weights, rates)

    # the parking lot: A crosses both unit edges, B and C one each
    PARKING_LOT = ({"A": (0, 1), "B": (0,), "C": (1,)}, {0: 1.0, 1: 1.0}, dict.fromkeys("ABC", 1.0))

    def test_certificate_holds_for_the_parking_lot_share(self):
        assert verify_bottleneck(*self.PARKING_LOT, {"A": 0.5, "B": 0.5, "C": 0.5})

    def test_certificate_rejects_an_overloaded_edge(self):
        # every flow has the top weighted rate of each edge it crosses,
        # but both edges carry 1.2
        assert not verify_bottleneck(*self.PARKING_LOT, {"A": 0.6, "B": 0.6, "C": 0.6})

    @pytest.mark.parametrize(
        "rates",
        [
            {"A": 0.5, "B": 0.4, "C": 0.5},  # B crosses only edge 0, which is not full
            {"A": 0.4, "B": 0.6, "C": 0.6},  # both edges full, A below a peer on each
        ],
    )
    def test_certificate_rejects_a_feasible_allocation_that_is_not_maxmin(self, rates):
        assert not verify_bottleneck(*self.PARKING_LOT, rates)

    @pytest.mark.parametrize("capacity, weight", [(float("nan"), 1.0), (1.0, float("nan"))])
    def test_nan_capacity_or_weight_rejected(self, capacity, weight):
        # a NaN fill limit never saturates, so filling would not finish
        with pytest.raises(ValueError, match="non-positive"):
            maxmin_rates({0: (1,), 1: (0,)}, {0: 1.0, 1: capacity}, {0: weight, 1: 1.0})

    def test_equals_reference_on_random_instances(self):
        rng = random.Random(6060)
        for _ in range(500):
            flow_edges, caps, weights = random_maxmin_instance(rng)
            assert maxmin_rates(flow_edges, caps, weights) == reference_maxmin(
                flow_edges, caps, weights
            )

    def test_equals_reference_on_every_exhaustive_assignment(self):
        # capacities in halves and weights of 0.5 or 1 make fill limits tie exactly
        for seed in (11, 12):
            graph, apps = contended_pool_instance(random.Random(seed))
            caps = graph.effective_capacities()
            pools = [itertools.combinations(eligible_flows(graph, a), 2) for a in apps]
            n = 0
            for combo in itertools.product(*pools):
                flow_edges, weights = {}, {}
                for app, pool in zip(apps, combo):
                    for f in pool:
                        flow_edges[(app.id, f.worker)] = f.edges
                        weights[(app.id, f.worker)] = app.weight / 2
                got = maxmin_rates(flow_edges, caps, weights)
                assert got == reference_maxmin(flow_edges, caps, weights)
                n += 1
            assert n == 6**3

    def test_fill_limits_within_tolerance_saturate_together(self):
        # edge 0's limit 1/(0.1+0.1+0.1) is one ulp below edge 1's 1/0.3;
        # both saturate in the first round, so flow 3 freezes at the lower
        flow_edges = {0: (0,), 1: (0,), 2: (0,), 3: (1,)}
        weights = {0: 0.1, 1: 0.1, 2: 0.1, 3: 0.3}
        rates = maxmin_rates(flow_edges, {0: 1.0, 1: 1.0}, weights)
        t_star = 1.0 / (0.1 + 0.1 + 0.1)
        assert t_star < 1.0 / 0.3
        assert rates == {0: 0.1 * t_star, 1: 0.1 * t_star, 2: 0.1 * t_star, 3: 0.3 * t_star}

    def test_adding_an_app_can_raise_another_apps_delivery(self):
        # app X: flow A on edge 1 (swap 1), flow B on edges 1 and 2 (swap
        # 0.5). App Y's flow on edge 2 slows B, which frees edge 1 for A,
        # so X delivers more with Y than alone: a standalone max-min rate
        # is no upper bound on an app's rate among others
        caps = {1: 1.0, 2: 0.2}
        swap = {"A": 1.0, "B": 0.5}

        def delivered_by_x(flow_edges):
            rates = maxmin_rates(flow_edges, caps, dict.fromkeys(flow_edges, 1.0))
            return math.fsum(rates[f] * swap[f] for f in swap)

        alone = {"A": (1,), "B": (1, 2)}
        assert maxmin_rates(alone, caps, dict.fromkeys(alone, 1.0)) == pytest.approx(
            {"A": 0.8, "B": 0.2}
        )
        assert delivered_by_x(alone) == pytest.approx(0.9)
        shared = dict(alone, Y=(2,))
        assert maxmin_rates(shared, caps, dict.fromkeys(shared, 1.0)) == pytest.approx(
            {"A": 0.9, "B": 0.1, "Y": 0.1}
        )
        assert delivered_by_x(shared) == pytest.approx(0.95)
        assert delivered_by_x(shared) > delivered_by_x(alone)

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=40)
    def test_scale_covariant(self, k):
        rng = random.Random(7)
        flow_edges, caps, weights = random_maxmin_instance(rng)
        base = maxmin_rates(flow_edges, caps, weights)
        scaled = maxmin_rates(flow_edges, {e: c * k for e, c in caps.items()}, weights)
        for f in base:
            assert scaled[f] == pytest.approx(base[f] * k, rel=1e-9)


class TestJainIndex:
    def test_equal_values_give_one(self):
        assert jain_index([5.0, 5.0, 5.0, 5.0]) == 1.0

    def test_single_recipient_gives_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == 0.25

    def test_one_two_three(self):
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(36.0 / 42.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jain_index([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -0.5])

    @given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=50))
    def test_bounds(self, values):
        if not any(v > 0 for v in values):
            return
        j = jain_index(values)
        n = len(values)
        assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12

    @given(
        st.lists(st.floats(0.001, 100.0), min_size=1, max_size=20),
        st.floats(0.001, 1000.0),
    )
    def test_invariant_under_positive_scaling(self, values, k):
        assert jain_index([v * k for v in values]) == pytest.approx(
            jain_index(values), rel=1e-9
        )


class TestPredictedAppRates:
    def test_sole_user_takes_full_capacity(self):
        g = shared_link_graph(4)
        apps = shared_link_apps([1.0])
        pred = predicted_app_rates(g, apps, {0: frozenset({1})})
        assert pred[0].granted == pytest.approx(4.0)
        assert pred[0].delivered == pytest.approx(4.0)

    def test_generation_probability_scales_capacity(self):
        g = shared_link_graph(4, gen_prob=0.5)
        apps = shared_link_apps([1.0])
        pred = predicted_app_rates(g, apps, {0: frozenset({1})})
        assert pred[0].delivered == pytest.approx(2.0)

    def test_swap_probability_discounts_delivery(self):
        # two equal apps share the first link (c=4) on 2-hop paths whose
        # intermediate swaps at q=0.5: granted (2,2), delivered (1,1)
        nodes = [
            Node(0, NodeKind.COMPUTATION),
            Node(1, NodeKind.REPEATER, 0.5),
            Node(2, NodeKind.COMPUTATION),
            Node(3, NodeKind.COMPUTATION),
        ]
        links = [
            QuantumLink(0, (0, 1), 4, 1.0, 1.0),
            QuantumLink(1, (1, 2), 4, 1.0, 1.0),
            QuantumLink(2, (1, 3), 4, 1.0, 1.0),
        ]
        g = NetworkGraph(nodes, links)
        apps = [
            Application(0, 0, 1.0, 1, frozenset({2})),
            Application(1, 0, 1.0, 1, frozenset({3})),
        ]
        pred = predicted_app_rates(g, apps, {0: frozenset({2}), 1: frozenset({3})})
        for a in (0, 1):
            assert pred[a].granted == pytest.approx(2.0)
            assert pred[a].delivered == pytest.approx(1.0)
            assert pred[a].weighted == pytest.approx(1.0)


class TestAssignRandom:
    def _one_app_three_eligible(self):
        g = line_graph([1.0, 1.0, 1.0])
        app = Application(0, 0, 1.0, 1, frozenset({1, 2, 3}))
        return g, [app]

    def test_forced_choice_ignores_seed(self):
        g = line_graph([1.0])
        app = Application(0, 0, 1.0, 1, frozenset({1}))
        for seed in (1, 2, 3):
            assert assign_random(g, [app], random.Random(seed)) == {0: frozenset({1})}

    def test_deterministic_given_seed(self):
        g, apps = self._one_app_three_eligible()
        a = assign_random(g, apps, random.Random(42))
        b = assign_random(g, apps, random.Random(42))
        assert a == b

    def test_uniform_over_workers(self):
        # binomial check: each of 3 workers within 3 sigma of 1/3
        g, apps = self._one_app_three_eligible()
        n = 10_000
        counts = {1: 0, 2: 0, 3: 0}
        for seed in range(n):
            (worker,) = assign_random(g, apps, random.Random(seed))[0]
            counts[worker] += 1
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        for worker in counts:
            assert abs(counts[worker] - n / 3) <= 3 * sigma


class TestAssignGreedy:
    def test_prefers_unloaded_disjoint_path(self):
        # worker 1 sits across a link already carrying app 0; worker 3 is
        # reachable over an empty disjoint path
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(4)]
        links = [
            QuantumLink(0, (0, 1), 1, 1.0, 1.0),
            QuantumLink(1, (0, 2), 1, 1.0, 1.0),
            QuantumLink(2, (2, 3), 1, 1.0, 1.0),
        ]
        g = NetworkGraph(nodes, links)
        apps = [
            Application(0, 0, 2.0, 1, frozenset({1})),
            Application(1, 0, 1.0, 1, frozenset({1, 3})),
        ]
        out = assign_greedy(g, apps)
        assert out[1] == frozenset({3})

    def test_tie_breaks_to_smallest_worker_id(self):
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(3)]
        links = [
            QuantumLink(0, (0, 1), 2, 1.0, 1.0),
            QuantumLink(1, (0, 2), 2, 1.0, 1.0),
        ]
        g = NetworkGraph(nodes, links)
        apps = [Application(0, 0, 1.0, 1, frozenset({1, 2}))]
        assert assign_greedy(g, apps)[0] == frozenset({1})

    def test_descending_weight_order_ties_by_id(self):
        # both apps want the same single-capacity edge; the heavier app is
        # placed first and takes the better (disjoint) worker
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(4)]
        links = [
            QuantumLink(0, (0, 1), 1, 1.0, 1.0),
            QuantumLink(1, (0, 2), 1, 1.0, 1.0),
            QuantumLink(2, (0, 3), 1, 1.0, 1.0),
        ]
        g = NetworkGraph(nodes, links)
        apps = [
            Application(0, 0, 1.0, 1, frozenset({1, 2})),
            Application(1, 0, 5.0, 1, frozenset({1, 2})),
        ]
        out = assign_greedy(g, apps)
        # heavier app 1 goes first, takes worker 1; app 0 spreads to 2
        assert out[1] == frozenset({1})
        assert out[0] == frozenset({2})

    def test_matches_exhaustive_on_dumbbell(self):
        rng = random.Random(4242)
        graph, apps = dumbbell_instance(rng)
        greedy_score = min(
            p.weighted
            for p in predicted_app_rates(graph, apps, assign_greedy(graph, apps)).values()
        )
        exhaustive_score = min(
            p.weighted
            for p in predicted_app_rates(
                graph, apps, assign_exhaustive(graph, apps)
            ).values()
        )
        assert greedy_score == pytest.approx(exhaustive_score)


class TestAssignExhaustive:
    def test_single_app_picks_best_worker(self):
        # worker 1 is behind a capacity-1 link, worker 2 behind capacity-3
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(3)]
        links = [
            QuantumLink(0, (0, 1), 1, 1.0, 1.0),
            QuantumLink(1, (0, 2), 3, 1.0, 1.0),
        ]
        g = NetworkGraph(nodes, links)
        apps = [Application(0, 0, 1.0, 1, frozenset({1, 2}))]
        assert assign_exhaustive(g, apps)[0] == frozenset({2})

    def test_reroutes_off_shared_bottleneck(self):
        # apps 0 and 1 both reach worker 1 over the same unit link; app 1
        # can reroute to worker 3 over a disjoint path, raising the min
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(4)]
        links = [
            QuantumLink(0, (0, 1), 1, 1.0, 1.0),
            QuantumLink(1, (0, 2), 1, 1.0, 1.0),
            QuantumLink(2, (2, 3), 1, 1.0, 1.0),
        ]
        g = NetworkGraph(nodes, links)
        apps = [
            Application(0, 0, 1.0, 1, frozenset({1})),
            Application(1, 0, 1.0, 1, frozenset({1, 3})),
        ]
        out = assign_exhaustive(g, apps)
        assert out == {0: frozenset({1}), 1: frozenset({3})}
        pred = predicted_app_rates(g, apps, out)
        assert min(p.weighted for p in pred.values()) == pytest.approx(1.0)

    def test_oversized_space_guarded(self):
        g = line_graph([1.0] * 7)
        apps = [
            Application(i, 0, 1.0, 2, frozenset({1, 2, 3, 4, 5, 6, 7}))
            for i in range(3)
        ]
        with pytest.raises(SearchSpaceTooLarge) as exc:
            assign_exhaustive(g, apps, limit=100)
        assert exc.value.size == 21**3

    def test_size_checked_before_any_pool_is_built(self):
        # 100 choose 10 is about 1.7e13 pools: only a size computed before
        # enumerating answers, and within well under a second
        g = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(101)],
            [QuantumLink(i - 1, (0, i), 2, 1.0, 1.0) for i in range(1, 101)],
        )
        apps = [Application(0, 0, 1.0, 10, frozenset(range(1, 101)))]
        start = time.perf_counter()
        with pytest.raises(SearchSpaceTooLarge) as exc:
            assign_exhaustive(g, apps)
        assert exc.value.size == math.comb(100, 10)
        assert time.perf_counter() - start < 5.0

    def test_mirror_pools_tie_exactly_and_the_first_enumerated_wins(self):
        # host 0 reaches worker 3 through repeater 1 and worker 4 through
        # repeater 2 over mirror-image links; two apps each need one
        # worker, so (3, 4) and (4, 3) are mirror images
        nodes = [
            Node(0, NodeKind.COMPUTATION),
            Node(1, NodeKind.REPEATER, 0.9),
            Node(2, NodeKind.REPEATER, 0.9),
            Node(3, NodeKind.COMPUTATION),
            Node(4, NodeKind.COMPUTATION),
        ]
        links = [
            QuantumLink(0, (0, 1), 3, 0.75, 1.0),
            QuantumLink(1, (0, 2), 3, 0.75, 1.0),
            QuantumLink(2, (1, 3), 3, 0.75, 1.0),
            QuantumLink(3, (2, 4), 3, 0.75, 1.0),
        ]
        g = NetworkGraph(nodes, links)
        apps = [
            Application(0, 0, 1.0, 1, frozenset({3, 4})),
            Application(1, 0, 2.0, 1, frozenset({3, 4})),
        ]

        def score(w0, w1):
            pred = predicted_app_rates(g, apps, {0: frozenset({w0}), 1: frozenset({w1})})
            return tuple(sorted(p.weighted for p in pred.values()))

        assert score(3, 4) == score(4, 3)
        assert score(3, 4) > max(score(3, 3), score(4, 4))
        assert assign_exhaustive(g, apps) == {0: frozenset({3}), 1: frozenset({4})}

    def test_never_below_greedy(self):
        rng = random.Random(31)
        for _ in range(20):
            graph, apps = dumbbell_instance(rng)
            exh = min(
                p.weighted
                for p in predicted_app_rates(
                    graph, apps, assign_exhaustive(graph, apps)
                ).values()
            )
            grd = min(
                p.weighted
                for p in predicted_app_rates(graph, apps, assign_greedy(graph, apps)).values()
            )
            assert exh >= grd - 1e-9
            assert grd >= 0.0


class TestExhaustiveOracle:
    """assign_exhaustive against the plain enumerator: every assignment,
    each scored by the sorted weighted rates of predicted_app_rates."""

    @staticmethod
    def enumerate_best(graph, apps):
        ordered = sorted(apps, key=lambda a: a.id)
        pools = [
            [
                frozenset(c)
                for c in itertools.combinations(
                    sorted(eligible_workers(graph, a)), a.workers_needed
                )
            ]
            for a in ordered
        ]
        best, best_score = None, None
        for combo in itertools.product(*pools):
            assignment = {a.id: pool for a, pool in zip(ordered, combo)}
            pred = predicted_app_rates(graph, ordered, assignment)
            score = tuple(sorted(p.weighted for p in pred.values()))
            if best_score is None or score > best_score:
                best, best_score = assignment, score
        return best

    def test_matches_plain_enumeration(self):
        for seed in range(60):
            rng = random.Random(seed)
            make = dumbbell_instance if seed % 2 else random_assignment_instance
            graph, apps = make(rng)
            if seed % 3 == 0:  # larger pools, so combinations have several workers
                apps = [
                    dataclasses.replace(a, workers_needed=2) if len(a.candidates) > 2 else a
                    for a in apps
                ]
            best = assign_exhaustive(graph, apps)
            assert best == self.enumerate_best(graph, apps) == unpruned_exhaustive(graph, apps)

    def test_matches_plain_enumeration_three_apps_with_pairs(self):
        for seed in range(1000, 1200):
            rng = random.Random(seed)
            graph, apps = random_assignment_instance(rng, n_apps=3)
            graph = with_swap_probs(graph, rng)
            apps = [
                dataclasses.replace(a, workers_needed=2) if len(a.candidates) >= 3 else a
                for a in apps
            ]
            best = assign_exhaustive(graph, apps)
            assert best == self.enumerate_best(graph, apps), seed
            assert best == unpruned_exhaustive(graph, apps), seed

    def test_matches_unpruned_on_the_benchmark_shape(self):
        # 30 nodes, 3 apps choosing 2 of 7 candidates: 9261 assignments;
        # the bound skips most of them on some seeds and none on others
        for seed in range(4):
            graph, apps = pooled_instance(random.Random(seed))
            assert assign_exhaustive(graph, apps) == unpruned_exhaustive(graph, apps), seed


class TestExhaustivePruning:
    """The bound that lets assign_exhaustive skip a fill is sound, and it
    does skip."""

    def test_no_weighted_rate_exceeds_its_pool_bound(self):
        ratios = []
        for seed in range(60):
            graph, apps = contended_pool_instance(random.Random(7000 + seed))
            caps = graph.effective_capacities()
            ordered = sorted(apps, key=lambda a: a.id)
            for combo, weighted in scored_assignments(graph, ordered):
                for app, pool, rate in zip(ordered, combo, weighted):
                    bound = _pool_bound(pool, app.weight, caps)
                    assert rate <= bound, (seed, app.id)
                    ratios.append(rate / bound)
        # an uncontended pool meets its bound, so the bound is not slack
        assert max(ratios) > 1 - 1e-6

    def test_rounding_can_lift_a_rate_past_the_bare_capacity_bound(self):
        # one flow alone on its path gets weight * (0.9 / weight), and at
        # weight 7 that rounds up: the bound's 1 + 1e-9 factor is needed
        graph = line_graph([1.0, 1.0], gen_prob=0.9, swap_q=0.9)
        apps = [Application(0, 0, 7.0, 1, frozenset({2}))]
        caps = graph.effective_capacities()
        [(combo, [weighted])] = scored_assignments(graph, apps)
        bare = math.fsum(min(caps[e] for e in f.edges) * f.swap_prob for f in combo[0]) / 7.0
        assert bare < weighted <= _pool_bound(combo[0], 7.0, caps)

    def test_prunes_fills_on_the_benchmark_shape(self, monkeypatch):
        graph, apps = pooled_instance(random.Random(1))
        size = math.prod(
            math.comb(len(eligible_flows(graph, a)), a.workers_needed) for a in apps
        )
        assert size == 21**3
        fills = count_fills(monkeypatch)
        best = assign_exhaustive(graph, apps)
        assert len(fills) < size  # one fill per unpruned assignment
        monkeypatch.undo()
        assert best == unpruned_exhaustive(graph, apps)

    def test_a_thousand_single_pool_apps_and_one_with_21_pools(self, monkeypatch):
        # no recursion per app, and no cost per assignment beyond its fill
        graph, apps = many_app_instance()
        assert len(apps) == 1001
        fills = count_fills(monkeypatch)
        start = time.perf_counter()
        best = assign_exhaustive(graph, apps)
        assert time.perf_counter() - start < 10.0
        assert len(fills) == 21  # the candidates are checked without a fill
        assert all(best[a.id] == a.candidates for a in apps[:-1])
        assert best == unpruned_exhaustive(graph, apps)

    def test_one_fill_when_every_app_has_one_pool(self, monkeypatch):
        graph, apps = many_app_instance()
        apps = apps[:-1]  # the 1000 apps that need both of their two candidates
        fills = count_fills(monkeypatch)
        best = assign_exhaustive(graph, apps)
        assert len(fills) == 1
        assert best == {a.id: a.candidates for a in apps}

    @pytest.mark.parametrize(
        "weight, gen_prob, message",
        [
            (float("nan"), 1.0, "flow (1, 2) has non-positive weight"),
            (0.0, 1.0, "flow (1, 2) has non-positive weight"),
            (1.0, 0.0, "edge 0 has non-positive capacity"),
        ],
    )
    def test_bad_input_raises_as_maxmin_rates_does_before_any_fill(
        self, monkeypatch, weight, gen_prob, message
    ):
        graph = line_graph([1.0, 1.0], gen_prob=gen_prob)
        apps = [
            Application(0, 0, 1.0, 1, frozenset({1, 2})),
            Application(1, 0, weight, 1, frozenset({2})),
        ]
        flow_edges = {(a.id, f.worker): f.edges for a in apps for f in eligible_flows(graph, a)}
        weights = {key: apps[key[0]].weight for key in flow_edges}
        with pytest.raises(ValueError) as keyed:
            maxmin_rates(flow_edges, graph.effective_capacities(), weights)
        fills = count_fills(monkeypatch)
        with pytest.raises(ValueError) as exhaustive:
            assign_exhaustive(graph, apps)
        assert str(exhaustive.value) == str(keyed.value) == message
        assert fills == []


def _greedy_full_sort(graph, apps):
    """Reference greedy: every candidate copies the whole load map and
    sorts all of it."""
    caps = graph.effective_capacities()
    load = {e: 0.0 for e in sorted(caps)}
    out = {}
    for app in sorted(apps, key=lambda a: (-a.weight, a.id)):
        workers = eligible_workers(graph, app)
        cand_edges = {f.worker: edges_along(graph, f.path)
                      for f in host_flows(graph, app.host, workers)}
        phi = app.weight / app.workers_needed
        picked = []
        for _ in range(app.workers_needed):
            best, best_vec = None, None
            for cand in cand_edges:
                if cand in picked:
                    continue
                trial = dict(load)
                for e in cand_edges[cand]:
                    trial[e] += phi / caps[e]
                vec = sorted(trial.values(), reverse=True)
                if best_vec is None or vec < best_vec:
                    best, best_vec = cand, vec
            picked.append(best)
            for e in cand_edges[best]:
                load[e] += phi / caps[e]
        out[app.id] = frozenset(picked)
    return out


class TestGreedyOracle:
    """assign_greedy, which edits one sorted copy of the loads per
    candidate, picks what sorting every candidate's full load map picks."""

    def test_matches_full_sort(self):
        for seed in range(150):
            rng = random.Random(4200 + seed)
            n = rng.randint(4, 14)
            # few capacity values and weights, so many loads tie exactly
            graph = random_connected_graph(
                rng, n, extra_edges=rng.randint(0, 10), cap_range=(1, 3), pgen_choices=(0.5, 1.0)
            )
            apps = []
            for i in range(rng.randint(1, 8)):
                host = rng.randrange(n)
                others = [x for x in range(n) if x != host]
                cands = frozenset(rng.sample(others, rng.randint(1, min(5, len(others)))))
                weight = rng.choice([1.0, 1.0, 2.0, 3.0, 0.5])
                apps.append(Application(i, host, weight, rng.randint(1, len(cands)), cands))
            assert assign_greedy(graph, apps) == _greedy_full_sort(graph, apps), seed


class TestAssignmentValidity:
    """Every solver returns pools of exactly workers_needed eligible workers."""

    def test_solver_outputs_respect_pool_invariants(self):
        from qnetfair import eligible_workers

        rng = random.Random(91)
        for _ in range(15):
            graph, apps = dumbbell_instance(rng)
            for assignment in (
                assign_greedy(graph, apps),
                assign_random(graph, apps, random.Random(17)),
                assign_exhaustive(graph, apps),
            ):
                assert set(assignment) == {a.id for a in apps}
                for app in apps:
                    pool = assignment[app.id]
                    assert len(pool) == app.workers_needed
                    assert pool <= eligible_workers(graph, app)
