import contextlib
import dataclasses
import itertools
import marshal
import math
import os
import random
import signal
import threading
import time
import types
from collections import Counter
from typing import Iterable, Mapping
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    edges_along,
    eligible_workers,
    line_graph,
    reaped,
    recorded_forks,
    shared_link_apps,
    shared_link_graph,
)
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
    host_flows,
    jain_index,
    maxmin_rates,
    predicted_app_rates,
)
from qnetfair import fairshare
from qnetfair.fairshare import (
    FlowKey,
    _contention_bound,
    _contention_bounds,
    progressive_fill,
)
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


def edge_load(apps, combo) -> dict[int, float]:
    """The flow weight that one assignment, each app's pool, puts on each
    edge it crosses."""
    load: dict[int, float] = {}
    for a, pool in zip(apps, combo):
        for f in pool:
            for e in f.edges:
                load[e] = load.get(e, 0.0) + a.weight / a.workers_needed
    return load


def contention_bounds(apps, combo, caps):
    """``_contention_bounds`` of one assignment, given each app's pool: all
    of them, in the order of ``apps``."""
    shares = [a.weight / a.workers_needed for a in apps]
    order = range(len(apps))
    return _contention_bounds(apps, shares, combo, order, edge_load(apps, combo), caps, -math.inf)


def pool_bound(pool, weight, caps):
    """The bound on the weighted delivered rate that a pool gives its app in
    any assignment, as ``assign_exhaustive`` once computed it apart from the
    contention bound: no flow's max-min rate exceeds its path's least
    capacity, and the factor covers the rounding of ``progressive_fill``."""
    peak = math.fsum([min([caps[e] for e in f.edges]) * f.swap_prob for f in pool])
    return peak / weight * (1 + 1e-9)


def with_swap_probs(graph, rng):
    """The graph with each node's swap success probability drawn from
    {0.8, 0.9, 1.0}, so that pools differ in delivery, not only in rate."""
    nodes = [dataclasses.replace(n, swap_success_prob=rng.choice([0.8, 0.9, 1.0]))
             for n in graph.nodes]
    return NetworkGraph(nodes, graph.links)


def oracle_corpus(seeds):
    """(seed, graph, apps) of TestExhaustiveOracle's instances: below 1000,
    one or two apps, a third of them needing pairs; from 1000, three apps
    with pairs, swap losses and, one seed in five, weights from 1e-6 to 1e6."""
    for seed in seeds:
        rng = random.Random(seed)
        if seed < 1000:
            make = dumbbell_instance if seed % 2 else random_assignment_instance
            graph, apps = make(rng)
            if seed % 3 == 0:  # larger pools, so combinations have several workers
                apps = [
                    dataclasses.replace(a, workers_needed=2) if len(a.candidates) > 2 else a
                    for a in apps
                ]
            yield seed, graph, apps
            continue
        graph, apps = random_assignment_instance(rng, n_apps=3)
        graph = with_swap_probs(graph, rng)
        apps = [
            dataclasses.replace(
                a,
                workers_needed=2 if len(a.candidates) >= 3 else a.workers_needed,
                weight=10.0 ** rng.uniform(-6, 6) if seed % 5 == 0 else a.weight,
            )
            for a in apps
        ]
        yield seed, graph, apps


def mirror_instance(branches=2):
    """Host 0 reaches each worker b + branches through repeater b, for b
    from 1 to ``branches``, over mirror-image links; two apps each need one
    worker, and swapping two branches maps an assignment to one of the same
    score, such as (3, 4) to (4, 3) with two branches."""
    repeaters = range(1, branches + 1)
    nodes = [Node(0, NodeKind.COMPUTATION)]
    nodes += [Node(b, NodeKind.REPEATER, 0.9) for b in repeaters]
    nodes += [Node(b + branches, NodeKind.COMPUTATION) for b in repeaters]
    ends = [(0, b) for b in repeaters] + [(b, b + branches) for b in repeaters]
    links = [QuantumLink(e, pair, 3, 0.75, 1.0) for e, pair in enumerate(ends)]
    workers = frozenset(b + branches for b in repeaters)
    apps = [Application(0, 0, 1.0, 1, workers), Application(1, 0, 2.0, 1, workers)]
    return NetworkGraph(nodes, links), apps


def usable_cpus(monkeypatch, n):
    """The search sees ``n`` usable CPUs, at most 4, whatever the host has."""
    assert 1 <= n <= 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


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

    def test_a_fill_limit_beyond_the_float_range_after_a_freeze_rejected(self):
        # 1e10 over both weights is finite, but once A freezes on edge 1,
        # edge 0's limit is what is left over B's weight alone: inf
        with pytest.raises(ValueError, match="^edge 0 has a weight sum or fill limit beyond"):
            maxmin_rates({"A": (0, 1), "B": (0,)}, {0: 1e10, 1: 1.0}, {"A": 1.0, "B": 1e-300})

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

    @pytest.mark.parametrize(
        "low, rel, together",
        [
            (1.0, 5e-13, True),  # within cut's relative 1e-12 at t = 1
            (1.0, 2e-12, False),  # past it: a second level
            (1e-3, 5e-13, True),  # below t = 1 the tolerance is an absolute 1e-12,
            (1e-3, 5e-10, True),  # so a relative gap 500 times wider still freezes with it
            (1e-3, 2e-9, False),  # 2e-12 absolute: past it
        ],
    )
    def test_cut_freezes_limits_within_its_tolerance_in_one_level(self, low, rel, together):
        # two single-flow edges of weight 1, so each edge's fill limit is its
        # capacity: limits that cut takes as one level freeze both flows at
        # the lower, and a second level freezes the other at its own
        high = low * (1 + rel)
        assert low < high
        rates = progressive_fill([1.0, 1.0], [(0,), (1,)], {0: low, 1: high})
        assert rates == ([low, low] if together else [low, high])

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
        g, apps = mirror_instance()

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
        for seed, graph, apps in oracle_corpus(range(60)):
            best = assign_exhaustive(graph, apps)
            assert best == self.enumerate_best(graph, apps) == unpruned_exhaustive(graph, apps)

    def test_matches_plain_enumeration_three_apps_with_pairs(self):
        for seed, graph, apps in oracle_corpus(range(1000, 1200)):
            best = assign_exhaustive(graph, apps)
            assert best == self.enumerate_best(graph, apps), seed
            assert best == unpruned_exhaustive(graph, apps), seed

    def test_matches_unpruned_on_the_benchmark_shape(self):
        # 30 nodes, 3 apps choosing 2 of 7 candidates: 9261 assignments;
        # the pool bound alone skips all but 85 on seed 0 and none on 2, 3 and 7
        for seed in (0, 1, 2, 3, 7):
            graph, apps = pooled_instance(random.Random(seed))
            assert assign_exhaustive(graph, apps) == unpruned_exhaustive(graph, apps), seed


class TestExhaustivePruning:
    """The bounds that let assign_exhaustive skip a fill are sound, and they
    do skip."""

    @pytest.mark.parametrize("extremes", [False, True], ids=["drawn", "1e-15_and_1e15"])
    def test_no_weighted_rate_exceeds_either_bound(self, extremes):
        pool_ratios, contention_ratios = [], []
        for seed in range(60):
            rng = random.Random(7000 + seed)
            graph, apps = contended_pool_instance(rng)
            if extremes:  # each app at the least or the greatest valid weight
                apps = [dataclasses.replace(a, weight=rng.choice([1e-15, 1e15])) for a in apps]
            caps = graph.effective_capacities()
            for combo, weighted in scored_assignments(graph, apps):
                bounds = contention_bounds(apps, combo, caps)
                for app, pool, rate, bound in zip(apps, combo, weighted, bounds):
                    least = pool_bound(pool, app.weight, caps)
                    assert rate <= least and rate <= bound, (seed, app.id)
                    pool_ratios.append(rate / least)
                    contention_ratios.append(rate / bound)
        # an uncontended pool meets both bounds, so neither is slack
        assert max(pool_ratios) > 1 - 1e-6
        assert max(contention_ratios) > 1 - 1e-6

    @staticmethod
    def _corpus(extremes):
        """(graph, apps) of the oracle corpus, or of
        test_no_weighted_rate_exceeds_either_bound's instances and extreme weights."""
        if not extremes:
            seeds = itertools.chain(range(60), range(1000, 1200))
            return [(graph, apps) for _, graph, apps in oracle_corpus(seeds)]
        corpus = []
        for seed in range(60):
            rng = random.Random(7000 + seed)
            graph, apps = contended_pool_instance(rng)
            apps = [dataclasses.replace(a, weight=rng.choice([1e-15, 1e15])) for a in apps]
            corpus.append((graph, apps))
        return corpus

    @pytest.mark.parametrize("extremes", [False, True], ids=["oracle_corpus", "1e-15_and_1e15"])
    def test_the_contention_bound_at_level_0_is_the_pool_bound(self, extremes):
        # bit for bit, whatever finite loads: 0.0 * x is +-0, and cap - +-0 is cap
        checked = 0
        for graph, apps in self._corpus(extremes):
            caps = graph.effective_capacities()
            loads = [caps, dict.fromkeys(caps, 0.0), dict.fromkeys(caps, 1e300)]
            for app in apps:
                for pool in itertools.combinations(eligible_flows(graph, app), app.workers_needed):
                    want = pool_bound(pool, app.weight, caps).hex()
                    for load in loads:
                        got = _contention_bound(app, app.flow_weight, pool, load, caps, 0.0)
                        assert got.hex() == want, (apps, app.id, pool)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("extremes", [False, True], ids=["oracle_corpus", "1e-15_and_1e15"])
    def test_the_level_bound_covers_every_completion(self, extremes):
        # every prefix of apps 0..n-2: its contention bounds at t_lo, the least
        # cap_e / (W_e + m_e), against the weighted rates of
        # predicted_app_rates under each pool of app n-1
        checked = 0
        for graph, apps in self._corpus(extremes):
            apps = sorted(apps, key=lambda a: a.id)
            caps = graph.effective_capacities()
            *firsts, lasts = [
                list(itertools.combinations(eligible_flows(graph, a), a.workers_needed))
                for a in apps
            ]
            reach: dict[int, float] = {}  # the most flow weight one pool of app n-1 puts on e
            for pool in lasts:
                for e, count in Counter([e for f in pool for e in f.edges]).items():
                    reach[e] = max(reach.get(e, 0.0), count * apps[-1].flow_weight)
            shares = [a.flow_weight for a in apps]
            for prefix in itertools.product(*firsts):
                load = edge_load(apps, prefix)
                t_lo = min([caps[e] / (load.get(e, 0.0) + reach.get(e, 0.0)) for e in load | reach])
                bounds = [
                    _contention_bound(a, w, pool, load, caps, t_lo)
                    for a, w, pool in zip(apps, shares, prefix)
                ]
                for pool in lasts:
                    combo = prefix + (pool,)
                    assignment = {a.id: frozenset(f.worker for f in p) for a, p in zip(apps, combo)}
                    rates = predicted_app_rates(graph, apps, assignment)
                    for app, bound in zip(apps, bounds):
                        assert rates[app.id].weighted <= bound, (apps, app.id, combo)
                        checked += 1
        assert checked > 1000

    def test_no_weighted_rate_exceeds_its_contention_bound_with_2000_flows_on_one_edge(self):
        # every flow leaves host 0 over edge 0 to hub 1, then takes one of 40
        # spokes; weights from 1e-15 to 1e15 freeze the flows at many levels
        rng = random.Random(5)
        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(42)],
            [QuantumLink(0, (0, 1), 1000, 1.0, 1.0)]
            + [QuantumLink(i - 1, (1, i), rng.randint(1, 1000), 1.0, 1.0) for i in range(2, 42)],
        )
        apps = [
            Application(i, 0, 10.0 ** rng.uniform(-15, 15), 2,
                        frozenset({2 + i % 40, 2 + (i + 1) % 40}))
            for i in range(1000)
        ]
        caps = graph.effective_capacities()
        [(combo, weighted)] = scored_assignments(graph, apps)
        assert sum(0 in f.edges for pool in combo for f in pool) == 2000
        bounds = contention_bounds(apps, combo, caps)
        assert all(rate <= bound for rate, bound in zip(weighted, bounds))

    def test_rounding_can_lift_a_rate_past_the_bare_capacity_bound(self):
        # one flow alone on its path gets weight * (0.9 / weight), and at
        # weight 7 that rounds up: the bound's 1 + 1e-9 factor is needed
        graph = line_graph([1.0, 1.0], gen_prob=0.9, swap_q=0.9)
        apps = [Application(0, 0, 7.0, 1, frozenset({2}))]
        caps = graph.effective_capacities()
        [(combo, [weighted])] = scored_assignments(graph, apps)
        bare = math.fsum(min(caps[e] for e in f.edges) * f.swap_prob for f in combo[0]) / 7.0
        assert bare < weighted <= pool_bound(combo[0], 7.0, caps)

    # the pool bound alone skips no assignment of seeds 2, 3 and 7; the
    # unpruned oracle checks the result of each seed. The fills are those of
    # the search that tested each whole assignment on its own: pruning a
    # prefix or a level skips only assignments that test would skip, so the
    # same ones are filled, greedy's first. Fewer reach the contention bound,
    # as the level bound skips some. They are the counts of one process: one
    # usable CPU keeps the search from splitting
    @pytest.mark.parametrize(
        "seed, filled, contended",
        [(1, 329, 4536), (2, 160, 9260), (3, 2412, 2519), (7, 2071, 4473)],
    )
    def test_prunes_fills_on_the_benchmark_shape(self, monkeypatch, seed, filled, contended):
        graph, apps = pooled_instance(random.Random(seed))
        size = math.prod(
            math.comb(len(eligible_flows(graph, a)), a.workers_needed) for a in apps
        )
        assert size == 21**3
        usable_cpus(monkeypatch, 1)
        fills = count_fills(monkeypatch)
        computed = []  # the number of app bounds each _contention_bounds call returns

        def counted(*args):
            bounds = _contention_bounds(*args)
            computed.append(len(bounds))
            return bounds

        monkeypatch.setattr(fairshare, "_contention_bounds", counted)
        assign_exhaustive(graph, apps)
        assert len(fills) == filled < size  # one fill per unpruned assignment
        assert len(computed) == contended
        # the bounds stop at the first that rules the assignment out
        assert sum(computed) < len(apps) * contended

    def test_contention_bounds_stop_only_below_the_floor(self):
        # a list cut short at a bound equal to the best score's least rate
        # would sort below a score it can beat: (x,) < (x, y, z)
        graph, apps = pooled_instance(random.Random(2))
        caps = graph.effective_capacities()
        combo = [eligible_flows(graph, a)[:2] for a in apps]
        load = edge_load(apps, combo)
        shares = [a.weight / a.workers_needed for a in apps]
        bounds = contention_bounds(apps, combo, caps)
        least = min(bounds)
        assert bounds.index(least) < len(bounds) - 1
        order = range(len(apps))
        assert _contention_bounds(apps, shares, combo, order, load, caps, least) == bounds
        above = math.nextafter(bounds[0], math.inf)
        assert _contention_bounds(apps, shares, combo, order, load, caps, above) == bounds[:1]

    @pytest.mark.parametrize("chooser_first", [False, True], ids=["chooser_last", "chooser_first"])
    def test_a_thousand_single_pool_apps_and_one_with_21_pools(self, monkeypatch, chooser_first):
        # no recursion per app, and no cost per assignment beyond its fill;
        # with the 21-pool app first, each of its pools descends through all
        # 1000 single-pool apps
        graph, apps = many_app_instance()
        assert len(apps) == 1001
        chooser = apps[-1]
        if chooser_first:
            chooser = dataclasses.replace(chooser, id=0)
            apps = [chooser] + [dataclasses.replace(a, id=a.id + 1) for a in apps[:-1]]
        fills = count_fills(monkeypatch)
        start = time.perf_counter()
        best = assign_exhaustive(graph, apps)
        assert time.perf_counter() - start < 10.0
        # at most one fill per assignment, as the candidates are checked
        # without one; the contention bound skips some of the 21
        assert len(fills) < 21
        assert all(best[a.id] == a.candidates for a in apps if a is not chooser)
        assert best == unpruned_exhaustive(graph, apps)

    def test_one_fill_when_every_app_has_one_pool(self, monkeypatch):
        graph, apps = many_app_instance()
        apps = apps[:-1]  # the 1000 apps that need both of their two candidates
        usable_cpus(monkeypatch, 1)
        fills = count_fills(monkeypatch)
        best = assign_exhaustive(graph, apps)
        assert len(fills) == 1
        assert best == {a.id: a.candidates for a in apps}

    def test_a_flow_weight_that_underflows_raises_before_any_fill(self, monkeypatch):
        # the app's weight is positive, but 5e-324 / 2 rounds to 0.0
        graph = line_graph([1.0, 1.0])
        apps = [Application(0, 0, 5e-324, 2, frozenset({1, 2}))]
        fills = count_fills(monkeypatch)
        with pytest.raises(ValueError, match=r"^flow \(0, 1\) has non-positive weight$"):
            assign_exhaustive(graph, apps)
        assert fills == []

    @pytest.mark.parametrize(
        "weights, gen_prob, message",
        [
            ((1.0, float("nan")), 1.0, "flow (1, 2) has non-positive weight"),
            ((1.0, 0.0), 1.0, "flow (1, 2) has non-positive weight"),
            ((1.0, 1.0), 0.0, "edge 0 has non-positive capacity"),
            # no finite rate fills an infinite weight or capacity
            ((1.0, math.inf), 1.0, "flow (1, 2) has infinite weight"),
            ((1.0, 1.0), math.inf, "edge 0 has infinite capacity"),
            # two flows of 1e308 sum to inf on edge 0, so every fill limit
            # there would be 0; capacity 1 over 1e-309 fills to inf
            ((1e308, 1.0), 1.0, "edge 0 has a weight sum or fill limit beyond the float range"),
            ((1e-309, 1e-309), 1.0,
             "edge 0 has a weight sum or fill limit beyond the float range"),
        ],
        ids=["nan_weight", "zero_weight", "zero_capacity", "infinite_weight", "infinite_capacity",
             "weight_sum_overflows", "fill_limit_overflows"],
    )
    def test_bad_input_raises_as_maxmin_rates_does_before_any_fill(
        self, monkeypatch, weights, gen_prob, message
    ):
        graph = line_graph([1.0, 1.0], gen_prob=gen_prob)
        apps = [
            Application(0, 0, weights[0], 1, frozenset({1, 2})),
            Application(1, 0, weights[1], 1, frozenset({2})),
        ]
        flow_edges = {(a.id, f.worker): f.edges for a in apps for f in eligible_flows(graph, a)}
        flow_weights = {key: apps[key[0]].weight for key in flow_edges}
        with pytest.raises(ValueError) as keyed:
            maxmin_rates(flow_edges, graph.effective_capacities(), flow_weights)
        fills = count_fills(monkeypatch)
        with pytest.raises(ValueError) as exhaustive:
            assign_exhaustive(graph, apps)
        assert str(exhaustive.value) == str(keyed.value) == message
        assert fills == []


def star_instance(pools):
    """One app at host 0 needing one of ``pools`` workers, each one link
    away over a link of its own capacity."""
    graph = NetworkGraph(
        [Node(i, NodeKind.COMPUTATION) for i in range(pools + 1)],
        [QuantumLink(i - 1, (0, i), i, 1.0, 1.0) for i in range(1, pools + 1)],
    )
    return graph, [Application(0, 0, 1.0, 1, frozenset(range(1, pools + 1)))]


class TestForkRule:
    """fork_cpus, the one rule of both the run's producer and the search."""

    def test_the_affinity_counts_where_a_fork_is_safe(self, monkeypatch):
        for n in (1, 2, 4):
            usable_cpus(monkeypatch, n)
            assert fairshare.fork_cpus() == n

    @pytest.mark.parametrize("why", ["another thread", "no fork", "no affinity"])
    def test_one_cpu_where_a_fork_is_unsafe_or_missing(self, monkeypatch, why):
        usable_cpus(monkeypatch, 4)
        if why == "another thread":
            done = threading.Event()
            thread = threading.Thread(target=done.wait)
            thread.start()
            try:
                assert fairshare.fork_cpus() == 1
            finally:
                done.set()
                thread.join()
            return
        monkeypatch.delattr(os, "fork" if why == "no fork" else "sched_getaffinity")
        assert fairshare.fork_cpus() == 1


# one value of each kind that a record must give back exactly
VALUES = [
    2**40, -(2**70), -7, 0, 5e-324, -0.0, 1e308, -math.inf,
    [1, (2.5, [-3, ()]), []], (), ("x" * 3, [[]]),
]


def counted_records(monkeypatch):
    """A list that grows by one entry per record that ``forked`` reads
    from a child in this process."""
    records = []

    def loads(record):
        records.append(None)
        return marshal.loads(record)

    monkeypatch.setattr(fairshare, "marshal", types.SimpleNamespace(dumps=marshal.dumps, loads=loads))
    return records


def waited_statuses():
    """Patch os.waitpid to record each status it returns, in a list."""
    statuses, waitpid = [], os.waitpid

    def recording(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    return statuses, mock.patch.object(os, "waitpid", recording)


class TestForked:
    """forked hands back every value of a job: those its child sends, then
    whatever the child did not send, made in this process. Two usable CPUs
    let it fork on any host, unless a test takes one away."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        usable_cpus(monkeypatch, 2)

    def test_values_come_back_exactly(self, monkeypatch):
        records = counted_records(monkeypatch)
        for job in (VALUES, []):
            records.clear()
            with recorded_forks() as pids, fairshare.forked(iter(job)) as values:
                got = list(values)
            # repr tells -0.0 from 0.0 and a tuple from a list
            assert repr(got) == repr(job) and len(records) == len(job)
            assert len(pids) == 1 and reaped(pids[0])

    @pytest.mark.parametrize("stop", [0, 4, len(VALUES)], ids=["first", "between", "end mark"])
    def test_a_child_killed_before_a_record_leaves_the_rest_here(self, monkeypatch, stop):
        # the child kills itself before it sends value ``stop``, or, after
        # the last value, before its end mark
        parent = os.getpid()

        def job():
            for i in range(len(VALUES) + 1):
                if i == stop and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                if i < len(VALUES):
                    yield VALUES[i]

        records = counted_records(monkeypatch)
        statuses, waits = waited_statuses()
        with recorded_forks() as pids, waits, fairshare.forked(job()) as values:
            got = list(values)
        assert repr(got) == repr(VALUES) and len(records) == stop
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
        assert len(pids) == 1 and reaped(pids[0])

    def test_a_child_killed_inside_a_record_leaves_the_rest_here(self, monkeypatch):
        # a record far larger than a pipe holds: once this process has read
        # half of it, the child is still writing it, and is killed there
        big = list(range(300_000))
        job = [VALUES, big, VALUES]
        cut = 4 + len(marshal.dumps(VALUES)) + 4 + len(marshal.dumps(big)) // 2

        class Killing:  # the read end of the pipe, killing the child after ``cut`` bytes
            def __init__(self, feed):
                self.feed, self.left = feed, cut

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.feed.close()

            def read(self, n):
                if n <= self.left:
                    self.left -= n
                    return self.feed.read(n)
                head = self.feed.read(self.left)
                os.kill(pids[0], signal.SIGKILL)
                self.left = math.inf
                return head + self.feed.read(n - len(head))

        def opened(fd, mode):
            file = open(fd, mode)
            return file if "w" in mode else Killing(file)

        monkeypatch.setattr(fairshare, "open", opened, raising=False)
        records = counted_records(monkeypatch)
        statuses, waits = waited_statuses()
        with recorded_forks() as pids, waits, fairshare.forked(iter(job)) as values:
            assert list(values) == job
        assert len(records) == 1
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
        assert len(pids) == 1 and reaped(pids[0])

    def test_a_child_that_raises_leaves_its_error_here(self, monkeypatch):
        def job():
            yield 1
            yield 2
            raise ValueError("no third value")

        records = counted_records(monkeypatch)
        with recorded_forks() as pids, fairshare.forked(job()) as values:
            assert next(values) == 1 and next(values) == 2
            with pytest.raises(ValueError, match="no third value"):
                next(values)
        # the child sent two records and no end mark; it may still be on its
        # way out when this process kills it
        assert len(records) == 2
        assert len(pids) == 1 and reaped(pids[0])

    def test_a_failed_fork_makes_nothing_before_the_first_read(self):
        made = []

        def job():
            for value in VALUES:
                made.append(value)
                yield value

        no_process = OSError(11, "EAGAIN")
        with mock.patch.object(os, "fork", side_effect=no_process) as failing:
            with fairshare.forked(job()) as values:
                assert made == [] and failing.call_count == 1
                assert repr(list(values)) == repr(VALUES)
        assert repr(made) == repr(VALUES)

    @pytest.mark.parametrize("why", ["one CPU", "another thread", "no fork"])
    def test_where_fork_cpus_is_one_the_job_runs_here(self, monkeypatch, why):
        def job():
            yield from VALUES
            raise ValueError("no more values")

        if why == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked where fork_cpus is 1"))
        if why == "one CPU":
            usable_cpus(monkeypatch, 1)
        with contextlib.ExitStack() as stack:
            if why == "another thread":
                done = threading.Event()
                thread = threading.Thread(target=done.wait)
                thread.start()
                stack.callback(thread.join)
                stack.callback(done.set)
            assert fairshare.fork_cpus() == 1
            with fairshare.forked(job()) as values:
                got = [next(values) for _ in VALUES]
                with pytest.raises(ValueError, match="no more values"):
                    next(values)
        assert repr(got) == repr(VALUES)


class TestExhaustiveSplit:
    """The search split into interleaved shares of prefixes, each but the
    first in a forked child, picks what one process picks."""

    @pytest.mark.parametrize("shares", [2, 3, 4])
    def test_split_equals_one_process_on_the_oracle_corpus(self, monkeypatch, shares):
        seeds = itertools.chain(range(60), range(1000, 1200))
        corpus = [(graph, apps) for _, graph, apps in oracle_corpus(seeds)]
        usable_cpus(monkeypatch, 1)
        alone = [assign_exhaustive(graph, apps) for graph, apps in corpus]
        usable_cpus(monkeypatch, shares)
        monkeypatch.setattr(fairshare, "SPLIT_MIN_SIZE", 1)
        with recorded_forks() as pids:
            split = [assign_exhaustive(graph, apps) for graph, apps in corpus]
        assert split == alone
        # every instance has two prefixes or more, so each forks
        assert len(pids) >= len(corpus) and all(map(reaped, pids))

    @pytest.mark.parametrize("shares", [2, 3, 4])
    def test_tied_optima_in_different_shares_go_to_the_first_enumerated(
        self, monkeypatch, shares
    ):
        # a prefix (app 0's pick, app 1's pick) of workers 4, 5 and 6 is
        # numbered by its sum, 0 to 4. The six tied optima, the pairs of
        # distinct workers, have sums 1 to 3, so they fall in different
        # shares; with two shares, (0, 2) is this process's, and the first
        # enumerated, (0, 1), a child's
        g, apps = mirror_instance(branches=3)
        usable_cpus(monkeypatch, shares)
        monkeypatch.setattr(fairshare, "SPLIT_MIN_SIZE", 1)
        with recorded_forks() as pids:
            assert assign_exhaustive(g, apps) == {0: frozenset({4}), 1: frozenset({5})}
        assert len(pids) == shares - 1 and all(map(reaped, pids))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("branches", [2, 3])
    def test_a_later_tied_greedy_pick_loses_to_the_first_enumerated(
        self, monkeypatch, branches, cpus
    ):
        # greedy's pick is the last of the tied optima, (4, 3) with two
        # branches and (6, 5) with three; the first enumerated still wins
        g, apps = mirror_instance(branches)
        last = {0: frozenset({2 * branches}), 1: frozenset({2 * branches - 1})}
        monkeypatch.setattr(fairshare, "assign_greedy", lambda graph, apps: last)
        usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(fairshare, "SPLIT_MIN_SIZE", 1)
        with recorded_forks() as pids:
            best = assign_exhaustive(g, apps)
        assert best == unpruned_exhaustive(g, apps) != last
        assert len(pids) == cpus - 1 and all(map(reaped, pids))

    def test_a_search_too_small_to_split_forks_nothing(self, monkeypatch):
        graph, apps = pooled_instance(random.Random(1))
        usable_cpus(monkeypatch, 4)
        monkeypatch.setattr(fairshare, "SPLIT_MIN_SIZE", 21**3 + 1)
        with recorded_forks() as pids:
            best = assign_exhaustive(graph, apps)
        assert pids == []
        monkeypatch.setattr(fairshare, "SPLIT_MIN_SIZE", 21**3)
        with recorded_forks() as pids:
            assert assign_exhaustive(graph, apps) == best
        assert len(pids) == 3 and all(map(reaped, pids))

    @pytest.mark.parametrize("cpus, pools", [(4, 2), (4, 1), (2, 3), (1, 3)])
    def test_one_share_per_usable_cpu_and_per_prefix(self, monkeypatch, cpus, pools):
        # a one-app search numbers app 0's pools
        graph, apps = star_instance(pools)
        usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(fairshare, "SPLIT_MIN_SIZE", 1)
        with recorded_forks() as pids:
            assert assign_exhaustive(graph, apps) == {0: frozenset({pools})}
        assert len(pids) == min(cpus, pools) - 1 and all(map(reaped, pids))

    def test_a_search_without_apps_has_one_prefix(self, monkeypatch):
        usable_cpus(monkeypatch, 4)
        monkeypatch.setattr(fairshare, "SPLIT_MIN_SIZE", 1)
        with recorded_forks() as pids:
            assert assign_exhaustive(line_graph([1.0]), []) == {}
        assert pids == []

    @pytest.mark.parametrize("how", ["raises", "is killed"])
    def test_a_child_that_fails_mid_search_leaves_the_serial_answer(self, monkeypatch, how):
        graph, apps = pooled_instance(random.Random(1))
        usable_cpus(monkeypatch, 1)
        alone = assign_exhaustive(graph, apps)
        parent, calls = os.getpid(), []

        def fill(*args):  # each child fails at its fifth fill
            calls.append(None)
            if os.getpid() != parent and len(calls) == 5:
                if how == "raises":
                    raise ValueError("stop")
                os.kill(os.getpid(), signal.SIGKILL)
            return progressive_fill(*args)

        monkeypatch.setattr(fairshare, "progressive_fill", fill)
        usable_cpus(monkeypatch, 4)
        with recorded_forks() as pids:
            assert assign_exhaustive(graph, apps) == alone
        assert len(pids) == 3 and all(map(reaped, pids))

    def test_an_error_in_a_childs_share_is_the_error_of_one_process(self, monkeypatch):
        # the fill of prefix 1, (3, 4), fails wherever it runs: in one
        # process, and in the child of share 1 of 2, after which this
        # process searches that share itself
        g, apps = mirror_instance()

        def fill(weights, flow_edges, caps):
            if flow_edges == [(0, 2), (1, 3)]:
                raise ArithmeticError("no fill of (3, 4)")
            return progressive_fill(weights, flow_edges, caps)

        monkeypatch.setattr(fairshare, "progressive_fill", fill)
        monkeypatch.setattr(fairshare, "SPLIT_MIN_SIZE", 1)
        usable_cpus(monkeypatch, 1)
        with pytest.raises(ArithmeticError, match=r"\(3, 4\)"):
            assign_exhaustive(g, apps)
        usable_cpus(monkeypatch, 2)
        with recorded_forks() as pids, pytest.raises(ArithmeticError, match=r"\(3, 4\)"):
            assign_exhaustive(g, apps)
        assert len(pids) == 1 and all(map(reaped, pids))

    def test_a_fork_that_fails_leaves_the_search_in_process(self, monkeypatch):
        graph, apps = pooled_instance(random.Random(1))
        usable_cpus(monkeypatch, 1)
        alone = assign_exhaustive(graph, apps)
        usable_cpus(monkeypatch, 4)
        with mock.patch.object(os, "fork", side_effect=OSError(11, "EAGAIN")) as failing:
            assert assign_exhaustive(graph, apps) == alone
        assert failing.call_count == 3

    @pytest.mark.parametrize("ending", ["return", "exception", "interrupt"])
    def test_no_child_outlives_the_search(self, monkeypatch, ending):
        graph, apps = pooled_instance(random.Random(1))
        stop = {"exception": ValueError, "interrupt": KeyboardInterrupt}.get(ending)
        parent, calls = os.getpid(), []

        # this process stops at its first fill after the fork, long before
        # any child ends; the fill before it, greedy's, comes before the fork
        def fill(*args):
            calls.append(None)
            if stop is not None and len(calls) > 1:
                if os.getpid() == parent:
                    raise stop("stop")
                if len(calls) == 2:
                    time.sleep(20)
            return progressive_fill(*args)

        monkeypatch.setattr(fairshare, "progressive_fill", fill)
        usable_cpus(monkeypatch, 4)
        statuses, waits = waited_statuses()
        with recorded_forks() as pids, waits:
            if stop is None:
                assign_exhaustive(graph, apps)
            else:
                with pytest.raises(stop, match="stop"):
                    assign_exhaustive(graph, apps)
        assert len(pids) == 3 and all(map(reaped, pids))
        # a child that has sent its share may be killed on its way out, so
        # only the children of a search that stopped are sure to be killed
        killed = [os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL for s in statuses]
        assert len(killed) == 3 and (stop is None or all(killed))

    @pytest.mark.parametrize(
        "shares, filled",
        [(2, [168, 161]), (3, [106, 115, 108]), (4, [78, 94, 90, 67])],
    )
    def test_fills_per_share_on_the_benchmark_shape(self, monkeypatch, shares, filled):
        # each share prunes against its own incumbent, greedy's at first, and
        # this process's count holds greedy's fill; one process fills 329
        graph, apps = pooled_instance(random.Random(1))
        usable_cpus(monkeypatch, shares)
        fills = count_fills(monkeypatch)
        children = []

        @contextlib.contextmanager
        def in_process(job):  # forked without a fork: the child's share runs here, at once
            before = len(fills)
            values = list(job)
            children.append(len(fills) - before)
            yield iter(values)

        monkeypatch.setattr(fairshare, "forked", in_process)
        assert assign_exhaustive(graph, apps) == unpruned_exhaustive(graph, apps)
        assert [len(fills) - sum(children)] + children == filled


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
