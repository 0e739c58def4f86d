import contextlib
import dataclasses
import json
import random
import time
from collections import deque
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import edges_along, eligible_workers, line_graph
from gen import (
    instance_doc,
    network_doc,
    pooled_instance,
    random_connected_graph,
    tree_chords_instance,
)
from qnetfair import (
    Application,
    EmptyEligibleSet,
    Flow,
    NetworkGraph,
    Node,
    NodeKind,
    NoPath,
    Policy,
    QuantumLink,
    SimConfig,
    build_flows,
    edges_fidelity,
    host_flows,
    load_scenario,
    parse_scenario,
    path_swap_prob,
    run,
    validate_scenario,
)
from qnetfair import routing
from qnetfair.cli import main
from qnetfair.routing import eligible_flows

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _graph_from_edges(n, edges):
    nodes = [Node(i, NodeKind.COMPUTATION) for i in range(n)]
    links = [QuantumLink(i, e, 1, 1.0, 1.0) for i, e in enumerate(edges)]
    return NetworkGraph(nodes, links)


@contextlib.contextmanager
def counted_routing():
    """Count the searches and sweeps behind ``routing.route``."""
    with mock.patch.object(routing, "_search", wraps=routing._search) as search:
        with mock.patch.object(routing, "_sweep", wraps=routing._sweep) as sweep:
            yield search, sweep


def bfs_flows(graph, host, workers):
    """The reference for ``routing.route``: a breadth-first search from
    the host alone, expanding neighbors in ascending (node, edge) order and
    never reparenting a node, stopped once every worker is discovered. The
    Flow of each reachable worker, by worker; nothing is kept."""
    parent = {host: None}  # node -> (parent, edge to the parent)
    queue = deque([host])
    pending = set(workers)
    while queue and pending:
        u = queue.popleft()
        for v, edge in graph.neighbors(u):
            if v not in parent:
                parent[v] = (u, edge)
                queue.append(v)
                pending.discard(v)
    flows = {}
    for dst in set(workers) & parent.keys():
        path, edges = [dst], []
        while parent[path[-1]] is not None:
            u, edge = parent[path[-1]]
            path.append(u)
            edges.append(edge)
        path, edges = tuple(path[::-1]), tuple(edges[::-1])
        flows[dst] = Flow(path, edges, path_swap_prob(path, graph), edges_fidelity(graph, edges))
    return flows


def route(graph, src, dst):
    """Path of the flow host_flows builds from src to dst alone."""
    flows = host_flows(graph, src, [dst])
    if not flows:
        raise NoPath(f"no path from {src} to {dst}")
    return flows[0].path


class TestShortestPath:
    def test_line(self):
        g = _graph_from_edges(3, [(0, 1), (1, 2)])
        assert route(g, 0, 2) == (0, 1, 2)

    def test_square_lexicographic_tie_break(self):
        g = _graph_from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        assert route(g, 0, 3) == (0, 1, 3)

    def test_disconnected_raises(self):
        g = _graph_from_edges(4, [(0, 1), (2, 3)])
        app = Application(0, 0, 1.0, 1, frozenset({1, 3}))
        assert [f.worker for f in host_flows(g, app.host, app.candidates)] == [1]
        with pytest.raises(NoPath):
            build_flows(g, [app], {0: app.candidates})

    def test_same_endpoints_rejected(self):
        g = _graph_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            route(g, 1, 1)

    @pytest.mark.parametrize(
        "host, workers, line",
        [
            (0, [1, 10**5000], "host 0: an integer of 5001 digits"),
            (10**5000, [0], "host an integer of 5001 digits: an integer of 5001 digits"),
            (0, [1, 9, 7], "host 0: 7"),
        ],
        ids=["long_worker", "long_host", "first_unknown"],
    )
    def test_unknown_node_is_named_as_diagnostics_echo_it(self, host, workers, line):
        g = _graph_from_edges(2, [(0, 1)])
        for call in (lambda: routing.route(g, {host: workers}), lambda: host_flows(g, host, workers)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"unknown node in a request from {line}"
        assert g.routes == {}

    def test_matches_exhaustive_enumeration_on_small_graphs(self):
        # brute force: the minimum-hop, lexicographically smallest simple path
        def all_simple_paths(g, src, dst):
            out = []

            def dfs(node, seen, acc):
                if node == dst:
                    out.append(tuple(acc))
                    return
                for nbr, _ in g.neighbors(node):
                    if nbr not in seen:
                        seen.add(nbr)
                        acc.append(nbr)
                        dfs(nbr, seen, acc)
                        acc.pop()
                        seen.remove(nbr)

            dfs(src, {src}, [src])
            return out

        rng = random.Random(99)
        checked = 0
        for _ in range(60):
            n = rng.randint(3, 8)
            g = random_connected_graph(rng, n, extra_edges=rng.randint(0, 4))
            src, dst = rng.sample(range(n), 2)
            paths = all_simple_paths(g, src, dst)
            expected = min(paths, key=lambda p: (len(p), p))
            assert route(g, src, dst) == expected
            checked += 1
        assert checked == 60

    def test_repeated_calls_identical(self):
        rng = random.Random(5)
        g = random_connected_graph(rng, 7, extra_edges=3)
        assert route(g, 0, 6) == route(g, 0, 6)


class TestSwapProb:
    def test_single_hop_needs_no_swap(self):
        g = line_graph([1.0], swap_q=0.3)
        assert path_swap_prob((0, 1), g) == 1.0

    def test_two_intermediates(self):
        g = line_graph([1.0, 1.0, 1.0], swap_q=0.9)
        assert path_swap_prob((0, 1, 2, 3), g) == pytest.approx(0.81)

    def test_mixed_intermediates(self):
        # oracle: direct product of the three intermediate probabilities
        nodes = [
            Node(0, NodeKind.COMPUTATION, 1.0),
            Node(1, NodeKind.REPEATER, 1.0),
            Node(2, NodeKind.REPEATER, 0.5),
            Node(3, NodeKind.REPEATER, 0.8),
            Node(4, NodeKind.COMPUTATION, 1.0),
        ]
        links = [QuantumLink(i, (i, i + 1), 1, 1.0, 1.0) for i in range(4)]
        g = NetworkGraph(nodes, links)
        assert path_swap_prob((0, 1, 2, 3, 4), g) == pytest.approx(1.0 * 0.5 * 0.8)

    @given(
        st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
        st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
        st.floats(0.05, 1.0),
    )
    def test_multiplicative_over_concatenation(self, left_q, right_q, joint_q):
        qs = left_q + [joint_q] + right_q
        g = line_graph([1.0] * (len(qs) + 1))
        g = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION, ([1.0] + qs + [1.0])[i]) for i in range(len(qs) + 2)],
            g.links,
        )
        full = tuple(range(len(qs) + 2))
        joint = len(left_q) + 1
        p1 = path_swap_prob(full[: joint + 1], g)
        p2 = path_swap_prob(full[joint:], g)
        whole = path_swap_prob(full, g)
        assert whole == pytest.approx(p1 * p2 * qs[len(left_q)])


class TestPathFidelity:
    """edges_fidelity over a line graph, whose link i joins nodes i and i+1."""

    def test_perfect_links_compose_perfectly(self):
        g = line_graph([1.0, 1.0, 1.0])
        assert edges_fidelity(g, (0, 1, 2)) == 1.0

    def test_fully_mixed_fixed_point(self):
        g = line_graph([0.25, 0.25])
        assert edges_fidelity(g, (0, 1)) == 0.25

    def test_two_point_nine_links(self):
        # 0.9*0.9 + 0.1*0.1/3
        g = line_graph([0.9, 0.9])
        assert edges_fidelity(g, (0, 1)) == pytest.approx(0.81 + 0.01 / 3, abs=1e-12)

    def test_single_link_is_its_fidelity(self):
        g = line_graph([0.6])
        assert edges_fidelity(g, (0,)) == 0.6

    def test_floor_holds_where_rounding_dips_below(self):
        # Unclamped, this fold rounds to 0.24999999999999997.
        g = line_graph([0.333984375, 0.2500001, 0.2500001, 0.2500001])
        assert edges_fidelity(g, (0, 1, 2, 3)) == 0.25

    @given(st.lists(st.floats(0.2500001, 1.0), min_size=1, max_size=6))
    def test_stays_in_werner_range(self, fids):
        g = line_graph(fids)
        f = edges_fidelity(g, tuple(range(len(fids))))
        assert 0.25 <= f <= 1.0 + 1e-12

    @given(
        st.lists(st.floats(0.2500001, 1.0), min_size=1, max_size=5),
        st.floats(0.2500001, 0.9999999),
    )
    def test_extension_by_imperfect_link_never_increases(self, fids, extra):
        g = line_graph(fids + [extra])
        base = edges_fidelity(g, tuple(range(len(fids))))
        extended = edges_fidelity(g, tuple(range(len(fids) + 1)))
        assert extended <= base + 1e-12

    @given(st.lists(st.floats(0.2500001, 1.0), min_size=1, max_size=5))
    def test_extension_by_perfect_link_is_invariant(self, fids):
        g = line_graph(fids + [1.0])
        base = edges_fidelity(g, tuple(range(len(fids))))
        extended = edges_fidelity(g, tuple(range(len(fids) + 1)))
        assert extended == base


class TestEligibleWorkers:
    def test_floor_threshold_keeps_everyone_connected(self):
        g = line_graph([0.8, 0.8, 0.8])
        app = Application(0, 0, 1.0, 1, frozenset({1, 2, 3}), min_fidelity=0.25)
        assert eligible_workers(g, app) == frozenset({1, 2, 3})

    def test_perfect_threshold_needs_perfect_links(self):
        g = line_graph([1.0, 0.9])
        app = Application(0, 0, 1.0, 1, frozenset({1, 2}), min_fidelity=1.0)
        assert eligible_workers(g, app) == frozenset({1})

    def test_fidelity_filter_separates_near_and_far_workers(self):
        # host 0, worker 1 reachable over 2 links, worker 2 over 3 links,
        # every link F = 0.9; the worker fidelities are 0.813333 and
        # 0.738222 (by the fold), so a 0.78 threshold keeps only worker 1
        nodes = [
            Node(0, NodeKind.COMPUTATION),
            Node(1, NodeKind.COMPUTATION),
            Node(2, NodeKind.COMPUTATION),
            Node(3, NodeKind.REPEATER),
            Node(4, NodeKind.REPEATER),
        ]
        links = [
            QuantumLink(0, (0, 3), 1, 1.0, 0.9),
            QuantumLink(1, (3, 1), 1, 1.0, 0.9),
            QuantumLink(2, (3, 4), 1, 1.0, 0.9),
            QuantumLink(3, (4, 2), 1, 1.0, 0.9),
        ]
        g = NetworkGraph(nodes, links)
        app = Application(0, 0, 1.0, 1, frozenset({1, 2}), min_fidelity=0.78)
        flows = host_flows(g, app.host, app.candidates)
        assert [f.worker for f in flows] == [1, 2]
        assert flows[0].e2e_fidelity == pytest.approx(0.813333, abs=1e-6)
        assert flows[1].e2e_fidelity == pytest.approx(0.738222, abs=1e-6)
        assert eligible_workers(g, app) == frozenset({1})

    def test_unreachable_candidates_are_dropped(self):
        g = _graph_from_edges(4, [(0, 1), (2, 3)])
        app = Application(0, 0, 1.0, 1, frozenset({1, 3}))
        assert eligible_workers(g, app) == frozenset({1})

    def test_too_few_survivors_raises(self):
        from qnetfair import EmptyEligibleSet

        g = _graph_from_edges(4, [(0, 1), (2, 3)])
        app = Application(0, 0, 1.0, 2, frozenset({1, 3}))
        with pytest.raises(EmptyEligibleSet):
            eligible_workers(g, app)


class TestRouteTable:
    """Flows built from one search per host equal the per-pair rule: each
    worker routed alone on a fresh graph, its edges read from the links'
    endpoints, then path_swap_prob and edges_fidelity."""

    @staticmethod
    def graphs():
        for seed in range(25):
            rng = random.Random(seed)
            g = random_connected_graph(rng, rng.randint(4, 12), extra_edges=rng.randint(0, 8))
            # per-link fidelities and per-node swap probabilities, so the
            # order of the fidelity fold and the chosen path both matter
            nodes = [
                dataclasses.replace(n, swap_success_prob=rng.choice([1.0, 0.9, 0.7]))
                for n in g.nodes
            ]
            links = [
                dataclasses.replace(l, fidelity=rng.choice([1.0, 0.97, 0.9, 0.8]))
                for l in g.links
            ]
            yield rng, NetworkGraph(nodes, links)
        rng = random.Random(99)
        tree = random_connected_graph(rng, 10, extra_edges=0)
        # a tree minus one of its links falls apart into two components
        yield rng, NetworkGraph(tree.nodes, tree.links[1:])

    @staticmethod
    def per_pair_flow(graph, app, worker):
        path = route(NetworkGraph(graph.nodes, graph.links), app.host, worker)
        edges = edges_along(graph, path)
        return Flow(
            path=path,
            edges=edges,
            swap_prob=path_swap_prob(path, graph),
            e2e_fidelity=edges_fidelity(graph, edges),
        )

    def test_flows_and_eligibility_match_per_pair_rule(self):
        unreachable_seen = 0
        for rng, g in self.graphs():
            n = len(g.nodes)
            for app_id in range(3):
                host = rng.randrange(n)
                others = [x for x in range(n) if x != host]
                app = Application(
                    app_id,
                    host,
                    1.0,
                    rng.randint(1, 2),
                    frozenset(rng.sample(others, rng.randint(2, len(others)))),
                    min_fidelity=rng.choice([0.25, 0.85, 0.9, 0.95, 1.0]),
                )
                expected = {}
                for cand in sorted(app.candidates):
                    try:
                        expected[cand] = self.per_pair_flow(g, app, cand)
                    except NoPath:
                        unreachable_seen += 1
                if len(expected) < len(app.candidates):
                    with pytest.raises(NoPath):
                        build_flows(g, [app], {app_id: app.candidates})
                flows = build_flows(g, [app], {app_id: frozenset(expected)})
                assert flows[app_id] == [self.per_pair_flow(g, app, w) for w in sorted(expected)]
                keep = {w for w, f in expected.items() if f.e2e_fidelity >= app.min_fidelity}
                if len(keep) >= app.workers_needed:
                    assert eligible_workers(g, app) == keep
                else:
                    with pytest.raises(EmptyEligibleSet) as exc:
                        eligible_workers(g, app)
                    assert exc.value.eligible == keep
        assert unreachable_seen > 0


class TestRouteReuse:
    """A graph routes each (host, destination) once; a route taken from an
    earlier search for other destinations equals a fresh search's."""

    def test_known_destinations_are_not_searched_again(self):
        g = line_graph([1.0] * 4)
        app = Application(0, 0, 1.0, 2, frozenset({2, 4}))
        with counted_routing() as (search, sweep):
            eligible_workers(g, app)
            assert search.call_count == 1
            build_flows(g, [app], {0: frozenset({2, 4})})
            eligible_workers(g, app)
            assert search.call_count == 1
            assert route(g, 0, 3) == (0, 1, 2, 3)  # a new destination
            assert search.call_count == 2
            assert search.call_args.args[1:] == (0, {3})
            assert sweep.call_count == 0

    def test_each_host_worker_flow_is_built_once_and_shared(self):
        g = line_graph([0.9] * 4)
        a = Application(0, 0, 1.0, 2, frozenset({2, 4}))
        b = Application(1, 0, 2.0, 2, frozenset({1, 2, 4}))  # a's host
        c = Application(2, 3, 1.0, 1, frozenset({4}))
        assignment = {0: frozenset({2, 4}), 1: frozenset({1, 4}), 2: frozenset({4})}

        def same(xs, ys):
            return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))

        with mock.patch.object(routing, "edges_fidelity", wraps=edges_fidelity) as fidelity:
            first = eligible_flows(g, a)
            assert same(eligible_flows(g, a), first)
            flows = build_flows(g, [a, b, c], assignment)
            assert same(build_flows(g, [a, b, c], assignment)[1], flows[1])
            assert same(flows[0], first)
            # b's flow to worker 4 is a's
            assert flows[1][1] is first[1]
            assert same(eligible_flows(g, b), [flows[1][0], first[0], first[1]])
            # one fold per (host, worker): (0, 1), (0, 2), (0, 4) and (3, 4)
            assert sorted(call.args[1] for call in fidelity.call_args_list) == [
                (0,), (0, 1), (0, 1, 2, 3), (3,)
            ]

    def test_routes_match_fresh_single_searches(self):
        for seed in range(30):
            rng = random.Random(seed)
            g = random_connected_graph(rng, rng.randint(4, 12), extra_edges=rng.randint(0, 8))
            n = len(g.nodes)
            for app_id in range(6):
                host = rng.randrange(n)
                dsts = rng.sample([x for x in range(n) if x != host], rng.randint(1, n - 1))
                app = Application(app_id, host, 1.0, len(dsts), frozenset(dsts))
                flows = build_flows(g, [app], {app_id: app.candidates})
                for flow in flows[app_id]:
                    fresh = NetworkGraph(g.nodes, g.links)
                    assert flow.path == route(fresh, host, flow.worker)


def oracle_graph(rng):
    """Components of random trees with chords or chains (one chain in
    eight has 2000 nodes), plus isolated nodes; node and link ids are
    shuffled, so ties fall to the id order, with random link fidelities
    and swap probabilities."""
    pieces = []
    for _ in range(rng.choice([1, 1, 2, 3])):
        if rng.random() < 0.3:
            n = 2000 if rng.random() < 0.125 else rng.randint(2, 60)
            pieces.append((n, [(i, i + 1) for i in range(n - 1)]))
        else:
            n = rng.randint(2, 40)
            g = random_connected_graph(rng, n, extra_edges=rng.randint(0, 2 * n))
            pieces.append((n, [l.endpoints for l in g.links]))
    pieces += [(1, [])] * rng.randint(0, 2)
    label = list(range(sum(n for n, _ in pieces)))
    rng.shuffle(label)
    pairs, base = [], 0
    for n, piece in pieces:
        pairs += [(label[base + u], label[base + v]) for u, v in piece]
        base += n
    link_ids = list(range(len(pairs)))
    rng.shuffle(link_ids)
    nodes = [Node(i, NodeKind.COMPUTATION, rng.choice([1.0, 0.9, 0.7])) for i in range(base)]
    links = sorted(
        (
            QuantumLink(link_ids[i], uv, 1, 1.0, rng.choice([1.0, 0.97, 0.9, 0.8]))
            for i, uv in enumerate(pairs)
        ),
        key=lambda l: l.id,
    )
    return NetworkGraph(nodes, links)


class TestRouteOracle:
    """Both ways ``route`` can take give every (host, destination) the
    Flow of the breadth-first reference, down to its floats, and hand the
    same Flow object to every later caller."""

    @staticmethod
    def requests(rng, graph):
        """Several hosts, the second asking for the first, all sharing one
        destination, the rest random."""
        n = len(graph.nodes)
        hosts = rng.sample(range(n), min(n - 1, rng.randint(3, 8)))
        shared = next(x for x in range(n) if x not in hosts)
        out = {}
        for i, h in enumerate(hosts):
            others = [x for x in range(n) if x != h]
            dsts = set(rng.sample(others, rng.randint(1, min(6, len(others)))))
            dsts.add(shared)
            if i == 1:
                dsts.add(hosts[0])
            out[h] = dsts
        return out

    @staticmethod
    def check(graph, requests):
        for h, dsts in requests.items():
            expected = bfs_flows(graph, h, dsts)
            known = graph.routes[h]
            assert {t: known[t] for t in dsts} == {t: expected.get(t) for t in dsts}
        with counted_routing() as (search, sweep):
            for h, dsts in requests.items():
                flows = host_flows(graph, h, dsts)
                assert all(f is graph.routes[h][f.worker] for f in flows)
            routing.route(graph, requests)
        assert search.call_count == sweep.call_count == 0

    def test_single_host_requests_search(self):
        for seed in range(160):
            rng = random.Random(seed)
            graph = oracle_graph(rng)
            if len(graph.nodes) < 3:
                continue
            requests = self.requests(rng, graph)
            for h, dsts in requests.items():
                with counted_routing() as (search, sweep):
                    routing.route(graph, {h: dsts})
                assert (search.call_count, sweep.call_count) == (1, 0)
            self.check(graph, requests)

    def test_hosts_behind_a_shallow_first_host_sweep(self):
        unreachable = 0
        for seed in range(160):
            rng = random.Random(seed)
            graph = oracle_graph(rng)
            if len(graph.nodes) < 4:
                continue
            requests = self.requests(rng, graph)
            # a first host whose one destination is a neighbor: depth 1
            first = next(
                (u for u in range(len(graph.nodes)) if u not in requests and graph.neighbors(u)),
                None,
            )
            if first is None or len(requests) < 2:
                continue
            batch = {first: {graph.neighbors(first)[-1][0]}, **requests}
            with counted_routing() as (search, sweep):
                routing.route(graph, batch)
            assert search.call_count == sweep.call_count == 1
            assert sweep.call_args.args[1] == requests
            self.check(graph, batch)
            unreachable += sum(f is None for h in requests for f in graph.routes[h].values())
        assert unreachable > 0


class TestRouteOnce:
    """Validation routes each host once, searching or sweeping as its
    input decides; nothing after it routes again."""

    CONFIG = SimConfig(slots=10, seed=1, policy=Policy.DRR)

    def test_mesh_searches_each_host(self):
        with counted_routing() as (search, sweep):
            load_scenario(str(SCENARIOS / "mesh_poisson.json"))
        assert (search.call_count, sweep.call_count) == (3, 0)

    def test_exhaustive_shape_searches_each_host(self):
        for seed in range(10):
            graph, apps = pooled_instance(random.Random(seed))
            with counted_routing() as (search, sweep):
                validate_scenario(graph, apps, self.CONFIG)
            assert (search.call_count, sweep.call_count) == (len({a.host for a in apps}), 0)

    def test_benchmark_network_shape_sweeps_after_one_search(self):
        graph, apps = tree_chords_instance(random.Random(0), 500, 750, 125, 100)
        with counted_routing() as (search, sweep):
            validate_scenario(graph, apps, self.CONFIG)
        assert (search.call_count, sweep.call_count) == (1, 1)
        assert len(sweep.call_args.args[1]) == len({a.host for a in apps}) - 1

    @pytest.mark.parametrize("n_nodes", [50, 100])
    def test_small_network_shape_searches_each_host(self, n_nodes):
        # 7 and 15 hosts behind a first depth of 4 and 6: fewer than three
        # hosts per level, where a sweep was measured slower than searches
        graph, apps = tree_chords_instance(
            random.Random(0), n_nodes, n_nodes * 3 // 2, n_nodes // 4, n_nodes // 5
        )
        with counted_routing() as (search, sweep):
            validate_scenario(graph, apps, self.CONFIG)
        assert (search.call_count, sweep.call_count) == (len({a.host for a in apps}), 0)

    def test_repeater_chain_searches_each_host(self):
        kinds = [NodeKind.REPEATER] * 2000
        for x in (0, 700, 1300, 1999):
            kinds[x] = NodeKind.COMPUTATION
        graph = line_graph([1.0] * 1999, kinds=kinds)
        apps = [
            Application(0, 0, 1.0, 1, frozenset({700, 1999})),
            Application(1, 1300, 1.0, 1, frozenset({0})),
            Application(2, 1999, 1.0, 1, frozenset({700})),
        ]
        with counted_routing() as (search, sweep):
            validate_scenario(graph, apps, self.CONFIG)
        assert (search.call_count, sweep.call_count) == (3, 0)
        assert graph.routes[0][1999].path == tuple(range(2000))

    @pytest.mark.parametrize("source", ["greedy", "random", "given", "exhaustive"])
    def test_solvers_and_engine_route_nothing(self, source, tmp_path, capsys):
        if source == "exhaustive":
            graph, apps = pooled_instance(random.Random(3))
            doc = instance_doc(graph, apps, {"slots": 40, "seed": 3, "policy": "DRR"})
            doc["sim"]["assignment"] = "exhaustive"
        else:
            doc = network_doc(5, assignment=source)
            doc["sim"].update(slots=40, warmup=0)
        scenario = validate_scenario(*parse_scenario(doc))
        with counted_routing() as (search, sweep):
            run(scenario)
        assert search.call_count == sweep.call_count == 0
        if source == "given":
            return  # not a solver of `qnetfair assign`
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with counted_routing() as loading:
            load_scenario(str(path))
        with counted_routing() as assigning:
            assert main(["assign", "--config", str(path), "--solver", source]) == 0
        capsys.readouterr()
        assert [c.call_count for c in assigning] == [c.call_count for c in loading]

    def test_validation_scales_to_2000_nodes(self):
        graph, apps = tree_chords_instance(random.Random(1), 2000, 3000, 500, 400)
        start = time.perf_counter()
        validate_scenario(graph, apps, self.CONFIG)
        assert time.perf_counter() - start < 5.0
