import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import edges_along, eligible_workers, line_graph
from gen import random_connected_graph
from qnetfair import (
    Application,
    EmptyEligibleSet,
    Flow,
    NetworkGraph,
    Node,
    NodeKind,
    NoPath,
    QuantumLink,
    build_flows,
    edges_fidelity,
    host_flows,
    path_swap_prob,
)
from qnetfair import routing
from qnetfair.routing import eligible_flows


def _graph_from_edges(n, edges):
    nodes = [Node(i, NodeKind.COMPUTATION) for i in range(n)]
    links = [QuantumLink(i, e, 1, 1.0, 1.0) for i, e in enumerate(edges)]
    return NetworkGraph(nodes, links)


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
        with mock.patch.object(g, "neighbors", wraps=g.neighbors) as neighbors:
            eligible_workers(g, app)
            searched = neighbors.call_count
            assert searched > 0
            build_flows(g, [app], {0: frozenset({2, 4})})
            eligible_workers(g, app)
            assert neighbors.call_count == searched
            assert route(g, 0, 3) == (0, 1, 2, 3)  # a new destination
            assert neighbors.call_count > searched

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
