import contextlib
import dataclasses
import json
import os
import signal
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Tier-1 draws the same examples on every run and keeps no example database,
# so it replays no example that an earlier run stored; "randomized" draws
# fresh ones, more of them, when selected with --hypothesis-profile randomized
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("randomized", max_examples=500, database=None)
settings.load_profile("tier1")

from qnetfair import (
    Application,
    NetworkGraph,
    Node,
    NodeKind,
    QuantumLink,
    validate_scenario,
)
from qnetfair.routing import eligible_flows

# A test still running after this many seconds fails. The slowest takes
# about 6 s; a slot kernel handed a list it cannot arbitrate, such as a
# negative capacity, would grant forever and name no test.
WATCHDOG_S = 120


@pytest.fixture(autouse=True)
def watchdog():
    """Fail the test once it has run WATCHDOG_S seconds; the failure's
    traceback runs from the test down to the line it was stuck on. The
    timer is a signal, not a thread, so ``fork_cpus()`` still counts the
    usable CPUs; a forked child inherits no timer."""
    seconds = WATCHDOG_S

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def recorded_forks():
    """The pids of the children that os.fork makes in the block."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", recording):
        yield pids


def reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    return True


def revalidated(scenario, **changes):
    """``scenario`` validated again with ``changes`` to its config: a run
    takes its settings only from a validated scenario."""
    config = dataclasses.replace(scenario.config, **changes)
    return validate_scenario(scenario.graph, scenario.apps, config, scenario.given_assignment)


def line_graph(fidelities, capacity=1, gen_prob=1.0, swap_q=1.0, kinds=None):
    """Chain 0-1-...-n with one link per consecutive pair.

    ``fidelities`` gives one fidelity per link; every node is a
    computation node with the same swap probability unless ``kinds``
    overrides them.
    """
    n = len(fidelities) + 1
    if kinds is None:
        kinds = [NodeKind.COMPUTATION] * n
    nodes = [Node(i, kinds[i], swap_q) for i in range(n)]
    links = [
        QuantumLink(i, (i, i + 1), capacity, gen_prob, fidelities[i])
        for i in range(n - 1)
    ]
    return NetworkGraph(nodes, links)


def eligible_workers(graph, app):
    """Worker ids of ``eligible_flows``; raises EmptyEligibleSet likewise."""
    return frozenset(f.worker for f in eligible_flows(graph, app))


def edges_along(graph, path):
    """Edge ids along a node sequence, read from the links' endpoints."""
    by_pair = {frozenset(link.endpoints): link.id for link in graph.links}
    return tuple(by_pair[frozenset(uv)] for uv in zip(path, path[1:]))


def shared_link_graph(capacity, gen_prob=1.0):
    """Two computation nodes joined by a single link."""
    nodes = [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)]
    return NetworkGraph(nodes, [QuantumLink(0, (0, 1), capacity, gen_prob, 1.0)])


def shared_link_apps(weights, arrival_rate=0.0):
    """One app per weight, all host 0 with the single candidate worker 1."""
    return [
        Application(i, 0, float(w), 1, frozenset({1}), arrival_rate=arrival_rate)
        for i, w in enumerate(weights)
    ]


def parking_lot():
    """Line 0-1-2 with unit links; app 0 spans both edges, apps 1 and 2
    take one edge each. The canonical fairness topology."""
    graph = line_graph([1.0, 1.0], capacity=1)
    apps = [
        Application(0, 0, 1.0, 1, frozenset({2})),
        Application(1, 0, 1.0, 1, frozenset({1})),
        Application(2, 1, 1.0, 1, frozenset({2})),
    ]
    assignment = {0: frozenset({2}), 1: frozenset({1}), 2: frozenset({2})}
    return graph, apps, assignment


def scenario_dict(**sim_overrides):
    """A small valid scenario document for schema/CLI tests."""
    sim = {
        "slots": 100,
        "warmup": 0,
        "seed": 3,
        "traffic": "backlogged",
        "capacity_mode": "deterministic",
        "policy": "RR",
        "cost_mode": "unit",
        "quantum_base": 1,
        "assignment": "greedy",
        "replications": 1,
    }
    sim.update(sim_overrides)
    return {
        "nodes": [
            {"id": 0, "kind": "computation"},
            {"id": 1, "kind": "computation"},
        ],
        "links": [
            {
                "id": 0,
                "endpoints": [0, 1],
                "capacity_max": 1,
                "gen_success_prob": 1.0,
                "fidelity": 1.0,
            }
        ],
        "apps": [
            {
                "id": 0,
                "host": 0,
                "weight": 1.0,
                "workers_needed": 1,
                "candidates": [1],
            }
        ],
        "sim": sim,
    }


@pytest.fixture
def write_scenario(tmp_path):
    def _write(data, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")
        return str(path)

    return _write
