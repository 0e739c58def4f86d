"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Tolerances are fixed here, not calibrated elsewhere.
"""
import math
import random
import statistics
import time

from conftest import parking_lot, scenario_dict, shared_link_apps, shared_link_graph
from gen import dumbbell_instance, random_maxmin_instance
from qnetfair import (
    Application,
    AssignmentSource,
    CapacityMode,
    NetworkGraph,
    Node,
    NodeKind,
    Policy,
    QuantumLink,
    SimConfig,
    Traffic,
    assign_exhaustive,
    assign_greedy,
    assign_random,
    jain_index,
    maxmin_rates,
    predicted_app_rates,
    run,
    validate_scenario,
)
from qnetfair.cli import main as cli_main


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _scenario(graph, apps, **overrides):
    cfg = dict(
        slots=10_000,
        seed=2024,
        policy=Policy.DRR,
        capacity_mode=CapacityMode.DETERMINISTIC,
        assignment=AssignmentSource.GREEDY,
    )
    cfg.update(overrides)
    return validate_scenario(graph, apps, SimConfig(**cfg))


def test_c01_drr_single_bottleneck_tracks_weighted_maxmin():
    scenario = _scenario(shared_link_graph(6), shared_link_apps([1.0, 2.0, 3.0]))
    start = time.perf_counter()
    metrics = run(scenario)
    elapsed = time.perf_counter() - start
    rates = [metrics.per_app[a].delivered_rate for a in (0, 1, 2)]
    ok = all(abs(r - e) / e <= 0.02 for r, e in zip(rates, (1.0, 2.0, 3.0)))
    ok = ok and elapsed < 5.0
    _report(
        "DRR single bottleneck matches weighted max-min within 2%",
        ok,
        f"rates={[f'{r:.4f}' for r in rates]} runtime={elapsed:.2f}s",
    )


def test_c02_drr_parking_lot_tracks_maxmin():
    graph, apps, assignment = parking_lot()
    scenario = _scenario(graph, apps)
    metrics = run(scenario)
    rates = [metrics.per_app[a].delivered_rate for a in (0, 1, 2)]
    sim_ok = all(abs(r - 0.5) / 0.5 <= 0.02 for r in rates)
    oracle = maxmin_rates(
        {0: (0, 1), 1: (0,), 2: (1,)}, {0: 1.0, 1: 1.0}, {0: 1.0, 1: 1.0, 2: 1.0}
    )
    oracle_ok = oracle == {0: 0.5, 1: 0.5, 2: 0.5}
    _report(
        "DRR parking lot matches max-min; oracle exactly (0.5, 0.5, 0.5)",
        sim_ok and oracle_ok,
        f"rates={[f'{r:.4f}' for r in rates]} oracle={oracle}",
    )


def test_c03_rr_short_term_fairness_every_slot():
    violations = 0
    for n in (2, 3, 5):
        scenario = _scenario(
            shared_link_graph(1),
            shared_link_apps([1.0] * n),
            policy=Policy.RR,
            slots=1_000,
        )
        ledgers = []
        run(scenario, on_slot=ledgers.append)
        cum = dict.fromkeys(range(n), 0)
        for ledger in ledgers:
            for (app, _worker), count in ledger.grants.items():
                cum[app] += count
            if max(cum.values()) - min(cum.values()) > 1:
                violations += 1
    _report(
        "RR cumulative-grant spread <= 1 after every slot (n = 2, 3, 5)",
        violations == 0,
        f"violations={violations}",
    )


def test_c04_wrr_proportionality_every_pass():
    weights = (1.0, 2.0, 3.0)
    scenario = _scenario(
        shared_link_graph(6), shared_link_apps(weights), policy=Policy.WRR, slots=1_000
    )
    ledgers = []
    run(scenario, on_slot=ledgers.append)
    w_max = max(weights)
    total_weight = sum(weights)
    worst = 0.0
    cum = dict.fromkeys(range(3), 0)
    ok = True
    for ledger in ledgers:
        for (app, _worker), count in ledger.grants.items():
            cum[app] += count
        total = sum(cum.values())
        for app, w in enumerate(weights):
            dev = abs(cum[app] - w / total_weight * total)
            worst = max(worst, dev)
            if dev > w_max:
                ok = False
    _report(
        "WRR cumulative grants within w_max = 3 of proportional share after every pass",
        ok,
        f"worst deviation={worst:.3f}",
    )


def test_c05_swap_success_statistics_three_hop_path():
    nodes = [
        Node(0, NodeKind.COMPUTATION, 1.0),
        Node(1, NodeKind.REPEATER, 0.9),
        Node(2, NodeKind.REPEATER, 0.9),
        Node(3, NodeKind.COMPUTATION, 1.0),
    ]
    links = [QuantumLink(i, (i, i + 1), 1, 1.0, 1.0) for i in range(3)]
    graph = NetworkGraph(nodes, links)
    apps = [Application(0, 0, 1.0, 1, frozenset({3}))]
    scenario = _scenario(graph, apps, policy=Policy.RR, slots=10_000)
    metrics = run(scenario)
    grants = metrics.per_app[0].grants
    rate = metrics.per_app[0].delivered / grants
    sigma = math.sqrt(0.81 * 0.19 / grants)
    ok = grants >= 10_000 and abs(rate - 0.81) <= 3 * sigma
    _report(
        "empirical 3-hop swap success rate within 3 sigma of 0.81",
        ok,
        f"grants={grants} rate={rate:.4f} bound={3 * sigma:.4f}",
    )


def test_c06_maxmin_feasible_and_bottleneck_on_1000_instances():
    # independent certificate check, written against the definitions
    # rather than the library helper
    def check(flow_edges, caps, weights, rates, tol=1e-9):
        load = {e: 0.0 for e in caps}
        for f, edges in flow_edges.items():
            for e in set(edges):
                load[e] += rates[f]
        if any(load[e] > caps[e] + tol for e in caps):
            return False
        for f, edges in flow_edges.items():
            wr = rates[f] / weights[f]
            found = False
            for e in set(edges):
                if load[e] < caps[e] - tol:
                    continue
                peak = max(
                    rates[g] / weights[g] for g, ge in flow_edges.items() if e in set(ge)
                )
                if wr >= peak - tol:
                    found = True
                    break
            if not found:
                return False
        return True

    rng = random.Random(1234)
    start = time.perf_counter()
    failures = 0
    for _ in range(1_000):
        flow_edges, caps, weights = random_maxmin_instance(rng)
        rates = maxmin_rates(flow_edges, caps, weights)
        if not check(flow_edges, caps, weights, rates):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    _report(
        "max-min feasible + bottleneck property on 1000 random instances",
        ok,
        f"failures={failures} runtime={elapsed:.2f}s",
    )


def test_c07_assignment_solver_ordering():
    def min_weighted(graph, apps, assignment):
        return min(
            p.weighted for p in predicted_app_rates(graph, apps, assignment).values()
        )

    base = 20_000
    chain_violations = 0
    strict_wins = 0
    ratios = []
    for i in range(100):
        rng = random.Random(base + i)
        graph, apps = dumbbell_instance(rng)
        exh = min_weighted(graph, apps, assign_exhaustive(graph, apps))
        grd = min_weighted(graph, apps, assign_greedy(graph, apps))
        rnd_mean = statistics.fmean(
            min_weighted(graph, apps, assign_random(graph, apps, random.Random(base + 1000 * i + j)))
            for j in range(20)
        )
        if not (exh >= grd - 1e-9 and grd >= rnd_mean - 1e-9):
            chain_violations += 1
        if grd > rnd_mean + 1e-9:
            strict_wins += 1
        ratios.append(grd / exh if exh > 0 else 1.0)
    qs = statistics.quantiles(ratios, n=4)
    detail = (
        f"chain_violations={chain_violations} strict_wins={strict_wins}/100 "
        f"greedy/exhaustive ratio: min={min(ratios):.3f} q1={qs[0]:.3f} "
        f"median={qs[1]:.3f} q3={qs[2]:.3f} mean={statistics.fmean(ratios):.3f}"
    )
    _report(
        "exhaustive >= greedy >= random-mean, greedy strictly better on >= 90%",
        chain_violations == 0 and strict_wins >= 90,
        detail,
    )


def test_c08_fidelity_composition_values():
    from conftest import line_graph
    from qnetfair import edges_fidelity

    # line_graph's link i joins nodes i and i+1, so links 0..k-1 form the path
    perfect = edges_fidelity(line_graph([1.0, 1.0, 1.0]), (0, 1, 2))
    mixed = edges_fidelity(line_graph([0.25, 0.25]), (0, 1))
    nine = edges_fidelity(line_graph([0.9, 0.9]), (0, 1))
    ok = perfect == 1.0 and mixed == 0.25 and abs(nine - 0.813333) <= 1e-6
    _report(
        "fidelity composition: 1.0 exact, 0.25 fixed point, 0.813333 +/- 1e-6",
        ok,
        f"perfect={perfect} mixed={mixed} two_nines={nine:.7f}",
    )


def test_c09_byte_identical_outputs_on_rerun(tmp_path, write_scenario):
    data = scenario_dict(capacity_mode="stochastic", policy="DRR", slots=400, replications=2)
    data["nodes"].append({"id": 2, "kind": "repeater", "swap_success_prob": 0.9})
    data["nodes"].append({"id": 3, "kind": "computation"})
    data["links"][0]["gen_success_prob"] = 0.7
    data["links"].append(
        {"id": 1, "endpoints": [0, 2], "capacity_max": 2, "gen_success_prob": 0.8, "fidelity": 0.9}
    )
    data["links"].append(
        {"id": 2, "endpoints": [2, 3], "capacity_max": 2, "gen_success_prob": 0.8, "fidelity": 0.9}
    )
    data["apps"].append(
        {"id": 1, "host": 0, "weight": 2.0, "workers_needed": 1, "candidates": [3], "min_fidelity": 0.7}
    )
    path = write_scenario(data)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = cli_main(["run", "--config", path, "--output-dir", str(out), "--trace"])
        assert code == 0
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("per_app.csv", "global.csv", "trace.csv")
    )
    _report("same seed reruns produce byte-identical CSV files", same)


def test_c10_jain_matches_direct_formula():
    rng = random.Random(55)
    worst = 0.0
    ok = True
    for _ in range(1_000):
        n = rng.randint(1, 50)
        values = [rng.uniform(0.0, 100.0) for _ in range(n)]
        if not any(values):
            values[0] = 1.0
        direct = (sum(values) ** 2) / (n * sum(v * v for v in values))
        got = jain_index(values)
        rel = abs(got - direct) / direct
        worst = max(worst, rel)
        if rel > 1e-12:
            ok = False
    boundary_ok = (
        jain_index([7.0, 7.0, 7.0, 7.0]) == 1.0 and jain_index([1.0, 0.0, 0.0, 0.0]) == 0.25
    )
    _report(
        "Jain index matches direct formula to 1e-12; boundaries exact",
        ok and boundary_ok,
        f"worst relative error={worst:.2e}",
    )


def test_c11_conservation_across_representative_runs():
    # external recount from traced ledgers, on top of the engine's own
    # always-on per-slot checks
    violations = 0
    slots_checked = 0

    def recount(ledgers, flow_edges):
        nonlocal violations, slots_checked
        for ledger in ledgers:
            slots_checked += 1
            used = [0] * len(ledger.sampled)  # by link id, as the ledger's lists
            for key, count in ledger.grants.items():
                for e in flow_edges[key]:
                    used[e] += count
            if len(ledger.residual) != len(ledger.sampled):
                violations += 1
            for e, sampled in enumerate(ledger.sampled):
                if used[e] > sampled or ledger.residual[e] != sampled - used[e]:
                    violations += 1
            for key, done in ledger.successes.items():
                if done > ledger.grants.get(key, 0):
                    violations += 1

    cases = []
    cases.append(_scenario(shared_link_graph(6), shared_link_apps([1.0, 2.0, 3.0]), slots=2_000))
    graph, apps, _ = parking_lot()
    cases.append(_scenario(graph, apps, slots=2_000))
    stoch_graph = NetworkGraph(
        [
            Node(0, NodeKind.COMPUTATION, 1.0),
            Node(1, NodeKind.REPEATER, 0.8),
            Node(2, NodeKind.COMPUTATION, 1.0),
            Node(3, NodeKind.COMPUTATION, 1.0),
        ],
        [
            QuantumLink(0, (0, 1), 3, 0.6, 0.9),
            QuantumLink(1, (1, 2), 3, 0.6, 0.9),
            QuantumLink(2, (1, 3), 2, 0.5, 0.95),
        ],
    )
    stoch_apps = [
        Application(0, 0, 1.0, 1, frozenset({2}), min_fidelity=0.7, arrival_rate=1.0),
        Application(1, 0, 2.0, 1, frozenset({3}), min_fidelity=0.7, arrival_rate=0.8),
    ]
    cases.append(
        _scenario(
            stoch_graph,
            stoch_apps,
            capacity_mode=CapacityMode.STOCHASTIC,
            traffic=Traffic.POISSON,
            policy=Policy.FCFS,
            slots=2_000,
        )
    )
    cases.append(
        _scenario(stoch_graph, stoch_apps, capacity_mode=CapacityMode.STOCHASTIC, slots=2_000)
    )

    from qnetfair import build_flows
    from qnetfair.engine import resolve_assignment

    for scenario in cases:
        ledgers = []
        run(scenario, on_slot=ledgers.append)
        assignment = resolve_assignment(scenario, scenario.config)
        flows = build_flows(scenario.graph, scenario.apps, assignment)
        flow_edges = {
            (a, f.worker): f.edges for a, fl in flows.items() for f in fl
        }
        recount(ledgers, flow_edges)

    _report(
        "zero per-slot conservation violations across representative runs",
        violations == 0 and slots_checked >= 8_000,
        f"slots_checked={slots_checked} violations={violations}",
    )
