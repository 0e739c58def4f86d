#!/usr/bin/env python3
"""Worker-pool solver study: greedy and random baselines against the
exhaustive optimum on random 30-node networks, the shape of the
``exhaustive-30`` benchmark (3 apps, each choosing 2 of 7 workers).

Prints the distribution of min-weighted-rate ratios and how often each
solver attains the optimum. Usage: python scripts/assignment_study.py
[--instances N] [--seed S]
"""
import argparse
import random
import statistics
import sys

from qnetfair import (
    Application,
    NetworkGraph,
    Node,
    NodeKind,
    QuantumLink,
    assign_exhaustive,
    assign_greedy,
    assign_random,
    predicted_app_rates,
)


def pooled(rng: random.Random):
    """The exhaustive benchmark's shape: 30 nodes and 45 links (a random
    recursive tree plus distinct chords), 12 computation nodes and lossy
    repeaters elsewhere; 3 apps each need 2 of 7 computation candidates,
    so each instance has 21**3 = 9261 assignments."""
    computation = set(rng.sample(range(30), 12))
    nodes = [
        Node(i, NodeKind.COMPUTATION, 1.0)
        if i in computation
        else Node(i, NodeKind.REPEATER, rng.choice([0.9, 0.95, 0.99]))
        for i in range(30)
    ]
    pairs = [(rng.randrange(v), v) for v in range(1, 30)]
    seen = set(pairs)
    while len(pairs) < 45:
        u, v = sorted(rng.sample(range(30), 2))
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    links = [
        QuantumLink(i, pair, rng.randint(2, 4), rng.choice([0.5, 0.75, 0.9, 1.0]),
                    rng.choice([0.98, 0.99, 1.0]))
        for i, pair in enumerate(pairs)
    ]
    hosts = sorted(computation)
    apps = []
    for i in range(3):
        host = rng.choice(hosts)
        cands = rng.sample([c for c in hosts if c != host], 7)
        apps.append(Application(i, host, float(rng.choice([1, 1, 2, 3])), 2, frozenset(cands)))
    return NetworkGraph(nodes, links), apps


def min_weighted(graph, apps, assignment) -> float:
    return min(p.weighted for p in predicted_app_rates(graph, apps, assignment).values())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--instances", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.instances < 2:
        parser.error(f"--instances: quartiles need at least 2 instances, got {args.instances}")

    rng = random.Random(args.seed)
    greedy_ratio, random_ratio = [], []
    greedy_optimal = 0
    for i in range(args.instances):
        graph, apps = pooled(rng)
        exh = min_weighted(graph, apps, assign_exhaustive(graph, apps))
        grd = min_weighted(graph, apps, assign_greedy(graph, apps))
        rnd = statistics.fmean(
            min_weighted(graph, apps, assign_random(graph, apps, random.Random(args.seed + 997 * i + j)))
            for j in range(20)
        )
        if exh > 0:
            greedy_ratio.append(grd / exh)
            random_ratio.append(rnd / exh)
        if abs(grd - exh) < 1e-9:
            greedy_optimal += 1

    def describe(name, ratios):
        qs = statistics.quantiles(ratios, n=4)
        print(
            f"{name:>12}: min={min(ratios):.3f} q1={qs[0]:.3f} median={qs[1]:.3f} "
            f"q3={qs[2]:.3f} mean={statistics.fmean(ratios):.3f}"
        )

    print(f"{args.instances} instances, ratios of min weighted rate vs exhaustive optimum")
    describe("greedy", greedy_ratio)
    describe("random-mean", random_ratio)
    print(f"greedy attains the optimum on {greedy_optimal}/{args.instances} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
