#!/usr/bin/env python3
"""Worker-pool solver study: greedy and random baselines against the
exhaustive optimum on small random dumbbell networks.

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


def dumbbell(rng: random.Random):
    a, b = rng.randint(2, 3), rng.randint(2, 3)
    n = a + b
    nodes = [Node(i, NodeKind.COMPUTATION, 1.0) for i in range(n)]
    links, pairs = [], set()

    def add(u, v, cap):
        key = (min(u, v), max(u, v))
        if key not in pairs:
            pairs.add(key)
            links.append(QuantumLink(len(links), key, cap, 1.0, 1.0))

    for v in range(1, a):
        add(rng.randrange(v), v, rng.randint(3, 4))
    for v in range(a + 1, n):
        add(rng.randrange(a, v), v, rng.randint(3, 4))
    add(rng.randrange(a), rng.randrange(a, n), rng.randint(1, 2))
    apps = []
    for i in range(rng.randint(2, 3)):
        host = rng.randrange(a)
        near = [x for x in range(a) if x != host]
        cands = ([rng.choice(near)] if near else []) + rng.sample(
            range(a, n), rng.randint(1, 2)
        )
        apps.append(Application(i, host, float(rng.choice([1.0, 2.0])), 1, frozenset(cands)))
    return NetworkGraph(nodes, links), apps


def min_weighted(graph, apps, assignment) -> float:
    return min(p.weighted for p in predicted_app_rates(graph, apps, assignment).values())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.instances < 2:
        parser.error(f"--instances: quartiles need at least 2 instances, got {args.instances}")

    rng = random.Random(args.seed)
    greedy_ratio, random_ratio = [], []
    greedy_optimal = 0
    for i in range(args.instances):
        graph, apps = dumbbell(rng)
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
