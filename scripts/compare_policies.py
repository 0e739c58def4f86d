#!/usr/bin/env python3
"""Compare the four scheduling disciplines on the bundled Poisson mesh.

Runs each policy over the same seeds and prints a per-app throughput
table plus Jain's index over weighted rates and the mean latency.
Usage: python scripts/compare_policies.py [--slots N] [--reps R]
"""
import argparse
import dataclasses
import statistics
import sys
from pathlib import Path

from qnetfair import Policy, ValidationError, load_scenario, replication_runs, validate_scenario

SCENARIO = Path(__file__).parent.parent / "scenarios" / "mesh_poisson.json"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", default=str(SCENARIO))
    parser.add_argument("--slots", type=int, default=4000)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()

    if args.reps < 1:
        parser.error(f"--reps: must be >= 1, got {args.reps}")
    scenario = load_scenario(args.scenario)
    # each policy's runs take their settings from a scenario validated with them
    scenarios = {}
    for policy in Policy:
        config = dataclasses.replace(
            scenario.config, policy=policy, slots=args.slots, replications=args.reps
        )
        try:
            scenarios[policy] = validate_scenario(
                scenario.graph, scenario.apps, config, scenario.given_assignment
            )
        except ValidationError as err:
            parser.error("; ".join(err.diagnostics))
    print(f"scenario: {args.scenario}")
    print(f"slots={args.slots} warmup={scenario.config.warmup_slots} reps={args.reps}")
    header = ["policy"]
    header += [f"app{a.id}(w={a.weight:g})" for a in scenario.apps]
    header += ["jain(weighted)", "latency(mean)"]
    print("  ".join(f"{h:>14}" for h in header))

    for policy, policy_scenario in scenarios.items():
        runs = replication_runs(policy_scenario)
        cells = [policy.value]
        for app in scenario.apps:
            rates = [m.per_app[app.id].delivered_rate for m in runs]
            cells.append(f"{statistics.fmean(rates):.3f}")
        jains = [m.jain_weighted for m in runs if m.jain_weighted is not None]
        cells.append(f"{statistics.fmean(jains):.4f}" if jains else "NA")
        lats = [
            m.per_app[a.id].mean_latency
            for m in runs
            for a in scenario.apps
            if m.per_app[a.id].mean_latency is not None
        ]
        cells.append(f"{statistics.fmean(lats):.2f}" if lats else "NA")
        print("  ".join(f"{c:>14}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
