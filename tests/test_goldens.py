"""Golden hashes: the sha256 of every CLI output on the bundled scenarios
and on generated networks.

Each ``run`` case runs one scenario under one applicable policy with
``sim.replications`` 1 or 3 and ``--trace``, and hashes per_app.csv,
global.csv and trace.csv. Each ``assign`` case hashes the
``assign --format csv`` output of one solver. The generated scenarios in
``tests/scenarios/`` are written to files so that a case reads its input
as the bundled ones do:

- ``net60*`` are ``gen.network_doc`` networks of 60 nodes and 12 apps,
  each under greedy, random or given assignment. They run once each
  (``r1``) under the policies and cost modes of GENERATED_CASES, the cost
  mode set as ``sim.replications`` is; the ``sweep`` case sweeps
  ``policy`` over RR, WRR and DRR on net60 and hashes both sweep CSVs.
  ``net60_random`` also runs three replications (``r3``): each draws its
  own random pools, so one trace.csv holds the flow rows of three
  different flow tables.
- ``pooled2`` is ``gen.pooled_instance`` seed 2, 3 apps choosing 2 of 7
  workers on 30 nodes, where the exhaustive solver's pool bound prunes no
  assignment and its contention bound prunes all but 212 of the 9261.

A change that alters any output byte fails here. A change that alters
outputs on purpose (new RNG draws, new formatting) regenerates the file
and says why:

    PYTHONPATH=src python tests/test_goldens.py
"""
import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

import pytest

from gen import instance_doc, network_doc, pooled_instance
from qnetfair import Policy
from qnetfair.cli import main
from qnetfair.scenario_io import parse_scenario
from qnetfair.scheduling import policy_problems

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GENERATED_DIR = Path(__file__).resolve().parent / "scenarios"


def _pooled_doc(seed: int) -> dict:
    graph, apps = pooled_instance(random.Random(seed))
    return instance_doc(graph, apps, {"slots": 100, "seed": seed, "policy": "DRR"})


# stem -> the builder of its document
GENERATED = {
    "net60": partial(network_doc, 60),
    "net60_poisson": partial(network_doc, 60, traffic="poisson"),
    "net60_random": partial(network_doc, 60, assignment="random"),
    "net60_given": partial(network_doc, 60, assignment="given"),
    "pooled2": partial(_pooled_doc, 2),
}
# cost_mode changes only what a DRR grant spends
GENERATED_CASES = [
    "run/net60/RR/r1/unit",
    "run/net60/WRR/r1/unit",
    "run/net60/DRR/r1/unit",
    "run/net60/DRR/r1/hops",
    "run/net60_poisson/FCFS/r1/unit",
    "run/net60_poisson/DRR/r1/unit",
    "run/net60_random/DRR/r1/unit",
    "run/net60_random/DRR/r3/unit",
    "run/net60_given/DRR/r1/unit",
    "sweep/net60/policy",
    "assign/pooled2/exhaustive",
]
GOLDENS_PATH = Path(__file__).with_name("goldens.json")
SLOTS = 400  # above mesh_poisson's 200 warmup slots, small enough for Tier-1
REPLICATIONS = (1, 3)
SOLVERS = ("greedy", "random", "exhaustive")
RUN_FILES = ("per_app.csv", "global.csv", "trace.csv")
SWEEP_FILES = ("sweep_per_app.csv", "sweep_global.csv")


def _cases() -> list[str]:
    cases = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        _, apps, config, _ = parse_scenario(json.loads(path.read_text()))
        for policy in Policy:
            if not policy_problems(policy, apps, config.traffic, config.quantum_base):
                cases += [f"run/{path.stem}/{policy.value}/r{n}" for n in REPLICATIONS]
        cases += [f"assign/{path.stem}/{solver}" for solver in SOLVERS]
    return cases + GENERATED_CASES


CASES = _cases()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute(case: str, tmp: Path) -> dict[str, str]:
    """Run one case in-process and hash its outputs."""
    kind, stem, variant, *rest = case.split("/")
    scenario = (GENERATED_DIR if stem in GENERATED else SCENARIO_DIR) / f"{stem}.json"
    stdout = io.StringIO()
    if kind == "assign":
        with redirect_stdout(stdout):
            code = main(["assign", "--config", str(scenario), "--solver", variant,
                         "--format", "csv"])
        assert code == 0
        return {"stdout": _sha256(stdout.getvalue().encode())}
    out = tmp / "out"
    if kind == "sweep":
        with redirect_stdout(stdout):
            code = main(["sweep", "--config", str(scenario), "--slots", str(SLOTS),
                         "--param", variant, "--values", "RR,WRR,DRR",
                         "--output-dir", str(out)])
        assert code == 0
        return {name: _sha256((out / name).read_bytes()) for name in SWEEP_FILES}

    data = json.loads(scenario.read_text())
    data["sim"]["replications"] = int(rest[0][1:])
    if rest[1:]:
        data["sim"]["cost_mode"] = rest[1]
    config = tmp / "scenario.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    with redirect_stdout(stdout):
        code = main(["run", "--config", str(config), "--slots", str(SLOTS),
                     "--policy", variant, "--trace", "--output-dir", str(out)])
    assert code == 0
    return {name: _sha256((out / name).read_bytes()) for name in RUN_FILES}


def _goldens() -> dict[str, dict[str, str]]:
    return json.loads(GOLDENS_PATH.read_text())


def _generated_text(stem: str) -> str:
    return json.dumps(GENERATED[stem](), indent=1) + "\n"


def test_goldens_cover_every_case():
    assert sorted(_goldens()) == sorted(CASES)


@pytest.mark.parametrize("stem", GENERATED)
def test_generated_scenarios_are_reproducible(stem):
    assert (GENERATED_DIR / f"{stem}.json").read_text() == _generated_text(stem)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_goldens(case, tmp_path):
    assert compute(case, tmp_path) == _goldens()[case]


if __name__ == "__main__":
    GENERATED_DIR.mkdir(exist_ok=True)
    for stem in GENERATED:
        (GENERATED_DIR / f"{stem}.json").write_text(_generated_text(stem))
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {}
        for i, case in enumerate(CASES):
            case_dir = Path(tmp) / str(i)
            case_dir.mkdir()
            goldens[case] = compute(case, case_dir)
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} cases to {GOLDENS_PATH}")
