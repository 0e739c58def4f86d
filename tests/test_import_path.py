"""A command loads only the standard-library modules it uses: a run with
one replication loads neither hashlib (and with it OpenSSL), statistics
nor decimal. Each check runs in a fresh interpreter, since the suite has
loaded all of them."""
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MESH = ROOT / "scenarios" / "mesh_poisson.json"
HEAVY = ("hashlib", "_hashlib", "statistics", "decimal")


def importable(name):
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def fresh_python(code, *args):
    """Last stdout line, as JSON, of ``code`` run in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


COMMANDS = """
import json, sys
from qnetfair.cli import main
config, out = sys.argv[1:]
for argv in (
    ["run", "--config", config, "--output-dir", out],
    ["assign", "--config", config],
    ["validate", "--config", config],
):
    assert main(argv) == 0, argv
print(json.dumps(sorted(name for name in %r if name in sys.modules)))
""" % (HEAVY,)


def test_run_assign_validate_load_no_heavy_module(tmp_path):
    assert json.loads(MESH.read_text())["sim"]["replications"] == 1
    loaded = set(fresh_python(COMMANDS, MESH, tmp_path))
    assert (tmp_path / "per_app.csv").is_file()
    if not (importable("_sha2") or importable("_sha256")):
        # a Python built without the builtin sha256 takes it from hashlib
        loaded -= {"hashlib", "_hashlib"}
    assert loaded == set()


LABELS = ["capacity", "arrival", "success", "assignment", "replication:0", "replication:7"]
MASTER_SEEDS = [0, 1, 42, -1, 2**64, 10**30]
STREAM_SEEDS = """
import json, sys
for name in sys.argv[1:]:
    sys.modules[name] = None  # importing it raises ImportError
from qnetfair.engine import stream_seed
seeds = [stream_seed(seed, label) for seed in %r for label in %r]
print(json.dumps(["hashlib" in sys.modules, seeds]))
""" % (MASTER_SEEDS, LABELS)


@pytest.mark.parametrize("blocked", [[], ["_sha2"], ["_sha2", "_sha256"]], ids=str)
def test_every_sha256_import_gives_hashlib_seeds(blocked):
    expected = [
        int.from_bytes(hashlib.sha256(f"{label}:{seed}".encode()).digest()[:8], "big")
        for seed in MASTER_SEEDS
        for label in LABELS
    ]
    took_hashlib, seeds = fresh_python(STREAM_SEEDS, *blocked)
    assert seeds == expected
    lean = [name for name in ("_sha2", "_sha256") if name not in blocked and importable(name)]
    assert took_hashlib == (not lean)
