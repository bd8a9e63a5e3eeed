"""numpy loads only in processes whose commands compute with it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ortho_lab

# every module bench/traced_cli.py reads from sys.modules after `import ortho_lab.cli`
LAYERS = ("ratmat", "search", "spectral", "graphs", "colouring", "certificates", "cli")

PROBE = """
import contextlib, io, json, sys
from ortho_lab import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def probe(runs):
    """Run each argv through ``cli.run`` in one fresh interpreter; return
    the exit codes and the names in ``sys.modules`` at the end."""
    env = dict(os.environ)
    src = str(Path(ortho_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], set(result["modules"])


def test_numpy_free_commands_and_their_verify_never_load_numpy(tmp_path):
    emits = [
        ["bound", "--n", "8"],
        ["bound", "--n", "64", "--kind", "y"],
        ["psi", "--k", "4"],
        ["colour", "--n", "4", "--graph", "psi"],
        ["colour", "--n", "16", "--graph", "psi"],  # the colour16 bench workload
        ["families", "--n", "12", "--which", "m2k"],
        # every full-graph colouring, and the verdicts and spectrum built on
        # integers alone
        *(["colour", "--n", str(n)] for n in (1, 2, 4, 6, 8, 10)),
        *(["status", "--n", str(n)] for n in (4, 8, 12)),
        ["spectrum", "--n", "4"],
    ]
    outs = [str(tmp_path / f"cert{i}.json") for i in range(len(emits))]
    runs = [argv + ["--out", out] for argv, out in zip(emits, outs)]
    runs += [["verify", out] for out in outs]
    codes, modules = probe(runs)
    assert codes == [0] * len(runs)
    assert "numpy" not in modules
    assert {f"ortho_lab.{layer}" for layer in LAYERS} <= modules


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "8"],
        ["spectrum", "--n", "8"],
        ["status", "--n", "16"],
        ["families", "--n", "8", "--which", "segment"],
        ["families", "--n", "12", "--which", "odd"],
    ],
    ids=["search", "spectrum", "status", "segment", "odd"],
)
def test_commands_that_compute_with_numpy_load_it(tmp_path, argv):
    # the control: the probe above sees numpy whenever a command uses it
    codes, modules = probe([argv + ["--out", str(tmp_path / "cert.json")]])
    assert codes == [0]
    assert "numpy" in modules
