"""hexflow imports no scipy module, and exports what it lists.

Importing hexflow, the check, curvature, solve and flow commands and the
Ricci potential must each leave scipy unloaded in a fresh interpreter.
Every name in hexflow.__all__ resolves on the package, and none is listed
twice.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexflow as hf
from conftest import PANTS_DOC

SRC = str(Path(hf.__file__).resolve().parents[1])

REPORT = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")


def scipy_modules_after(code: str, cwd) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT}"], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture
def files(tmp_path):
    for name, doc in (("mesh.json", PANTS_DOC), ("state.json", {"r": [1.0, 1.0, 1.1]}),
                      ("target.json", {"kbar": [2.0, 2.0, 2.0]})):
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


CLI = "from hexflow.cli import main\nassert main({}) == 0"


@pytest.mark.parametrize("code", [
    "import hexflow",
    CLI.format(["check", "mesh.json"]),
    CLI.format(["curvature", "mesh.json", "--state", "state.json"]),
    CLI.format(["solve", "mesh.json", "--target", "target.json"]),
    CLI.format(["flow", "mesh.json", "--state", "state.json", "--target", "target.json",
                "--kind", "ricci", "--tol", "1e-8", "--trace", "trace.csv"]),
    "import hexflow as hf\n"
    "m = hf.load_mesh('mesh.json')\n"
    "hf.ricci_potential(m, hf.validate_state(m, [-0.3, -0.5, -0.7]),\n"
    "                   hf.validate_state(m, [-0.6, -0.6, -0.6]), [2.0, 2.0, 2.0])",
], ids=["import", "check", "curvature", "solve", "flow", "ricci_potential"])
def test_no_scipy_loaded(code, files):
    assert scipy_modules_after(code, files) == []



def test_public_names_resolve_once():
    assert len(set(hf.__all__)) == len(hf.__all__)
    assert [name for name in hf.__all__ if not hasattr(hf, name)] == []
