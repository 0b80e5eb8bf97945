"""Import footprint: the package loads only ``scipy.special`` from scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Each of these costs start-up time and memory in every process and pool
# worker; no module of the package needs them.
UNWANTED = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.stats")


@pytest.fixture(scope="module")
def child_imports():
    """Where a fresh interpreter found ``sfn`` and the modules it holds
    after ``import sfn, sfn.cli``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import json, sys; import sfn, sfn.cli; "
        "print(json.dumps({'file': sfn.__file__, 'modules': sorted(sys.modules)}))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_package_comes_from_this_checkout(child_imports):
    assert Path(child_imports["file"]).resolve().is_relative_to(ROOT / "src")
    assert {"sfn.cli", "scipy.special"} <= set(child_imports["modules"])


def test_heavy_scipy_subpackages_stay_unloaded(child_imports):
    assert [module for module in UNWANTED if module in child_imports["modules"]] == []
