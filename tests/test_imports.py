"""Import footprint: the package loads only ``scipy.special`` from scipy,
and the command line binds none of the stage bodies of ``sfn.experiments``."""

import importlib
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


# A stage is written once, in ``sfn.experiments``; the command line calls
# it there, so none of the stage bodies' own calls may be bound in ``sfn.cli``.
STAGE_BODY = (
    ("sfn.em", ("em_classify2d", "em_reconstruct3d", "Recon3dConfig", "save_recon_state")),
    ("sfn.metrics", ("match_classes", "fsc")),
    ("sfn.picker", ("pick_field", "save_picks")),
    ("sfn.templates", ("save_templates",)),
)


def test_the_command_line_holds_no_stage_body():
    import sfn.cli
    import sfn.experiments

    banned = [getattr(importlib.import_module(module), name) for module, names in STAGE_BODY for name in names]
    banned += [value for name, value in vars(sfn.experiments).items() if name[:1] == "_" and name[:2] != "__"]
    banned.append(sfn.experiments)  # and with it every private name there
    assert [name for name, value in vars(sfn.cli).items() if any(value is b for b in banned)] == []
