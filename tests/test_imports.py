"""Import footprint: importing the package, picking and fitting load no
scipy; evaluating a truncated law loads only ``scipy.special``. The
command line binds none of the stage bodies of ``sfn.experiments``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Each of these costs start-up time and memory in every process that
# loads it; no module of the package needs them.
UNWANTED = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.stats")


def _child(code):
    """Run ``code`` in a fresh interpreter that imports ``sfn`` from this
    checkout; return the JSON object it prints last, with the names of the
    modules it holds at the end under ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code += "; import json, sys; print(json.dumps({**out, 'modules': sorted(sys.modules)}))"
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def _scipy(modules):
    return [name for name in modules if name.split(".")[0] == "scipy"]


@pytest.fixture(scope="module")
def child_imports():
    """Where a fresh interpreter found ``sfn`` and the modules it holds
    after ``import sfn, sfn.cli``."""
    return _child("import sfn, sfn.cli; out = {'file': sfn.__file__}")


@pytest.fixture(scope="module")
def mixture_imports():
    """The modules a fresh interpreter holds after building a ``TruncMixture``."""
    return _child(
        "import sfn; "
        "templates = sfn.make_projection_templates(sfn.phantom_volume(8), 2, seed=1); "
        "sfn.TruncMixture(sfn.TruncSpec(1.0, 2.0), templates); out = {}"
    )


def test_package_comes_from_this_checkout(child_imports):
    assert Path(child_imports["file"]).resolve().is_relative_to(ROOT / "src")
    assert "sfn.cli" in child_imports["modules"]
    assert "scipy.special" not in child_imports["modules"]


def test_importing_the_package_loads_no_scipy(child_imports):
    assert _scipy(child_imports["modules"]) == []


def test_building_a_mixture_loads_scipy_special(mixture_imports):
    assert "scipy.special" in mixture_imports["modules"]


def test_heavy_scipy_subpackages_stay_unloaded(mixture_imports):
    assert [module for module in UNWANTED if module in mixture_imports["modules"]] == []


RUNS = {
    "pure-noise-2d": {"geometry.canvas": "64x64", "geometry.sample_target": "20", "picker.threshold": "2.0"},
    "halfmap-fsc": {"geometry.canvas": "32x32x32", "geometry.sample_target": "20", "picker.threshold": "2.5",
                    "em.max_iters": "5"},
}


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_a_picking_run_loads_no_scipy(tmp_path, kind):
    """Picking pure noise and fitting the picks evaluates no truncated
    law, so a whole ``sfn run`` of such a kind loads no scipy."""
    settings = {"experiment.kind": kind, "experiment.seed": "1", "experiment.out": (tmp_path / "out").as_posix(),
                "geometry.field_count": "2", "geometry.patch_side": "8", "geometry.template_count": "2",
                "em.restarts": "1", **RUNS[kind]}
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    child = _child(f"import sfn.cli; out = {{'code': sfn.cli.main(['run', {str(config)!r}])}}")
    assert child["code"] == 0
    assert (tmp_path / "out" / "manifest.csv").is_file()
    assert _scipy(child["modules"]) == []


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
