"""A run is its stage chain: the stage commands, given the run's own
config file, reproduce the run's bytes.

For a pure-noise 2D run, a pure-noise 3D run, a pure-noise 2D run with
the ``random`` algorithm and a half-map FSC run, each with a sample
target that caps its picks, ``sfn synth`` writes the run's templates and
``sfn pick`` on its fields writes every capped pick file of the run;
``classify2d`` or ``recon3d`` on the run's saved picks give its class
means or half volumes with the same trace, ``metrics --means`` on those
class means gives its bias report, ``recon3d --reference`` scores a half
against the truth as the run scores its volume, and ``metrics --volume``
on the run's two half volumes writes its ``fsc.csv``.
"""

from pathlib import Path

import numpy as np
import pytest

from sfn.cli import main
from sfn.em import load_recon_state
from sfn.metrics import best_rotation_pcc
from sfn.picker import load_picks
from sfn.templates import load_templates
from sfn.tensors import RotationGrid, read_tensor

SHARED = {
    "experiment.seed": "5", "geometry.patch_side": "6", "geometry.template_count": "3",
    "noise.sigma": "1.0", "picker.threshold": "2.5",
    "em.sigma": "1.0", "em.max_iters": "15", "em.restarts": "2", "em.rel_tol": "1e-8",
}
# Every run's sample target caps its picks: the template runs pick 148
# (2D) and 60 (3D) patches, keeping 40; the random run asks 20 of each
# field and keeps 59; the half-map run cuts 20-pick halves from both its
# template and random picks.
RUNS = {
    "2d": {"experiment.kind": "pure-noise-2d", "geometry.canvas": "128x128", "geometry.field_count": "3",
           "geometry.sample_target": "40"},
    "3d": {"experiment.kind": "pure-noise-3d", "geometry.canvas": "32x32x32", "geometry.field_count": "2",
           "geometry.sample_target": "40"},
    "random": {"experiment.kind": "pure-noise-2d", "geometry.canvas": "128x128", "geometry.field_count": "3",
               "geometry.sample_target": "59", "picker.algorithm": "random"},
    "halfmap": {"experiment.kind": "halfmap-fsc", "geometry.canvas": "32x32x32", "geometry.field_count": "2",
                "geometry.sample_target": "40"},
}
# the half volumes of each 3D run, as (pick file, recon directory) names
HALVES = {
    "3d": [(f"picks_{half}", f"recon_{half}") for half in "ab"],
    "halfmap": [(f"picks_{key}_{half}", f"recon_{key}_{half}") for key in ("template", "random") for half in "ab"],
}


def _files(directory):
    return sorted(p.relative_to(directory) for p in Path(directory).rglob("*") if p.is_file())


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """``chain(key)``: the config file, run directory and stage directory
    of that run, whose fields ``sfn synth`` has written again and
    ``sfn pick`` has picked with the templates ``synth`` wrote; each is
    made once per module."""
    made = {}

    def build(key):
        if key not in made:
            made[key] = _run_and_pick(tmp_path_factory.mktemp(key), RUNS[key])
        return made[key]

    return build


def _run_and_pick(base, settings):
    config = base / "run.cfg"
    items = {**SHARED, **settings, "experiment.out": base / "run"}
    config.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    assert main(["run", str(config)]) == 0
    stage = base / "stage"
    assert main(["--out", str(stage), "synth", str(config)]) == 0
    pick = ["--out", str(stage), "pick", str(config), "--fields", str(stage / "fields"),
            "--templates", str(stage / "templates")]
    assert main(pick) == 0
    return str(config), base / "run", stage


@pytest.mark.parametrize("key", sorted(RUNS))
def test_synth_writes_the_run_templates(chain, key):
    _, run_dir, stage = chain(key)
    names = _files(run_dir / "templates")
    assert names == _files(stage / "templates")
    for name in names:
        assert (stage / "templates" / name).read_bytes() == (run_dir / "templates" / name).read_bytes()


def _pick_files(directory):
    return [name for name in _files(directory) if name.parts[0].startswith("picks")]


@pytest.mark.parametrize("key", sorted(RUNS))
def test_pick_on_synth_fields_gives_the_run_picks(chain, key):
    """``sfn pick`` writes the run's capped pick files, and only those,
    byte for byte."""
    _, run_dir, stage = chain(key)
    names = _pick_files(run_dir)
    assert names == _pick_files(stage)
    assert len(names) == (3 if key in ("2d", "random") else 6 if key == "3d" else 12)
    for name in names:
        assert (stage / name).read_bytes() == (run_dir / name).read_bytes(), name


@pytest.mark.parametrize("key", sorted(RUNS))
def test_the_sample_target_caps_the_run_picks(chain, key):
    """The cap binds in every run, so the test above compares capped picks."""
    config, run_dir, _ = chain(key)
    target = int(RUNS[key]["geometry.sample_target"])
    if key in HALVES:
        counts = [len(load_picks(run_dir, name=name)) for name, _ in HALVES[key]]
        assert counts == [target // 2] * len(counts)
    else:
        assert len(load_picks(run_dir / "picks")) == target


@pytest.mark.parametrize("key", sorted(RUNS))
def test_fit_on_the_run_picks_gives_the_run_fit(chain, key, tmp_path):
    """``classify2d`` writes the run's class means, trace and previews, and
    ``metrics --means`` its bias report; ``recon3d`` on each half writes
    that half's volume and trace."""
    config, run_dir, _ = chain(key)
    if key not in HALVES:
        out = tmp_path / "classify"
        assert main(["--out", str(out), "classify2d", config, "--picks", str(run_dir / "picks")]) == 0
        argv = ["--out", str(out), "metrics", config, "--means", str(out / "classes"),
                "--templates", str(run_dir / "templates")]
        assert main(argv) == 0
        pairs = [(out, run_dir)]
    else:
        pairs = []
        for name, recon in HALVES[key]:
            out = tmp_path / name
            argv = ["--out", str(out), "recon3d", config, "--picks", str(run_dir),
                    "--name", name, "--templates", str(run_dir / "templates")]
            assert main(argv) == 0
            pairs.append((out / "recon", run_dir / recon))
    for ours, theirs in pairs:
        files = _files(ours)
        assert len(files) > 2
        for name in files:
            assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


def test_recon3d_reference_scores_a_half_in_the_run_gauge(chain, tmp_path, capsys):
    """``recon3d --reference`` prints the half's best-rotation PCC against
    the run's truth volume, scanned as the run scans its own volume: the
    identity (the gauge the fit is in), then the template grid."""
    config, run_dir, _ = chain("3d")
    truth = run_dir / "truth_volume.sfn"
    argv = ["--out", str(tmp_path), "recon3d", config, "--picks", str(run_dir),
            "--name", "picks_a", "--templates", str(run_dir / "templates"), "--reference", str(truth)]
    assert main(argv) == 0
    volume = load_recon_state(run_dir / "recon_a").volume
    grid = load_templates(run_dir / "templates").grid
    probe = RotationGrid(np.concatenate([[[1.0, 0.0, 0.0, 0.0]], grid.quaternions]), seed=grid.seed)
    corr, _ = best_rotation_pcc(volume, read_tensor(truth), probe)
    assert f"best rotation pcc = {corr:.6f}\n" in capsys.readouterr().out


def test_metrics_on_the_run_halves_gives_the_run_fsc(chain, tmp_path):
    config, run_dir, _ = chain("3d")
    argv = ["--out", str(tmp_path), "metrics", config, "--volume", str(run_dir / "recon_a" / "volume.sfn"),
            "--reference", str(run_dir / "recon_b" / "volume.sfn")]
    assert main(argv) == 0
    assert (tmp_path / "fsc.csv").read_bytes() == (run_dir / "fsc.csv").read_bytes()


def test_pick_on_a_float32_field_exits_2(chain, tmp_path, capsys):
    """A field in the retired float32 format (magic SFN1) is rejected."""
    config, run_dir, _ = chain("2d")
    fields = tmp_path / "fields"
    fields.mkdir()
    (fields / "field_0000.sfn").write_bytes(
        b"SFN1\x02" + np.array([64, 64], dtype="<u4").tobytes() + np.zeros(64 * 64, dtype="<f4").tobytes()
    )
    argv = ["--out", str(tmp_path), "pick", config, "--fields", str(fields),
            "--templates", str(run_dir / "templates")]
    assert main(argv) == 2
    assert "SFN1" in capsys.readouterr().err
    assert not (tmp_path / "picks").exists()
