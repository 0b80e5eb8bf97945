"""A run is its stage chain: the stage commands, run on a run's own
artifacts, reproduce the run's bytes.

For a pure-noise 2D and a pure-noise 3D run, ``sfn synth`` + ``sfn pick``
with the run's ``templates/`` give the run's picks, ``classify2d`` or
``recon3d`` on the run's saved picks give its class means or half
volume with the same trace, ``recon3d --reference`` scores a half against
the truth as the run scores its volume, and ``metrics --volume`` on the
run's two half volumes writes its ``fsc.csv``.
"""

from pathlib import Path

import numpy as np
import pytest

from sfn.cli import main
from sfn.config import parse_config_text
from sfn.em import load_recon_state
from sfn.experiments import run_experiment
from sfn.metrics import best_rotation_pcc
from sfn.picker import load_picks
from sfn.templates import load_templates
from sfn.tensors import RotationGrid, read_tensor

SEED = 5
THRESHOLD = 2.5
# Enough that the run keeps every pick, so the stage picks are the run's.
SAMPLE_TARGET = 100000
EM = {"em.sigma": "1.0", "em.max_iters": "15", "em.restarts": "2", "em.rel_tol": "1e-8"}
RUNS = {
    2: {"experiment.kind": "pure-noise-2d", "geometry.canvas": "128x128", "geometry.field_count": "3"},
    3: {"experiment.kind": "pure-noise-3d", "geometry.canvas": "32x32x32", "geometry.field_count": "2"},
}
PICK_ARRAYS = ("positions", "scores", "labels", "patches")


def _files(directory):
    return sorted(p.relative_to(directory) for p in Path(directory).rglob("*") if p.is_file())


def _em_flags():
    return [
        "--em-sigma", EM["em.sigma"], "--max-iters", EM["em.max_iters"],
        "--restarts", EM["em.restarts"], "--rel-tol", EM["em.rel_tol"],
    ]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """``chain(rank)``: the run directory and the stage directory of the
    pure-noise run of that rank, whose fields ``sfn synth`` has written
    again and ``sfn pick`` has picked with the run's templates; each is
    made once per module."""
    made = {}

    def build(rank):
        if rank not in made:
            made[rank] = _run_and_pick(tmp_path_factory.mktemp(f"{rank}d"), RUNS[rank])
        return made[rank]

    return build


def _run_and_pick(base, settings):
    items = {
        **settings, **EM,
        "experiment.seed": SEED, "experiment.out": base / "run",
        "geometry.patch_side": 6, "geometry.template_count": 3,
        "geometry.sample_target": SAMPLE_TARGET, "noise.sigma": 1.0, "picker.threshold": THRESHOLD,
    }
    run_experiment(parse_config_text("".join(f"{k} = {v}\n" for k, v in items.items())))
    stage = base / "stage"
    synth = ["--seed", str(SEED), "--out", str(stage), "synth", "--canvas", items["geometry.canvas"],
             "--count", items["geometry.field_count"], "--sigma", "1.0", "--patch-side", "6"]
    assert main(synth) == 0
    pick = ["--out", str(stage), "pick", "--fields", str(stage / "fields"),
            "--templates", str(base / "run" / "templates"), "--threshold", str(THRESHOLD)]
    assert main(pick) == 0
    return base / "run", stage


@pytest.mark.parametrize("rank", sorted(RUNS))
def test_pick_on_synth_fields_gives_the_run_picks(chain, rank):
    """Each field's picks equal the run's picks of that field: positions,
    scores, labels and patches, bit for bit."""
    run_dir, stage = chain(rank)
    picks = load_picks(stage / "picks")
    names = ["picks"] if rank == 2 else ["picks_a", "picks_b"]
    run_sets = [load_picks(run_dir / ("picks" if rank == 2 else ""), name=name) for name in names]
    assert sum(map(len, run_sets)) == len(picks) > 0
    for run_picks in run_sets:
        for source in dict.fromkeys(run_picks.source_ids.tolist()):
            ours = picks.source_ids == source
            theirs = run_picks.source_ids == source
            for name in PICK_ARRAYS:
                expected = getattr(run_picks, name)[theirs]
                assert getattr(picks, name)[ours].tobytes() == expected.tobytes(), (source, name)


@pytest.mark.parametrize("rank", sorted(RUNS))
def test_fit_on_the_run_picks_gives_the_run_fit(chain, rank, tmp_path):
    """``classify2d`` writes the run's class means, trace, previews and bias
    report; ``recon3d`` on each half writes that half's volume and trace."""
    run_dir, _ = chain(rank)
    if rank == 2:
        out = tmp_path / "classify"
        argv = ["--seed", str(SEED), "--out", str(out), "classify2d", "--picks", str(run_dir / "picks"),
                "--class-count", "3", *_em_flags(),
                "--templates", str(run_dir / "templates"), "--threshold", str(THRESHOLD)]
        assert main(argv) == 0
        pairs = [(out, run_dir)]
    else:
        pairs = []
        for half in "ab":
            out = tmp_path / half
            argv = ["--seed", str(SEED), "--out", str(out), "recon3d", "--picks", str(run_dir),
                    "--name", f"picks_{half}", "--templates", str(run_dir / "templates"), *_em_flags()]
            assert main(argv) == 0
            pairs.append((out / "recon", run_dir / f"recon_{half}"))
    for ours, theirs in pairs:
        files = _files(ours)
        assert len(files) > 2
        for name in files:
            assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


def test_recon3d_reference_scores_a_half_in_the_run_gauge(chain, tmp_path, capsys):
    """``recon3d --reference`` prints the half's best-rotation PCC against
    the run's truth volume, scanned as the run scans its own volume: the
    identity (the gauge the fit is in), then the template grid."""
    run_dir, _ = chain(3)
    truth = run_dir / "truth_volume.sfn"
    argv = ["--seed", str(SEED), "--out", str(tmp_path), "recon3d", "--picks", str(run_dir),
            "--name", "picks_a", "--templates", str(run_dir / "templates"), *_em_flags(),
            "--reference", str(truth)]
    assert main(argv) == 0
    volume = load_recon_state(run_dir / "recon_a").volume
    grid = load_templates(run_dir / "templates").grid
    probe = RotationGrid(np.concatenate([[[1.0, 0.0, 0.0, 0.0]], grid.quaternions]), seed=grid.seed)
    corr, _ = best_rotation_pcc(volume, read_tensor(truth), probe)
    assert f"best rotation pcc = {corr:.6f}\n" in capsys.readouterr().out


def test_metrics_on_the_run_halves_gives_the_run_fsc(chain, tmp_path):
    run_dir, _ = chain(3)
    argv = ["--out", str(tmp_path), "metrics", "--volume", str(run_dir / "recon_a" / "volume.sfn"),
            "--reference", str(run_dir / "recon_b" / "volume.sfn")]
    assert main(argv) == 0
    assert (tmp_path / "fsc.csv").read_bytes() == (run_dir / "fsc.csv").read_bytes()


def test_pick_on_a_float32_field_exits_2(chain, tmp_path, capsys):
    """A field in the retired float32 format (magic SFN1) is rejected."""
    run_dir, _ = chain(2)
    fields = tmp_path / "fields"
    fields.mkdir()
    (fields / "field_0000.sfn").write_bytes(
        b"SFN1\x02" + np.array([64, 64], dtype="<u4").tobytes() + np.zeros(64 * 64, dtype="<f4").tobytes()
    )
    argv = ["--out", str(tmp_path), "pick", "--fields", str(fields),
            "--templates", str(run_dir / "templates"), "--threshold", str(THRESHOLD)]
    assert main(argv) == 2
    assert "SFN1" in capsys.readouterr().err
    assert not (tmp_path / "picks").exists()
