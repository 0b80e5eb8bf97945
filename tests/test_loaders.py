"""Loaders on malformed input: every failure is an ArgumentError (exit 2).

The hypothesis tests save a small artifact, corrupt one of its files by
truncating it, flipping one byte or dropping one line, and load it again.
A load must either return a valid object or raise ArgumentError; where
the corruption cannot leave valid data behind, it must raise.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtures import blob_volume
from sfn.cli import main
from sfn.em import (
    Gmm2dConfig,
    Recon3dState,
    em_classify2d,
    load_gmm_state,
    load_recon_state,
    save_gmm_state,
    save_recon_state,
)
from sfn.errors import ArgumentError
from sfn.noisegen import NoiseSpec, gaussian_field, plant_particles, read_truth, write_truth
from sfn.picker import load_picks, pick_micrograph, save_picks
from sfn.templates import external_templates, load_templates, make_projection_templates, save_templates
from sfn.tensors import read_tensor, write_tensor

CORRUPTION = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _templates(count=2, side=6, seed=0):
    rng = np.random.default_rng(seed)
    return external_templates(rng.standard_normal((count, side, side)))


def _save_picks(directory):
    field = gaussian_field((48, 48), NoiseSpec(sigma=1.0, seed=1))
    picks = pick_micrograph(field, _templates(), 1.5, source_id="field_0000")
    assert len(picks) >= 3
    save_picks(picks, directory)
    return lambda: load_picks(directory)


def _save_gmm(directory):
    patches = np.random.default_rng(2).standard_normal((60, 4, 4))
    save_gmm_state(em_classify2d(patches, Gmm2dConfig(class_count=2, restarts=1, seed=3)), directory)
    return lambda: load_gmm_state(directory)


def _save_recon(directory):
    volume = np.random.default_rng(4).standard_normal((4, 4, 4))
    save_recon_state(Recon3dState(volume, [-9.0, -5.0, -4.5], converged=True), directory)
    return lambda: load_recon_state(directory)


def _save_templates(directory):
    save_templates(_templates(count=3), directory)
    return lambda: load_templates(directory)


def _config(directory):
    path = directory / "run.cfg"
    path.write_text("experiment.kind = pure-noise-2d\nexperiment.seed = 1\ngeometry.template_count = 3\n")
    return str(path)


def _save_tensor(directory):
    path = directory / "values.sfn"
    write_tensor(path, np.random.default_rng(5).standard_normal((3, 4)))
    return lambda: read_tensor(path)


def _save_truth(directory):
    path = directory / "truth.csv"
    stack = _templates(count=2, side=8).templates
    field = plant_particles((64, 64), stack, 4, NoiseSpec(sigma=1.0, seed=6), 0.5)
    write_truth(path, field.truth, ndim=2)
    return lambda: read_truth(path)


ARTIFACTS = {
    "picks": _save_picks,
    "gmm": _save_gmm,
    "recon": _save_recon,
    "templates": _save_templates,
    "tensor": _save_tensor,
    "truth": _save_truth,
}


def _corrupt(data, path):
    """Rewrite ``path`` with one corruption drawn from ``data``; return its kind."""
    blob = path.read_bytes()
    kinds = ["truncate", "flip"] if path.suffix == ".sfn" else ["truncate", "flip", "drop_line"]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
    elif kind == "flip":
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        mask = data.draw(st.integers(1, 255), label="mask")
        blob = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    else:
        lines = blob.splitlines(keepends=True)
        drop = data.draw(st.integers(0, len(lines) - 1), label="drop")
        blob = b"".join(lines[:drop] + lines[drop + 1:])
    path.write_bytes(blob)
    return kind


def _must_reject(kind, path):
    """Corruptions that leave no valid artifact behind."""
    if kind == "truncate" and path.suffix == ".sfn":
        return True
    # every line of a pick table or a meta table is needed: the header,
    # one row per index 0..count-1, one row per key
    return kind == "drop_line" and (path.name.startswith("picks.") or path.name.endswith("_meta.csv"))


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
@CORRUPTION
@given(data=st.data())
def test_corrupted_artifact_loads_or_raises_argument_error(artifact, data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        load = ARTIFACTS[artifact](directory)
        load()
        files = sorted(p for p in directory.iterdir() if p.is_file())
        path = data.draw(st.sampled_from(files), label="file")
        kind = _corrupt(data, path)
        try:
            load()
        except ArgumentError:
            return
        assert not _must_reject(kind, path), f"{kind} of {path.name} loaded"


class TestConfirmedLeaks:
    def test_short_tensor_header(self, tmp_path):
        path = tmp_path / "short.sfn"
        path.write_bytes(b"SFN2\x03\x02\x00")
        with pytest.raises(ArgumentError, match="truncated header"):
            read_tensor(path)

    def test_missing_tensor_file(self, tmp_path):
        with pytest.raises(ArgumentError):
            read_tensor(tmp_path / "absent.sfn")

    def test_missing_meta_key(self, tmp_path):
        _save_recon(tmp_path)
        (tmp_path / "volume_meta.csv").write_text("key,value\n")
        with pytest.raises(ArgumentError, match="converged"):
            load_recon_state(tmp_path)

    @pytest.mark.parametrize("renamed", ["qw", "qz", "qx,qy"])
    def test_missing_manifest_column(self, tmp_path, renamed):
        """A manifest with some but not all quaternion columns is rejected."""
        save_templates(make_projection_templates(blob_volume(6), 3, seed=2), tmp_path)
        manifest = tmp_path / "manifest.csv"
        text = manifest.read_text()
        for column in renamed.split(","):
            text = text.replace(column, f"{column}_")
        manifest.write_text(text)
        with pytest.raises(ArgumentError, match=renamed.replace(",", ", ")):
            load_templates(tmp_path)

    def test_unparsable_truth_value(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("index,axis0,axis1,projection_index\n0,1x,2,0\n")
        with pytest.raises(ArgumentError):
            read_truth(path)

    def test_unparsable_trace_value(self, tmp_path):
        _save_recon(tmp_path)
        (tmp_path / "volume_trace.csv").write_text("iter,log_lik,delta\n0,oops,0\n")
        with pytest.raises(ArgumentError):
            load_recon_state(tmp_path)

    def test_unparsable_pick_score(self, tmp_path):
        _save_picks(tmp_path)
        table = tmp_path / "picks.csv"
        lines = table.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[1] = "high"
        lines[1] = ",".join(fields)
        table.write_text("".join(lines))
        with pytest.raises(ArgumentError):
            load_picks(tmp_path)

    @pytest.mark.parametrize("edit", ["drop_middle", "repeat_first", "shift"])
    def test_pick_index_must_be_0_to_count(self, tmp_path, edit):
        _save_picks(tmp_path)
        table = tmp_path / "picks.csv"
        header, *rows = table.read_text().splitlines(keepends=True)
        if edit == "drop_middle":
            rows = rows[:1] + rows[2:]
        elif edit == "repeat_first":
            rows = rows[:1] + rows[:1] + rows[2:]
        else:
            rows = ["9" + row for row in rows]
        table.write_text(header + "".join(rows))
        with pytest.raises(ArgumentError, match="index column"):
            load_picks(tmp_path)

    def test_nan_class_totals_exit_2(self, tmp_path, capsys):
        _save_gmm(tmp_path / "classes")
        meta = tmp_path / "classes" / "classes_meta.csv"
        lines = meta.read_text().splitlines(keepends=True)
        assert any(line.startswith("class_totals,") for line in lines)
        lines = ["class_totals,nan;nan\n" if line.startswith("class_totals,") else line for line in lines]
        meta.write_text("".join(lines))
        with pytest.raises(ArgumentError, match="finite"):
            load_gmm_state(tmp_path / "classes")
        _save_templates(tmp_path / "templates")
        rc = main(
            [
                "--out", str(tmp_path / "out"), "metrics", _config(tmp_path),
                "--means", str(tmp_path / "classes"), "--templates", str(tmp_path / "templates"),
            ]
        )
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_nan_trace(self, tmp_path):
        _save_recon(tmp_path)
        (tmp_path / "volume_trace.csv").write_text("iter,log_lik,delta\n0,-9,0\n1,nan,nan\n")
        with pytest.raises(ArgumentError, match="finite"):
            load_recon_state(tmp_path)

    def test_metrics_missing_means_exits_2(self, tmp_path, capsys):
        _save_templates(tmp_path / "templates")
        rc = main(
            [
                "--out", str(tmp_path / "out"), "metrics", _config(tmp_path),
                "--means", str(tmp_path / "absent"), "--templates", str(tmp_path / "templates"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err
