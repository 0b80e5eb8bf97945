"""Tests for the command line driver: exit codes, artifacts, chaining."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sfn.cli as cli
import sfn.experiments as experiments
from sfn.cli import main
from sfn.config import ALGORITHMS, KINDS, READS, parse_config_text
from sfn.errors import SaturationError
from sfn.experiments import build_templates, phantom_volume, synth_field
from sfn.picker import PickSet, load_picks, pick_iid, pick_micrograph, pick_random, save_picks, tile_field
from sfn.templates import external_templates, load_templates, make_rotation_templates, save_templates
from sfn.tensors import read_tensor, write_tensor

ORACLE_CFG = "experiment.kind = oracle-check\nexperiment.seed = 3\n"
PURE_NOISE_3D = "experiment.kind = pure-noise-3d\nexperiment.seed = 1\ngeometry.canvas = 32x32x32\n"
# A planted 2D run small enough for every stage command; tests override keys.
PLANTED_2D = {
    "experiment.kind": "planted-2d", "experiment.seed": "3", "geometry.canvas": "64x64",
    "geometry.field_count": "2", "geometry.sample_target": "10", "geometry.patch_side": "8",
    "geometry.template_count": "2", "noise.plant_count": "2", "noise.snr": "0.5",
    "picker.threshold": "1.5", "em.restarts": "1",
}


class TestRunCommand:
    def test_run_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(ORACLE_CFG + f"experiment.out = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "oracle.csv").is_file()
        assert "wrote" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        base = (
            "experiment.kind = pure-noise-2d\nexperiment.seed = 1\n"
            "geometry.canvas = 128x128\ngeometry.field_count = 2\n"
            "geometry.sample_target = 200\ngeometry.template_count = 2\n"
            "picker.threshold = 2.0\nem.restarts = 1\n"
        )
        path = tmp_path / "run.cfg"
        path.write_text(base)
        assert main(["--out", str(tmp_path / "a"), "run", str(path)]) == 0
        assert main(["--seed", "99", "--out", str(tmp_path / "b"), "run", str(path)]) == 0
        picks_a = (tmp_path / "a" / "picks" / "picks.csv").read_bytes()
        picks_b = (tmp_path / "b" / "picks" / "picks.csv").read_bytes()
        assert picks_a != picks_b

    def test_out_flag_overrides_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(ORACLE_CFG + f"experiment.out = {tmp_path / 'from_config'}\n")
        assert main(["--out", str(tmp_path / "from_flag"), "run", str(path)]) == 0
        assert (tmp_path / "from_flag" / "oracle.csv").is_file()
        assert not (tmp_path / "from_config").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(ORACLE_CFG + "no.such_key = 1\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert ":3:" in err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2

    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        """``sfn run CONFIG | true``: the run is written, then the summary
        meets a closed pipe and the command exits 1 with nothing on stderr."""
        config = _config_file(tmp_path, ORACLE_CFG + f"experiment.out = {tmp_path / 'out'}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run([sys.executable, "-m", "sfn.cli", "run", config], stdout=write_end,
                                   stderr=subprocess.PIPE, env=env, text=True, timeout=300)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (1, "")
        assert (tmp_path / "out" / "manifest.csv").is_file()

    @pytest.mark.parametrize("plant_count, code", [(0, 0), (-1, 2)])
    def test_negative_plant_count_exits_2(self, tmp_path, plant_count, code):
        path = tmp_path / "run.cfg"
        path.write_text(
            "experiment.kind = planted-2d\nexperiment.seed = 1\n"
            "geometry.canvas = 64x64\ngeometry.field_count = 2\n"
            "geometry.sample_target = 50\ngeometry.template_count = 2\n"
            f"picker.threshold = 2.0\nnoise.plant_count = {plant_count}\nem.restarts = 1\n"
            f"experiment.out = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == code


    @pytest.mark.parametrize("argv", [["oracle"], ["sweep"], ["halfmap"], ["classify2d", "c.cfg", "--picks", "p",
                                      "--templates", "t", "--threshold", "1"]])
    def test_run_and_metrics_are_the_only_entries(self, argv):
        """An experiment runs only from a config, and only ``metrics``
        writes a bias report: anything else is a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth"], "the following arguments are required: config"),
            (["synth", "c.cfg", "--count", "3"], "unrecognized arguments: --count 3"),
            (["synth", "c.cfg", "--canvas", "64x64"], "unrecognized arguments: --canvas 64x64"),
            (["pick", "c.cfg", "--fields", "f", "--templates", "t", "--threshold", "2"],
             "unrecognized arguments: --threshold 2"),
            (["pick", "c.cfg", "--fields", "f", "--templates", "t", "--algorithm", "random"],
             "unrecognized arguments: --algorithm random"),
            (["classify2d", "c.cfg", "--picks", "p", "--class-count", "2"], "unrecognized arguments: --class-count 2"),
            (["recon3d", "c.cfg", "--picks", "p", "--templates", "t", "--restarts", "1"],
             "unrecognized arguments: --restarts 1"),
            (["metrics", "c.cfg", "--means", "m", "--templates", "t", "--threshold", "1"],
             "unrecognized arguments: --threshold 1"),
        ],
    )
    def test_stage_settings_come_only_from_the_config(self, argv, message, capsys):
        """Every stage command takes the config file first, and no flag of
        its own sets a setting."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


def _config_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _settings_file(tmp_path, settings, name="run.cfg"):
    """A config file of ``settings``; a key whose value is None is left out."""
    lines = "".join(f"{k} = {v}\n" for k, v in settings.items() if v is not None)
    return _config_file(tmp_path, lines, name)


class TestThreadPlumbing:
    def test_threads_default_to_one_whatever_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFN_THREADS", "lots")
        config = _config_file(tmp_path, ORACLE_CFG)
        assert cli._build_parser().parse_args(["run", config]).threads == 1
        assert main(["--out", str(tmp_path / "out"), "run", config]) == 0

    def test_nonpositive_threads_exits_2(self, tmp_path):
        config = _config_file(tmp_path, ORACLE_CFG)
        assert main(["--threads", "0", "--out", str(tmp_path / "out"), "run", config]) == 2

    def test_thread_count_keeps_bytes(self, tmp_path):
        base = (
            "experiment.kind = pure-noise-2d\nexperiment.seed = 4\n"
            "geometry.canvas = 128x128\ngeometry.field_count = 4\n"
            "geometry.sample_target = 300\ngeometry.template_count = 2\n"
            "picker.threshold = 2.0\nem.restarts = 1\n"
        )
        path = tmp_path / "run.cfg"
        path.write_text(base)
        assert main(["--threads", "1", "--out", str(tmp_path / "a"), "run", str(path)]) == 0
        assert main(["--threads", "2", "--out", str(tmp_path / "b"), "run", str(path)]) == 0
        for rel in ("summary.csv", "report.csv", "picks/picks.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_pick_thread_count_keeps_bytes(self, tmp_path, algorithm):
        config = _settings_file(tmp_path, {
            **PLANTED_2D, "experiment.seed": "5", "geometry.field_count": "3",
            "geometry.sample_target": "12", "picker.algorithm": algorithm,
        })
        out = tmp_path / "synth"
        assert main(["--out", str(out), "synth", config]) == 0
        for threads in ("1", "2"):
            rc = main(
                [
                    "--threads", threads, "--out", str(tmp_path / threads), "pick", config,
                    "--fields", str(out / "fields"), "--templates", str(out / "templates"),
                ]
            )
            assert rc == 0
        names = sorted(p.name for p in (tmp_path / "1" / "picks").iterdir())
        assert "picks.csv" in names
        assert names == sorted(p.name for p in (tmp_path / "2" / "picks").iterdir())
        for name in names:
            one = (tmp_path / "1" / "picks" / name).read_bytes()
            assert one == (tmp_path / "2" / "picks" / name).read_bytes()


class TestPaperExperiments:
    """The three experiments the paper's claims rest on, each a run config."""

    def test_oracle_writes_csv(self, tmp_path):
        text = "experiment.kind = oracle-check\nexperiment.seed = 2\noracle.thresholds = 1,3\n"
        assert main(["--out", str(tmp_path / "out"), "run", _config_file(tmp_path, text)]) == 0
        text = (tmp_path / "out" / "oracle.csv").read_text()
        assert text.count("\n") == 3

    def test_sweep_runs(self, tmp_path):
        text = (
            "experiment.kind = threshold-sweep\nexperiment.seed = 7\nsweep.thresholds = 2,4\n"
            "geometry.sample_target = 800\ngeometry.template_count = 2\ngeometry.patch_side = 10\n"
            "em.restarts = 1\n"
        )
        assert main(["--out", str(tmp_path / "out"), "run", _config_file(tmp_path, text)]) == 0
        assert (tmp_path / "out" / "sweep.csv").is_file()

    def test_halfmap_runs(self, tmp_path):
        text = (
            "experiment.kind = halfmap-fsc\nexperiment.seed = 5\ngeometry.canvas = 36x36x36\n"
            "geometry.patch_side = 10\ngeometry.template_count = 3\ngeometry.field_count = 4\n"
            "geometry.sample_target = 200\npicker.threshold = 3.0\nem.restarts = 1\nem.max_iters = 30\n"
        )
        assert main(["--out", str(tmp_path / "out"), "run", _config_file(tmp_path, text)]) == 0
        assert (tmp_path / "out" / "fsc.csv").is_file()


class TestStageCommands:
    def test_synth_pick_classify_metrics_chain(self, tmp_path):
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {
            **PLANTED_2D, "experiment.seed": "11", "experiment.out": out, "geometry.canvas": "96x96",
            "geometry.field_count": "3", "noise.plant_count": "4", "geometry.patch_side": "12",
            "picker.threshold": "2.0",
        })
        assert main(["synth", config]) == 0
        fields = out / "fields"
        assert len(list(fields.glob("field_*.sfn"))) == 3
        assert len(list(fields.glob("truth_*.csv"))) == 3

        assert main(["pick", config, "--fields", str(fields), "--templates", str(out / "templates")]) == 0
        assert (out / "picks" / "picks.csv").is_file()

        assert main(["classify2d", config, "--picks", str(out / "picks")]) == 0
        assert (out / "previews" / "mean_00.pgm").is_file()
        assert not (out / "report.csv").exists()

        assert main(["metrics", config, "--means", str(out / "classes"), "--templates", str(out / "templates")]) == 0
        assert (out / "report.csv").is_file()

    def test_recon3d_chain(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {
            **PLANTED_2D, "experiment.kind": "planted-3d", "experiment.seed": "13", "experiment.out": out,
            "geometry.canvas": "36x36x36", "noise.plant_count": "3", "geometry.patch_side": "10",
            "geometry.template_count": "3", "picker.threshold": "2.5", "em.max_iters": "30",
        })
        assert main(["synth", config]) == 0
        assert main(["pick", config, "--fields", str(out / "fields"), "--templates", str(out / "templates")]) == 0
        assert not (out / "picks").exists()
        reference = tmp_path / "truth.sfn"
        write_tensor(reference, phantom_volume(10))
        rc = main(["recon3d", config, "--picks", str(out), "--name", "picks_a", "--templates",
                   str(out / "templates"), "--reference", str(reference)])
        assert rc == 0
        assert (out / "recon" / "volume.sfn").is_file()
        assert "best rotation pcc" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_synth_pick_each_algorithm(self, tmp_path, algorithm):
        """``pick`` runs the config's algorithm at its threshold, and the
        random algorithm draws the run's per-field count, 10 over 2 fields;
        it keeps the first ``geometry.sample_target`` = 10 in field order."""
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {**PLANTED_2D, "experiment.out": out, "picker.algorithm": algorithm})
        assert main(["synth", config]) == 0
        assert main(["pick", config, "--fields", str(out / "fields"), "--templates", str(out / "templates")]) == 0
        templates = load_templates(out / "templates")
        expected = []
        for index in range(2):
            source_id = f"field_{index:04d}"
            canvas = read_tensor(out / "fields" / f"{source_id}.sfn")
            if algorithm == "micrograph":
                expected.append(pick_micrograph(canvas, templates, 1.5, source_id=source_id))
            elif algorithm == "iid":
                tiles = tile_field(canvas, templates.side)
                expected.append(pick_iid(tiles, templates, 1.5, source_id=source_id))
            else:
                expected.append(pick_random(canvas, 8, 5, seed=3 + index, source_id=source_id))
        expected = PickSet.concat(expected, limit=10)
        picks = load_picks(out / "picks")
        assert len(picks) == len(expected) > 0
        np.testing.assert_array_equal(picks.patches, expected.patches)
        np.testing.assert_array_equal(picks.scores, expected.scores)
        assert list(picks.source_ids) == list(expected.source_ids)
        if expected.positions is None:
            assert picks.positions is None
        else:
            np.testing.assert_array_equal(picks.positions, expected.positions)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"geometry.canvas": "64xabc"}, ":3: bad value for geometry.canvas"),
            ({"geometry.canvas": "64"}, ":3: bad value for geometry.canvas"),
            ({"geometry.canvas": "0x64"}, ":3: bad value for geometry.canvas"),
            ({"geometry.canvas": "64x64x64x64"}, ":3: bad value for geometry.canvas"),
            ({"geometry.field_count": "0"}, "geometry.field_count must be at least 1, got 0"),
            ({"geometry.field_count": "-2"}, "geometry.field_count must be at least 1, got -2"),
            ({"noise.snr": "0"}, "planting requires a positive, finite noise.snr, got 0.0"),
            ({"noise.snr": "inf"}, "planting requires a positive, finite noise.snr, got inf"),
            ({"noise.snr": "nan"}, ":9: bad value for noise.snr"),
            ({"noise.plant_count": "-1"}, "noise.plant_count must be at least 0, got -1"),
            ({"geometry.patch_side": "65"}, "patch side 65 exceeds canvas (64, 64)"),
            ({"experiment.kind": "pure-noise-2d", "noise.plant_count": None, "noise.snr": None,
              "geometry.patch_side": "65"}, "patch side 65 exceeds canvas (64, 64)"),
            ({"experiment.kind": "planted-3d"}, "planted-3d needs a 3D canvas, got 64x64"),
            ({"experiment.kind": "pure-noise-2d"}, ":8: pure-noise-2d does not read noise.plant_count"),
        ],
    )
    def test_bad_settings_exit_2_before_writing(self, tmp_path, settings, message, capsys):
        """``synth`` checks the config as a run does before ``out/`` is made."""
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {**PLANTED_2D, **settings})
        assert main(["--out", str(out), "synth", config]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"geometry.sample_target": "-3"}, "geometry.sample_target must be at least 1, got -3"),
            ({"picker.threshold": "nan"}, ":10: bad value for picker.threshold"),
        ],
    )
    def test_bad_pick_settings_exit_2_before_picking(self, tmp_path, settings, message, capsys):
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {**PLANTED_2D, "picker.algorithm": "random"})
        assert main(["--out", str(out), "synth", config]) == 0
        bad = _settings_file(tmp_path, {**PLANTED_2D, "picker.algorithm": "random", **settings}, "bad.cfg")
        rc = main(["--out", str(out), "pick", bad, "--fields", str(out / "fields"),
                   "--templates", str(out / "templates")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "picks").exists()

    @pytest.mark.parametrize("canvas, side, fields", [("96x96", 12, 3), ("36x36x36", 10, 2)])
    def test_synth_writes_the_fields_of_a_planted_run(self, tmp_path, canvas, side, fields):
        """``sfn synth`` on a planted run's config saves the run's templates
        and truth tables, and each saved field is the run's ``synth_field``
        canvas, bit for bit."""
        rank = canvas.count("x") + 1
        text = (
            f"experiment.kind = planted-{rank}d\nexperiment.seed = 5\n"
            f"experiment.out = {tmp_path / 'run'}\ngeometry.canvas = {canvas}\n"
            f"geometry.patch_side = {side}\n"
            f"geometry.field_count = {fields}\ngeometry.sample_target = 40\n"
            "geometry.template_count = 3\nnoise.plant_count = 3\nnoise.snr = 0.5\n"
            "picker.threshold = 2.5\nem.restarts = 1\nem.max_iters = 5\n"
        )
        config = _config_file(tmp_path, text)
        assert main(["run", config]) == 0
        assert main(["--out", str(tmp_path / "synth"), "synth", config]) == 0
        run_templates = sorted(p.name for p in (tmp_path / "run" / "templates").iterdir())
        assert run_templates == sorted(p.name for p in (tmp_path / "synth" / "templates").iterdir())
        for name in run_templates:
            expected = (tmp_path / "run" / "templates" / name).read_bytes()
            assert (tmp_path / "synth" / "templates" / name).read_bytes() == expected
        cfg = parse_config_text(text)
        _, truth_set, _ = build_templates(cfg, tmp_path / "built")
        plant_stack = np.asarray(truth_set.templates)
        for index in range(fields):
            truth = f"truth_{index:04d}.csv"
            expected = (tmp_path / "run" / truth).read_bytes()
            assert (tmp_path / "synth" / "fields" / truth).read_bytes() == expected
            field = read_tensor(tmp_path / "synth" / "fields" / f"field_{index:04d}.sfn")
            canvas = synth_field(cfg, index, plant_stack).canvas
            assert field.tobytes() == canvas.tobytes()

    def test_metrics_volume_mode(self, tmp_path, capsys):
        volume = phantom_volume(10)
        path_a = tmp_path / "a.sfn"
        path_b = tmp_path / "b.sfn"
        write_tensor(path_a, volume)
        write_tensor(path_b, volume + 0.01)
        config = _config_file(tmp_path, PURE_NOISE_3D)
        rc = main(["--out", str(tmp_path / "out"), "metrics", config, "--volume", str(path_a),
                   "--reference", str(path_b)])
        assert rc == 0
        assert (tmp_path / "out" / "fsc.csv").is_file()
        assert "pcc = 1.0" in capsys.readouterr().out

    def test_metrics_volume_without_a_correlation_writes_nothing(self, tmp_path, capsys):
        """A constant volume has no correlation: ``metrics`` exits 3 before
        it writes ``fsc.csv`` or makes the output directory."""
        path_a = tmp_path / "a.sfn"
        path_b = tmp_path / "b.sfn"
        write_tensor(path_a, np.zeros((8, 8, 8)))
        write_tensor(path_b, phantom_volume(8))
        out = tmp_path / "out"
        rc = main(["--out", str(out), "metrics", _config_file(tmp_path, PURE_NOISE_3D), "--volume", str(path_a),
                   "--reference", str(path_b)])
        assert rc == 3
        assert "correlation against a constant input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--means", "classes"], ["--volume", "a.sfn"], ["--templates", "t"]])
    def test_metrics_needs_a_mode(self, tmp_path, flags, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "metrics", _config_file(tmp_path, PURE_NOISE_3D), *flags]) == 2
        assert "metrics needs either --means and --templates" in capsys.readouterr().err
        assert not out.exists()

    def test_pick_without_fields_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {**PLANTED_2D, "geometry.field_count": "1", "geometry.patch_side": "12"})
        assert main(["--out", str(out), "synth", config]) == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["--out", str(out), "pick", config, "--fields", str(empty), "--templates", str(out / "templates")])
        assert rc == 2
        assert "no field_" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "pick"])
    @pytest.mark.parametrize("kind", ["oracle-check", "threshold-sweep", "complexity-scan"])
    def test_a_kind_that_picks_no_fields_exits_2(self, tmp_path, command, kind, capsys):
        out = tmp_path / "out"
        argv = ["--out", str(out), command, _config_file(tmp_path, f"experiment.kind = {kind}\nexperiment.seed = 1\n")]
        if command == "pick":
            argv += ["--fields", str(tmp_path / "fields"), "--templates", str(tmp_path / "templates")]
        assert main(argv) == 2
        assert f"{kind} picks no fields" in capsys.readouterr().err
        assert not out.exists()

    def test_pick_of_a_field_the_run_does_not_have_exits_2(self, tmp_path, monkeypatch, capsys):
        """A stale ``field_0002.sfn`` left by a 3-field ``synth`` is not a
        field of a 2-field run: it is refused before any field is picked."""
        out = tmp_path / "out"
        for count in ("3", "2"):
            config = _settings_file(tmp_path, {**PLANTED_2D, "geometry.field_count": count})
            assert main(["--out", str(out), "synth", config]) == 0

        def no_picking(*args):
            raise AssertionError("a field was picked")

        monkeypatch.setattr(cli, "field_picks", no_picking)
        rc = main(["--out", str(out), "pick", config, "--fields", str(out / "fields"), "--templates",
                   str(out / "templates")])
        assert rc == 2
        assert "field_0002.sfn is not a field of this run: geometry.field_count = 2" in capsys.readouterr().err
        assert not list(out.glob("picks*"))

    def test_pick_of_one_3d_field_exits_2_before_picking(self, tmp_path, monkeypatch, capsys):
        """A 3D kind saves seeded halves of its fields, so a single field is
        refused by the rule of ``split_halves`` before it is picked."""
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {
            **PLANTED_2D, "experiment.kind": "pure-noise-3d", "geometry.canvas": "24x24x24",
            "geometry.patch_side": "6", "noise.plant_count": None, "noise.snr": None,
        })
        assert main(["--out", str(out), "synth", config]) == 0
        single = tmp_path / "single"
        single.mkdir()
        (single / "field_0000.sfn").write_bytes((out / "fields" / "field_0000.sfn").read_bytes())

        def no_picking(*args):
            raise AssertionError("a field was picked")

        monkeypatch.setattr(cli, "field_picks", no_picking)
        rc = main(["--out", str(out), "pick", config, "--fields", str(single), "--templates",
                   str(out / "templates")])
        assert rc == 2
        assert "need at least 2 fields to split, got 1" in capsys.readouterr().err
        assert not list(out.glob("picks*"))

    def test_pick_of_a_field_past_the_float32_range_exits_2(self, tmp_path, capsys):
        """A finite field whose correlations exceed the float32 range the
        picker ranks in is refused, never picked with infinite scores."""
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {**PLANTED_2D, "geometry.field_count": "1"})
        assert main(["--out", str(out), "synth", config]) == 0
        field = out / "fields" / "field_0000.sfn"
        write_tensor(field, 1e37 * read_tensor(field))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["--out", str(out), "pick", config, "--fields", str(out / "fields"), "--templates",
                       str(out / "templates")])
        assert rc == 2
        assert "canvas must be finite" in capsys.readouterr().err
        assert not (out / "picks").exists()

    def test_pick_seeds_each_field_by_the_index_in_its_name(self, tmp_path):
        """Field ``i`` is picked with seed ``seed + i``, as in a run, whatever
        other fields lie beside it; fields go in index order. Fields 1001
        and 10000 are fields of a run of 10001 fields, which picks as many
        of each (5) as the run of 3 fields that synthesizes them."""
        out = tmp_path / "out"
        settings = {
            **PLANTED_2D, "experiment.seed": "4", "geometry.field_count": "3", "geometry.sample_target": "15",
            "geometry.template_count": "5", "noise.plant_count": "1", "picker.algorithm": "random",
        }
        assert main(["--out", str(out), "synth", _settings_file(tmp_path, settings)]) == 0
        config = _settings_file(tmp_path, {
            **settings, "geometry.field_count": "10001", "geometry.sample_target": "50005"}, "wide.cfg")
        sparse = tmp_path / "sparse"
        sparse.mkdir()
        for index, name in ((2, "field_0002"), (1, "field_1001"), (0, "field_10000")):
            (sparse / f"{name}.sfn").write_bytes((out / "fields" / f"field_{index:04d}.sfn").read_bytes())
        positions = {}
        for key, fields in (("full", out / "fields"), ("sparse", sparse)):
            argv = ["--out", str(tmp_path / key), "pick", config, "--fields", str(fields), "--templates",
                    str(out / "templates")]
            assert main(argv) == 0
            picks = load_picks(tmp_path / key / "picks")
            positions[key] = picks.positions[picks.source_ids == "field_0002"]
        assert list(dict.fromkeys(picks.source_ids)) == ["field_0002", "field_1001", "field_10000"]
        assert positions["full"][:3].tolist() == [[60, 60], [35, 49], [13, 30]]
        assert positions["sparse"].tobytes() == positions["full"].tobytes()

    @pytest.mark.parametrize("name", ["field_2.sfn", "field_a.sfn", "field_00002.sfn"])
    def test_pick_of_a_field_name_synth_does_not_write_exits_2(self, tmp_path, name, capsys):
        out = tmp_path / "out"
        config = _settings_file(tmp_path, {**PLANTED_2D, "geometry.field_count": "1", "noise.plant_count": "1"})
        assert main(["--out", str(out), "synth", config]) == 0
        (out / "fields" / name).write_bytes((out / "fields" / "field_0000.sfn").read_bytes())
        rc = main(["--out", str(out), "pick", config, "--fields", str(out / "fields"), "--templates",
                   str(out / "templates")])
        assert rc == 2
        assert f"{name} is not a field name" in capsys.readouterr().err
        assert not (out / "picks").exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "kind, canvas, side, message",
        [
            ("pure-noise-3d", "64x64", 16, "pure-noise-3d needs a 3D canvas, got 64x64"),
            ("pure-noise-2d", "12x12", 16, "patch side 16 exceeds canvas (12, 12)"),
            ("halfmap-fsc", "64x64x8", 16, "patch side 16 exceeds canvas (64, 64, 8)"),
        ],
    )
    def test_canvas_that_cannot_hold_the_kind_exits_2_before_writing(
        self, tmp_path, kind, canvas, side, message, capsys
    ):
        """A canvas of the wrong rank, or one narrower than the patch side,
        is refused before ``out/`` is made."""
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment.kind = {kind}\nexperiment.seed = 1\ngeometry.canvas = {canvas}\n"
                        f"geometry.patch_side = {side}\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()
        assert f"[stage configure] {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("pure-noise-3d", "geometry.patch_side", "-3"),
            ("pure-noise-3d", "geometry.patch_side", "0"),
            ("planted-3d", "geometry.patch_side", "0"),
            ("halfmap-fsc", "geometry.patch_side", "-1"),
            ("complexity-scan", "geometry.patch_side", "0"),
            ("complexity-scan", "scan.sides", "8,-4,16"),
            ("pure-noise-2d", "geometry.patch_side", "0"),
            ("planted-2d", "geometry.patch_side", "-1"),
            ("threshold-sweep", "geometry.patch_side", "-2"),
            ("synth", "geometry.patch_side", "-2"),
        ],
    )
    def test_side_below_one_exits_2_before_writing(self, tmp_path, kind, key, value, capsys):
        out = tmp_path / "out"
        if kind == "synth":
            argv = ["--out", str(out), "synth", _settings_file(tmp_path, {**PLANTED_2D, key: value})]
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"experiment.kind = {kind}\nexperiment.seed = 1\n{key} = {value}\n")
            argv = ["--out", str(out), "run", str(path)]
        assert main(argv) == 2
        assert f"{key} must be at least 1, got {min(map(int, value.split(',')))}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1.5", "inf"])
    @pytest.mark.parametrize("kind", ["pure-noise-2d", "planted-3d", "halfmap-fsc", "threshold-sweep"])
    def test_lowpass_outside_the_band_exits_2_before_writing(self, tmp_path, kind, value, capsys):
        """Every kind that builds its templates reads ``templates.lowpass``,
        and a cutoff outside (0, 1] is refused before ``out/`` is made."""
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment.kind = {kind}\nexperiment.seed = 1\ntemplates.lowpass = {value}\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert f"templates.lowpass must lie in (0, 1], got {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "shape, message",
        [(None, "absent.sfn"), ((8, 8, 8), "reference (8, 8, 8) does not match the patch shape (6, 6, 6)")],
    )
    def test_bad_reference_exits_2_before_the_fit(self, tmp_path, monkeypatch, capsys, shape, message):
        """``recon3d --reference`` reads the reference, and checks it has the
        patch shape, before any EM runs or ``recon/`` is written."""
        def no_fit(picks, config):
            raise AssertionError("the fit must not run")

        monkeypatch.setattr(experiments, "em_reconstruct3d", no_fit)
        rng = np.random.default_rng(9)
        save_picks(
            PickSet(patches=rng.standard_normal((8, 6, 6, 6)), scores=np.zeros(8), threshold=float("-inf")),
            tmp_path / "picks",
        )
        save_templates(make_rotation_templates(phantom_volume(6), 2, seed=1), tmp_path / "templates")
        reference = tmp_path / "absent.sfn"
        if shape is not None:
            write_tensor(reference, rng.standard_normal(shape))
        out = tmp_path / "out"
        rc = main(["--out", str(out), "recon3d", _config_file(tmp_path, PURE_NOISE_3D), "--picks",
                   str(tmp_path / "picks"), "--templates", str(tmp_path / "templates"), "--reference", str(reference)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "recon").exists()

    def test_scan_side_too_small_for_the_phantom_exits_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        """Side 1 passes the side bound but gives indistinct templates; the
        scan builds every point's templates before its first fit."""

        def no_fit(picks, config):
            raise AssertionError("no scan point may be fitted")

        monkeypatch.setattr(experiments, "em_classify2d", no_fit)
        path = tmp_path / "run.cfg"
        path.write_text(
            "experiment.kind = complexity-scan\nexperiment.seed = 1\ngeometry.patch_side = 8\n"
            "geometry.template_count = 2\nscan.samples = 100,200\nscan.sides = 8,10,1\n"
        )
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 2
        assert "[stage templates d=1^2]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "samples, sides, message",
        [
            ("100,300", "6,8", "the slope fit needs at least three distinct scan.sides values, got 2"),
            ("100,100", "8,10,12", "the slope fit needs at least three distinct scan.samples values, got 2"),
            ("100,300", "10,12,14", "the slope fit needs at least three distinct scan.samples values, got 2"),
            ("100", "6", "the slope fit needs at least three distinct scan.samples values, got 1"),
        ],
    )
    def test_scan_with_too_few_values_on_an_axis_exits_2_before_writing(
        self, tmp_path, monkeypatch, capsys, samples, sides, message
    ):
        """The slopes are fitted on at least three distinct values of each
        axis: sample counts at ``geometry.patch_side`` (with
        ``geometry.sample_target`` when that side is scanned) and sides at
        ``geometry.sample_target``. Fewer is refused before any draw."""

        def no_draw(*args, **kwargs):
            raise AssertionError("no scan point may be drawn")

        monkeypatch.setattr(experiments, "sample_mixture", no_draw)
        path = tmp_path / "run.cfg"
        path.write_text(
            "experiment.kind = complexity-scan\nexperiment.seed = 1\ngeometry.patch_side = 8\n"
            f"geometry.template_count = 2\nscan.samples = {samples}\nscan.sides = {sides}\n"
        )
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert f"[stage configure] {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_data_exits_3(self, tmp_path):
        picks = PickSet(
            patches=np.zeros((8, 6, 6)),
            scores=np.zeros(8),
            threshold=float("-inf"),
        )
        save_picks(picks, tmp_path / "picks")
        config = _config_file(tmp_path, "experiment.kind = pure-noise-2d\nexperiment.seed = 1\n"
                                        "geometry.template_count = 2\n")
        rc = main(["--out", str(tmp_path / "out"), "classify2d", config, "--picks", str(tmp_path / "picks")])
        assert rc == 3

    @pytest.mark.parametrize(
        "kind, threshold, message",
        [
            ("pure-noise-2d", "inf", "picker.threshold must be finite, got inf"),
            ("pure-noise-2d", "-inf", "picker.threshold must be finite, got -inf"),
            ("pure-noise-2d", "nan", ":3: bad value for picker.threshold"),
            ("threshold-sweep", "inf", ":3: threshold-sweep does not read picker.threshold"),
            # the key left at the default of a kind that does not read it
            *((kind, None, f"{kind} does not read picker.threshold, the threshold a bias report is matched at")
              for kind in KINDS if "picker.threshold" not in READS[kind]),
        ],
    )
    def test_bias_report_without_a_matching_threshold_exits_2(self, tmp_path, capsys, kind, threshold, message):
        """A bias report is matched at ``picker.threshold``, which the kind
        must read and which must be finite; otherwise ``metrics`` exits 2
        and writes nothing."""
        rng = np.random.default_rng(8)
        save_picks(
            PickSet(patches=rng.standard_normal((8, 6, 6)), scores=np.zeros(8), threshold=float("-inf")),
            tmp_path / "picks",
        )
        save_templates(external_templates(rng.standard_normal((2, 6, 6))), tmp_path / "templates")
        fitted = tmp_path / "fitted"
        settings = {"experiment.kind": "pure-noise-2d", "experiment.seed": "1", "geometry.template_count": "2",
                    "em.restarts": "1"}
        fit = ["--out", str(fitted), "classify2d", _settings_file(tmp_path, settings), "--picks", str(tmp_path / "picks")]
        assert main(fit) == 0
        out = tmp_path / "out"
        settings = {"experiment.kind": kind, "experiment.seed": "1", "picker.threshold": threshold}
        argv = ["--out", str(out), "metrics", _settings_file(tmp_path, settings, "metrics.cfg"),
                "--means", str(fitted / "classes"), "--templates", str(tmp_path / "templates")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify2d", "recon3d"])
    @pytest.mark.parametrize(
        "rel_tol, message",
        [("nan", ":3: bad value for em.rel_tol"), ("inf", "rel_tol must be positive and finite")],
    )
    def test_non_finite_rel_tol_exits_2(self, tmp_path, command, rel_tol, message, capsys):
        rng = np.random.default_rng(5)
        shape = (8, 6, 6) if command == "classify2d" else (8, 6, 6, 6)
        save_picks(
            PickSet(patches=rng.standard_normal(shape), scores=np.zeros(8), threshold=float("-inf")),
            tmp_path / "picks",
        )
        kind = "pure-noise-2d" if command == "classify2d" else "pure-noise-3d"
        settings = {"experiment.kind": kind, "experiment.seed": "1", "em.rel_tol": rel_tol,
                    "geometry.canvas": "64x64" if command == "classify2d" else "32x32x32"}
        argv = ["--out", str(tmp_path / "out"), command, _settings_file(tmp_path, settings),
                "--picks", str(tmp_path / "picks")]
        if command == "recon3d":
            save_templates(make_rotation_templates(phantom_volume(6), 2, seed=1), tmp_path / "templates")
            argv += ["--templates", str(tmp_path / "templates")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, kind, settings, message",
        [
            ("run", "pure-noise-2d", "noise.plant_count = -1", ":7: pure-noise-2d does not read noise.plant_count"),
            ("synth", "pure-noise-2d", "noise.plant_count = -1", ":7: pure-noise-2d does not read noise.plant_count"),
            ("run", "planted-3d", "noise.plant_count = -2", "noise.plant_count must be at least 0, got -2"),
            *(
                ("run", kind, f"noise.sigma = {sigma}", f"noise.sigma must be positive and finite, got {float(sigma)}")
                for kind in KINDS for sigma in ("0", "-1", "inf")
            ),
            ("synth", "planted-2d", "noise.sigma = 0", "noise.sigma must be positive and finite, got 0.0"),
            ("run", "complexity-scan", "scan.samples = 1,100",
             "scan.samples must be at least geometry.template_count = 2, got 1"),
            ("run", "complexity-scan", "geometry.sample_target = 1",
             "geometry.sample_target must be at least geometry.template_count = 2, got 1"),
            ("run", "threshold-sweep", "geometry.sample_target = 1",
             "geometry.sample_target must be at least geometry.template_count = 2, got 1"),
            ("run", "pure-noise-2d", "geometry.sample_target = 1",
             "geometry.sample_target must be at least geometry.template_count = 2, got 1"),
            ("run", "threshold-sweep", "noise.sigma = 1.0\nsweep.thresholds = 2, 50",
             "sweep.thresholds = 50 with noise.sigma = 1: T/sigma = 50 is past the sampler's limit of about 37.5"),
            ("run", "threshold-sweep", "noise.sigma = 2\nsweep.thresholds = 76",
             "sweep.thresholds = 76 with noise.sigma = 2: T/sigma = 38 is past the sampler's limit of about 37.5"),
            ("run", "complexity-scan", "picker.threshold = 40",
             "picker.threshold = 40 with noise.sigma = 1: T/sigma = 40 is past the sampler's limit of about 37.5"),
        ],
    )
    def test_setting_a_later_stage_refuses_exits_2_before_writing(
        self, tmp_path, command, kind, settings, message, capsys
    ):
        """Settings that a pick, a sweep point, a scan point or the oracle
        table would refuse are refused at ``[stage configure]``, before
        ``out/`` is made, and ``synth`` refuses them before any file."""
        # only the keys the kind reads: a picking kind's canvas and fields, a fitting kind's templates
        canvas = "32x32x32" if kind in ("pure-noise-3d", "planted-3d", "halfmap-fsc") else "64x64"
        picking = kind not in ("oracle-check", "threshold-sweep", "complexity-scan")
        text = (
            f"experiment.kind = {kind}\nexperiment.seed = 1\n"
            + (f"geometry.canvas = {canvas}\n" if picking else "")
            + ("geometry.patch_side = 8\ngeometry.template_count = 2\n" if kind != "oracle-check" else "")
            + ("geometry.field_count = 2\n" if picking else "")
            + f"{settings}\n"
        )
        out = tmp_path / "out"
        assert main(["--out", str(out), command, _config_file(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert message in err
        if command == "run" and "does not read" not in message:
            assert f"[stage configure] {message}" in err
        assert not out.exists()

    def test_saturation_exits_4(self, tmp_path, monkeypatch, capsys):
        def exhausted(cfg, threads):
            raise SaturationError("placed 1 of 30 patches after 1000000 attempts")

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        assert main(["--out", str(tmp_path / "out"), "run", _config_file(tmp_path, ORACLE_CFG)]) == 4
        assert "error: placed 1 of 30" in capsys.readouterr().err
