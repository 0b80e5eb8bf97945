"""Tests for the command line driver: exit codes, artifacts, chaining."""

import dataclasses

import numpy as np
import pytest

import sfn.cli as cli
import sfn.experiments as experiments
from sfn.cli import main
from sfn.config import ALGORITHMS, SCHEMA, parse_config_text
from sfn.em import Gmm2dConfig, Recon3dConfig
from sfn.errors import SaturationError
from sfn.experiments import _build_templates, phantom_volume, run_experiment, synth_field
from sfn.picker import PickSet, load_picks, pick_iid, pick_micrograph, pick_random, save_picks, tile_field
from sfn.templates import external_templates, load_templates, make_rotation_templates, save_templates
from sfn.tensors import read_tensor, write_tensor

ORACLE_CFG = "experiment.kind = oracle-check\nexperiment.seed = 3\n"


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

    @pytest.mark.parametrize("plant_count, code", [(0, 0), (-1, 2)])
    def test_negative_plant_count_exits_2(self, tmp_path, plant_count, code):
        path = tmp_path / "run.cfg"
        path.write_text(
            "experiment.kind = pure-noise-2d\nexperiment.seed = 1\n"
            "geometry.canvas = 64x64\ngeometry.field_count = 2\n"
            "geometry.sample_target = 50\ngeometry.template_count = 2\n"
            f"picker.threshold = 2.0\nnoise.plant_count = {plant_count}\nem.restarts = 1\n"
            f"experiment.out = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == code


class TestThreadPlumbing:
    def test_threads_default_to_one_whatever_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFN_THREADS", "lots")
        assert cli._build_parser().parse_args(["oracle"]).threads == 1
        assert main(["--out", str(tmp_path / "out"), "oracle"]) == 0

    def test_nonpositive_threads_exits_2(self, tmp_path):
        assert main(["--threads", "0", "--out", str(tmp_path / "out"), "oracle"]) == 2

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
        out = tmp_path / "synth"
        synth = ["--seed", "5", "--out", str(out), "synth", "--canvas", "64x64", "--count", "3",
                 "--plants", "2", "--snr", "0.5", "--patch-side", "8", "--template-count", "2"]
        assert main(synth) == 0
        for threads in ("1", "2"):
            rc = main(
                [
                    "--seed", "5", "--threads", threads, "--out", str(tmp_path / threads), "pick",
                    "--fields", str(out / "fields"), "--templates", str(out / "templates"),
                    "--threshold", "1.5", "--algorithm", algorithm, "--count", "4",
                ]
            )
            assert rc == 0
        names = sorted(p.name for p in (tmp_path / "1" / "picks").iterdir())
        assert "picks.csv" in names
        assert names == sorted(p.name for p in (tmp_path / "2" / "picks").iterdir())
        for name in names:
            one = (tmp_path / "1" / "picks" / name).read_bytes()
            assert one == (tmp_path / "2" / "picks" / name).read_bytes()


class TestExperimentShortcuts:
    def test_oracle_writes_csv(self, tmp_path, capsys):
        rc = main(
            ["--seed", "2", "--out", str(tmp_path / "out"), "oracle", "--thresholds", "1,3"]
        )
        assert rc == 0
        text = (tmp_path / "out" / "oracle.csv").read_text()
        assert text.count("\n") == 3

    def test_sweep_runs(self, tmp_path):
        rc = main(
            [
                "--seed", "7", "--out", str(tmp_path / "out"), "sweep",
                "--thresholds", "2,4", "--samples", "800",
                "--template-count", "2", "--patch-side", "10", "--restarts", "1",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "sweep.csv").is_file()

    def test_halfmap_runs(self, tmp_path):
        rc = main(
            [
                "--seed", "5", "--out", str(tmp_path / "out"), "halfmap",
                "--canvas", "36x36x36", "--patch-side", "10", "--template-count", "3",
                "--field-count", "4", "--samples", "200", "--threshold", "3.0",
                "--restarts", "1", "--max-iters", "30",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "fsc.csv").is_file()


class TestPackagedFlags:
    def test_every_key_is_a_config_key(self):
        assert {row[0] for row in cli.PACKAGED_FLAGS} == set(cli.PACKAGED)
        for _, flag, key, _, _ in cli.PACKAGED_FLAGS:
            assert key in SCHEMA, flag

    def test_each_halfmap_flag_reaches_its_key(self, tmp_path, monkeypatch):
        given = {
            "--canvas": ("20x22x24", (20, 22, 24)),
            "--patch-side": ("7", 7),
            "--template-count": ("6", 6),
            "--field-count": ("5", 5),
            "--samples": ("321", 321),
            "--threshold": ("2.75", 2.75),
            "--sigma": ("1.5", 1.5),
            "--em-sigma": ("0.75", 0.75),
            "--restarts": ("4", 4),
            "--max-iters": ("17", 17),
        }
        seen = []

        def capture(cfg, threads):
            seen.append(cfg)
            raise SaturationError("captured")

        monkeypatch.setattr(cli, "run_experiment", capture)
        argv = ["--seed", "9", "--out", str(tmp_path / "out"), "halfmap"]
        for flag, (text, _) in given.items():
            argv += [flag, text]
        assert main(argv) == 4
        (cfg,) = seen
        assert (cfg.kind, cfg.seed, cfg.out) == ("halfmap-fsc", 9, str(tmp_path / "out"))
        rows = [row for row in cli.PACKAGED_FLAGS if row[0] == "halfmap"]
        assert [flag for _, flag, _, _, _ in rows] == list(given)
        for _, flag, key, _, _ in rows:
            assert getattr(cfg, SCHEMA[key][0]) == given[flag][1], flag


class TestStageCommands:
    def test_synth_pick_classify_metrics_chain(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(
            [
                "--seed", "11", "--out", out, "synth",
                "--canvas", "96x96", "--count", "3", "--plants", "4",
                "--snr", "0.5", "--patch-side", "12", "--template-count", "2",
            ]
        )
        assert rc == 0
        fields = tmp_path / "out" / "fields"
        assert len(list(fields.glob("field_*.sfn"))) == 3
        assert len(list(fields.glob("truth_*.csv"))) == 3

        rc = main(
            [
                "--out", out, "pick",
                "--fields", str(fields), "--templates", f"{out}/templates",
                "--threshold", "2.0",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "picks" / "picks.csv").is_file()

        rc = main(
            [
                "--seed", "11", "--out", out, "classify2d",
                "--picks", f"{out}/picks", "--class-count", "2",
                "--restarts", "1", "--templates", f"{out}/templates",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "report.csv").is_file()
        assert (tmp_path / "out" / "previews" / "mean_00.pgm").is_file()

        rc = main(
            [
                "--out", out, "metrics",
                "--means", f"{out}/classes", "--templates", f"{out}/templates",
            ]
        )
        assert rc == 0

    def test_recon3d_chain(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(
            [
                "--seed", "13", "--out", out, "synth",
                "--canvas", "36x36x36", "--count", "2", "--plants", "3",
                "--snr", "0.5", "--patch-side", "10", "--template-count", "3",
            ]
        )
        assert rc == 0
        rc = main(
            [
                "--out", out, "pick",
                "--fields", f"{out}/fields", "--templates", f"{out}/templates",
                "--threshold", "2.5",
            ]
        )
        assert rc == 0
        reference = tmp_path / "truth.sfn"
        write_tensor(reference, phantom_volume(10))
        rc = main(
            [
                "--seed", "13", "--out", out, "recon3d",
                "--picks", f"{out}/picks", "--templates", f"{out}/templates",
                "--max-iters", "30", "--reference", str(reference),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "recon" / "volume.sfn").is_file()
        assert "best rotation pcc" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_synth_pick_each_algorithm(self, tmp_path, algorithm):
        out = tmp_path / "out"
        rc = main(
            [
                "--seed", "3", "--out", str(out), "synth",
                "--canvas", "64x64", "--count", "2", "--plants", "2",
                "--snr", "0.5", "--patch-side", "8", "--template-count", "2",
            ]
        )
        assert rc == 0
        rc = main(
            [
                "--seed", "3", "--out", str(out), "pick",
                "--fields", str(out / "fields"), "--templates", str(out / "templates"),
                "--threshold", "1.5", "--algorithm", algorithm, "--count", "5",
            ]
        )
        assert rc == 0
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
        expected = PickSet.concat(expected)
        picks = load_picks(out / "picks")
        assert len(picks) == len(expected) > 0
        np.testing.assert_array_equal(picks.patches, expected.patches)
        np.testing.assert_array_equal(picks.scores, expected.scores)
        assert list(picks.source_ids) == list(expected.source_ids)
        if expected.positions is None:
            assert picks.positions is None
        else:
            np.testing.assert_array_equal(picks.positions, expected.positions)

    @pytest.mark.parametrize("canvas", ["64xabc", "64", "0x64", "64x64x64x64"])
    def test_bad_canvas_exits_2(self, tmp_path, canvas, capsys):
        rc = main(["--out", str(tmp_path / "out"), "synth", "--canvas", canvas, "--count", "1"])
        assert rc == 2
        assert "--canvas" in capsys.readouterr().err

    def test_negative_plants_exits_2(self, tmp_path):
        rc = main(
            ["--out", str(tmp_path / "out"), "synth", "--canvas", "64x64", "--count", "1",
             "--plants", "-1"]
        )
        assert rc == 2

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_exits_2_before_writing(self, tmp_path, count, capsys):
        rc = main(["--out", str(tmp_path / "out"), "synth", "--canvas", "64x64", "--count", count])
        assert rc == 2
        assert f"--count must be at least 1, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("snr", ["0", "inf", "nan"])
    def test_bad_snr_exits_2_before_writing(self, tmp_path, snr, capsys):
        """The experiment's settings checks run before ``fields/`` or
        ``templates/`` is written."""
        rc = main(["--out", str(tmp_path / "out"), "synth", "--canvas", "64x64", "--count", "1",
                   "--plants", "2", "--snr", snr])
        assert rc == 2
        assert "planting requires a positive, finite noise.snr" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fields").exists()
        assert not (tmp_path / "out" / "templates").exists()

    def test_negative_random_count_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        synth = ["--out", out, "synth", "--canvas", "64x64", "--count", "1",
                 "--plants", "2", "--snr", "0.5", "--patch-side", "8", "--template-count", "2"]
        assert main(synth) == 0
        rc = main(["--out", out, "pick", "--fields", f"{out}/fields", "--templates",
                   f"{out}/templates", "--algorithm", "random", "--count", "-3"])
        assert rc == 2
        assert "count must be nonnegative, got -3" in capsys.readouterr().err
        assert not (tmp_path / "out" / "picks").exists()

    @pytest.mark.parametrize("canvas, side, fields", [("96x96", 12, 3), ("36x36x36", 10, 2)])
    def test_synth_writes_the_fields_of_a_planted_run(self, tmp_path, canvas, side, fields):
        """``sfn synth`` and a planted run on the same settings save the same
        templates and truth tables, and each saved field is the run's
        ``synth_field`` canvas, bit for bit."""
        rank = canvas.count("x") + 1
        text = (
            f"experiment.kind = planted-{rank}d\nexperiment.seed = 5\n"
            f"experiment.out = {tmp_path / 'run'}\ngeometry.canvas = {canvas}\n"
            f"geometry.patch_side = {side}\n"
            f"geometry.field_count = {fields}\ngeometry.sample_target = 40\n"
            "geometry.template_count = 3\nnoise.plant_count = 3\nnoise.snr = 0.5\n"
            "picker.threshold = 2.5\nem.restarts = 1\nem.max_iters = 5\n"
        )
        cfg = parse_config_text(text)
        run_experiment(cfg)
        rc = main(
            [
                "--seed", "5", "--out", str(tmp_path / "synth"), "synth",
                "--canvas", canvas, "--count", str(fields), "--plants", "3",
                "--snr", "0.5", "--patch-side", str(side), "--template-count", "3",
            ]
        )
        assert rc == 0
        run_templates = sorted(p.name for p in (tmp_path / "run" / "templates").iterdir())
        assert run_templates == sorted(p.name for p in (tmp_path / "synth" / "templates").iterdir())
        for name in run_templates:
            expected = (tmp_path / "run" / "templates" / name).read_bytes()
            assert (tmp_path / "synth" / "templates" / name).read_bytes() == expected
        _, truth_set, _ = _build_templates(cfg, three_d=rank == 3)
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
        rc = main(
            [
                "--out", str(tmp_path / "out"), "metrics",
                "--volume", str(path_a), "--reference", str(path_b),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "fsc.csv").is_file()
        assert "pcc = 1.0" in capsys.readouterr().out

    def test_metrics_needs_a_mode(self, tmp_path):
        assert main(["--out", str(tmp_path / "out"), "metrics"]) == 2

    def test_pick_without_fields_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(
            [
                "--out", out, "synth", "--canvas", "64x64", "--count", "1",
                "--plants", "2", "--snr", "0.5", "--patch-side", "12",
                "--template-count", "2",
            ]
        )
        assert rc == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(
            ["--out", out, "pick", "--fields", str(empty), "--templates", f"{out}/templates"]
        )
        assert rc == 2
        assert "no field_" in capsys.readouterr().err

    def test_pick_seeds_each_field_by_the_index_in_its_name(self, tmp_path):
        """Field ``i`` is picked with seed ``seed + i``, as in a run, whatever
        other fields lie beside it; fields go in index order."""
        out = tmp_path / "out"
        synth = ["--seed", "4", "--out", str(out), "synth", "--canvas", "64x64", "--count", "3",
                 "--plants", "1", "--snr", "0.5", "--patch-side", "8"]
        assert main(synth) == 0
        sparse = tmp_path / "sparse"
        sparse.mkdir()
        for index, name in ((2, "field_0002"), (1, "field_1001"), (0, "field_10000")):
            (sparse / f"{name}.sfn").write_bytes((out / "fields" / f"field_{index:04d}.sfn").read_bytes())
        positions = {}
        for key, fields in (("full", out / "fields"), ("sparse", sparse)):
            argv = ["--seed", "4", "--out", str(tmp_path / key), "pick", "--fields", str(fields), "--templates",
                    str(out / "templates"), "--algorithm", "random", "--count", "5"]
            assert main(argv) == 0
            picks = load_picks(tmp_path / key / "picks")
            positions[key] = picks.positions[picks.source_ids == "field_0002"]
        assert list(dict.fromkeys(picks.source_ids)) == ["field_0002", "field_1001", "field_10000"]
        assert positions["full"][:3].tolist() == [[60, 60], [35, 49], [13, 30]]
        assert positions["sparse"].tobytes() == positions["full"].tobytes()

    @pytest.mark.parametrize("name", ["field_2.sfn", "field_a.sfn", "field_00002.sfn"])
    def test_pick_of_a_field_name_synth_does_not_write_exits_2(self, tmp_path, name, capsys):
        out = tmp_path / "out"
        synth = ["--out", str(out), "synth", "--canvas", "64x64", "--count", "1",
                 "--plants", "1", "--snr", "0.5", "--patch-side", "8"]
        assert main(synth) == 0
        (out / "fields" / name).write_bytes((out / "fields" / "field_0000.sfn").read_bytes())
        rc = main(["--out", str(out), "pick", "--fields", str(out / "fields"), "--templates",
                   str(out / "templates")])
        assert rc == 2
        assert f"{name} is not a field name" in capsys.readouterr().err
        assert not (out / "picks").exists()

    @pytest.mark.parametrize("count", [1, 2])
    def test_nan_threshold_exits_2(self, tmp_path, count, capsys):
        out = str(tmp_path / "out")
        synth = ["--out", out, "synth", "--canvas", "64x64", "--count", str(count),
                 "--plants", "2", "--snr", "0.5", "--patch-side", "8", "--template-count", "2"]
        assert main(synth) == 0
        rc = main(["--out", out, "pick", "--fields", f"{out}/fields", "--templates",
                   f"{out}/templates", "--threshold", "nan"])
        assert rc == 2
        assert "picking threshold must be a number, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "picks").exists()


class TestEmSettings:
    @pytest.mark.parametrize(
        "argv, config_type, own",
        [
            (["classify2d", "--picks", "p", "--class-count", "2"], Gmm2dConfig, "class_count"),
            (["recon3d", "--picks", "p", "--templates", "t"], Recon3dConfig, "grid"),
        ],
    )
    def test_each_setting_has_one_source(self, argv, config_type, own):
        """A run config and the stage flags set the same EM settings, and
        those plus the class count (or grid) are every field of the config."""
        from_flags = cli._em_settings(cli._build_parser().parse_args(argv))
        from_config = experiments._em_settings(parse_config_text(ORACLE_CFG))
        assert set(from_flags) == set(from_config)
        assert set(from_config) | {own} == {f.name for f in dataclasses.fields(config_type)}


class TestExitCodes:
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
            argv = ["--out", str(out), "synth", "--canvas", "64x64", "--plants", "1", "--snr", "1",
                    "--patch-side", value]
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

        monkeypatch.setattr(cli, "em_reconstruct3d", no_fit)
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
        rc = main(["--out", str(out), "recon3d", "--picks", str(tmp_path / "picks"),
                   "--templates", str(tmp_path / "templates"), "--reference", str(reference)])
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
            "geometry.template_count = 2\nscan.samples = 100,200\nscan.sides = 8,1\n"
        )
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 2
        assert "[stage templates d=1^2]" in capsys.readouterr().err

    def test_degenerate_data_exits_3(self, tmp_path):
        picks = PickSet(
            patches=np.zeros((8, 6, 6)),
            scores=np.zeros(8),
            threshold=float("-inf"),
        )
        save_picks(picks, tmp_path / "picks")
        rc = main(
            [
                "--out", str(tmp_path / "out"), "classify2d",
                "--picks", str(tmp_path / "picks"), "--class-count", "2",
            ]
        )
        assert rc == 3

    def test_missing_templates_exit_2_before_the_fit(self, tmp_path, monkeypatch, capsys):
        def no_fit(picks, config):
            raise AssertionError("the fit must not run")

        monkeypatch.setattr(cli, "em_classify2d", no_fit)
        rng = np.random.default_rng(6)
        save_picks(
            PickSet(patches=rng.standard_normal((8, 6, 6)), scores=np.zeros(8), threshold=float("-inf")),
            tmp_path / "picks",
        )
        rc = main(["--out", str(tmp_path / "out"), "classify2d", "--picks", str(tmp_path / "picks"),
                   "--class-count", "2", "--templates", str(tmp_path / "absent")])
        assert rc == 2
        assert "absent" in capsys.readouterr().err
        assert not (tmp_path / "out" / "classes").exists()

    @pytest.mark.parametrize(
        "templates, message",
        [((3, 6, 6), "templates (3, 6, 6) cannot match 2 class means"),
         ((2, 8, 8), "templates (2, 8, 8) cannot match 2 class means of shape (6, 6)")],
    )
    def test_misaligned_templates_exit_2_before_the_fit(
        self, tmp_path, monkeypatch, capsys, templates, message
    ):
        """A template count other than --class-count, or a template shape
        other than the patch shape, is reported before any EM runs."""
        def no_fit(picks, config):
            raise AssertionError("the fit must not run")

        monkeypatch.setattr(cli, "em_classify2d", no_fit)
        rng = np.random.default_rng(7)
        save_picks(
            PickSet(patches=rng.standard_normal((8, 6, 6)), scores=np.zeros(8), threshold=float("-inf")),
            tmp_path / "picks",
        )
        save_templates(external_templates(rng.standard_normal(templates)), tmp_path / "templates")
        rc = main(["--out", str(tmp_path / "out"), "classify2d", "--picks", str(tmp_path / "picks"),
                   "--class-count", "2", "--templates", str(tmp_path / "templates")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "classes").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["classify2d", "metrics"])
    def test_non_finite_matching_threshold_exits_2(self, tmp_path, monkeypatch, capsys, command, threshold):
        """A bias report needs a finite threshold; ``classify2d`` says so
        before the fit, and neither command writes ``report.csv``."""
        rng = np.random.default_rng(8)
        save_picks(
            PickSet(patches=rng.standard_normal((8, 6, 6)), scores=np.zeros(8), threshold=float("-inf")),
            tmp_path / "picks",
        )
        save_templates(external_templates(rng.standard_normal((2, 6, 6))), tmp_path / "templates")
        out = tmp_path / "out"
        fit = ["--out", str(out), "classify2d", "--picks", str(tmp_path / "picks"), "--class-count", "2",
               "--restarts", "1"]
        report = ["--templates", str(tmp_path / "templates"), f"--threshold={threshold}"]
        if command == "classify2d":
            def no_fit(picks, config):
                raise AssertionError("the fit must not run")

            monkeypatch.setattr(cli, "em_classify2d", no_fit)
            argv = fit + report
        else:
            assert main(fit) == 0
            argv = ["--out", str(out), "metrics", "--means", str(out / "classes"), *report]
        assert main(argv) == 2
        assert f"matching threshold must be finite, got {float(threshold)}" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["classify2d", "recon3d"])
    @pytest.mark.parametrize("rel_tol", ["nan", "inf"])
    def test_non_finite_rel_tol_exits_2(self, tmp_path, command, rel_tol, capsys):
        rng = np.random.default_rng(5)
        shape = (8, 6, 6) if command == "classify2d" else (8, 6, 6, 6)
        save_picks(
            PickSet(patches=rng.standard_normal(shape), scores=np.zeros(8), threshold=float("-inf")),
            tmp_path / "picks",
        )
        argv = ["--out", str(tmp_path / "out"), command, "--picks", str(tmp_path / "picks"),
                "--rel-tol", rel_tol]
        if command == "classify2d":
            argv += ["--class-count", "2"]
        else:
            save_templates(make_rotation_templates(phantom_volume(6), 2, seed=1), tmp_path / "templates")
            argv += ["--templates", str(tmp_path / "templates")]
        assert main(argv) == 2
        assert "rel_tol must be positive and finite" in capsys.readouterr().err

    def test_saturation_exits_4(self, tmp_path, monkeypatch, capsys):
        def exhausted(args, threads):
            raise SaturationError("placed 1 of 30 patches after 1000000 attempts")

        monkeypatch.setattr(cli, "_cmd_packaged", exhausted)
        assert main(["--out", str(tmp_path / "out"), "oracle"]) == 4
        assert "error: placed 1 of 30" in capsys.readouterr().err
