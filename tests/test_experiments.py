"""Tests for experiment orchestration and artifact bookkeeping."""

import csv
import gc
import itertools
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sfn import experiments
from sfn.config import KINDS, parse_config_text
from sfn.em import load_gmm_state
from sfn.errors import ArgumentError, ConfigError
from sfn.experiments import (
    ExperimentResult,
    check_experiment,
    decoy_volume,
    git_blob_hash,
    phantom_volume,
    run_experiment,
    split_halves,
)
from sfn.metrics import pcc
from sfn.picker import PickSet, load_picks, tile_field
from sfn.templates import lowpass, make_projection_templates, make_rotation_templates, save_templates
from sfn.tensors import read_tensor
from sfn.truncgauss import TruncSpec, trunc_mean, trunc_var


def _cfg(tmp_path, text):
    body = text + f"\nexperiment.out = {tmp_path / 'run'}\n"
    return parse_config_text(body)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPhantoms:
    def test_deterministic(self):
        np.testing.assert_array_equal(phantom_volume(12), phantom_volume(12))

    def test_positive_compact(self):
        volume = phantom_volume(16)
        assert volume.shape == (16, 16, 16)
        assert volume.min() >= 0.0
        assert volume.max() == pytest.approx(volume[5:12, 5:12, 5:12].max())

    def test_decoy_differs(self):
        a = phantom_volume(16)
        b = decoy_volume(16)
        assert pcc(a, b) < 0.3


class TestTileField:
    def test_2d_layout(self):
        canvas = np.arange(36.0).reshape(6, 6)
        tiles = tile_field(canvas, 3)
        assert tiles.shape == (4, 3, 3)
        np.testing.assert_array_equal(tiles[0], canvas[:3, :3])
        np.testing.assert_array_equal(tiles[1], canvas[:3, 3:])
        np.testing.assert_array_equal(tiles[3], canvas[3:, 3:])

    def test_2d_remainder_dropped(self):
        """A 2D and a 3D canvas whose sides are not multiples of the tile."""
        for shape, count in (((7, 5), 2), ((7, 5, 8), 4)):
            canvas = np.arange(float(np.prod(shape))).reshape(shape)
            tiles = tile_field(canvas, 3)
            assert tiles.shape == (count,) + (3,) * len(shape)
            last = tuple(slice(dim // 3 * 3 - 3, dim // 3 * 3) for dim in shape)
            np.testing.assert_array_equal(tiles[0], canvas[(slice(0, 3),) * len(shape)])
            np.testing.assert_array_equal(tiles[-1], canvas[last])

    def test_3d_layout(self):
        canvas = np.arange(64.0).reshape(4, 4, 4)
        tiles = tile_field(canvas, 2)
        assert tiles.shape == (8, 2, 2, 2)
        np.testing.assert_array_equal(tiles[0], canvas[:2, :2, :2])
        np.testing.assert_array_equal(tiles[-1], canvas[2:, 2:, 2:])

    @pytest.mark.parametrize(
        "shape, side",
        [
            ((6, 6), 3),
            ((7, 5), 3),
            ((5, 9), 1),
            ((4, 4), 4),
            ((2, 8), 3),
            ((4, 4, 4), 2),
            ((7, 5, 8), 3),
            ((3, 6, 9), 3),
            ((5, 5, 5), 1),
            ((2, 8, 8), 3),
        ],
    )
    def test_matches_tile_by_tile_slicing(self, shape, side):
        """Tiles in row-major order of their corners, bytes and dtype as
        sliced one at a time; a side above some canvas axis gives none."""
        canvas = np.random.default_rng(sum(shape)).standard_normal(shape).astype(np.float32)
        steps = [dim // side for dim in shape]
        expected = [
            canvas[tuple(slice(i * side, (i + 1) * side) for i in corner)]
            for corner in itertools.product(*map(range, steps))
        ]
        expected = np.array(expected, dtype=canvas.dtype).reshape((-1,) + (side,) * len(shape))
        tiles = tile_field(canvas, side)
        assert tiles.dtype == canvas.dtype and tiles.shape == expected.shape
        assert tiles.tobytes() == expected.tobytes()

    def test_non_contiguous_canvas(self):
        base = np.arange(84.0).reshape(12, 7)
        canvas = base[::2, ::-1]
        assert not canvas.flags.c_contiguous
        tiles = tile_field(canvas, 3)
        assert tiles.tobytes() == tile_field(np.ascontiguousarray(canvas), 3).tobytes()
        np.testing.assert_array_equal(tiles[1], canvas[:3, 3:6])


class TestSplitHalves:
    def test_two_fields(self):
        half_a, half_b = split_halves(["x", "y"], seed=0)
        assert len(half_a) == 1 and len(half_b) == 1
        assert set(half_a + half_b) == {"x", "y"}

    def test_large_split_disjoint_complete(self):
        items = list(range(1000))
        half_a, half_b = split_halves(items, seed=3)
        assert len(half_a) == 500 and len(half_b) == 500
        assert set(half_a).isdisjoint(half_b)
        assert sorted(half_a + half_b) == items

    def test_deterministic(self):
        assert split_halves(range(11), seed=9) == split_halves(range(11), seed=9)

    def test_seed_changes_split(self):
        assert split_halves(range(100), seed=1) != split_halves(range(100), seed=2)

    def test_too_few_fields(self):
        with pytest.raises(ConfigError):
            split_halves(["only"], seed=0)


class TestGitBlobHash:
    def test_known_values(self):
        # frozen from `git hash-object --stdin`
        assert git_blob_hash(b"hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"
        assert git_blob_hash(b"") == "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"


class TestKindTable:
    def test_covers_every_config_kind(self):
        assert set(experiments._KINDS) == set(KINDS)


SIDE_KEYS = ("geometry.patch_side", "scan.sides")

# the side keys each kind reads; an unlisted kind fails with a KeyError
SIDE_READS = {
    "oracle-check": set(),
    "pure-noise-2d": {"geometry.patch_side"},
    "planted-2d": {"geometry.patch_side"},
    "threshold-sweep": {"geometry.patch_side"},
    "pure-noise-3d": {"geometry.patch_side"},
    "planted-3d": {"geometry.patch_side"},
    "halfmap-fsc": {"geometry.patch_side"},
    "complexity-scan": {"geometry.patch_side", "scan.sides"},
}


class TestCheckExperiment:
    @pytest.mark.parametrize("key", SIDE_KEYS)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_only_sides_the_kind_reads_must_be_at_least_1(self, kind, key):
        def checked(value):
            text = f"experiment.kind = {kind}\nexperiment.seed = 1\n{key} = {value}\n"
            return check_experiment(parse_config_text(text))

        assert checked(1) is experiments._KINDS[kind][0]
        if key in SIDE_READS[kind]:
            with pytest.raises(ConfigError, match=f"{key} must be at least 1, got 0") as raised:
                checked(0)
            assert raised.value.exit_code == 2
        else:
            assert checked(0) is experiments._KINDS[kind][0]

    @pytest.mark.parametrize(
        "kind, canvas, setting, named",
        [
            ("pure-noise-2d", "32x32", "geometry.patch_side = 1", "geometry.patch_side = 1"),
            ("planted-2d", "32x32", "geometry.patch_side = 1\nnoise.plant_count = 1\nnoise.snr = 0.5",
             "geometry.patch_side = 1"),
            ("threshold-sweep", "32x32", "geometry.patch_side = 1", "geometry.patch_side = 1"),
            ("pure-noise-3d", "16x16x16", "geometry.patch_side = 1", "geometry.patch_side = 1"),
            ("planted-3d", "16x16x16", "geometry.patch_side = 2\nnoise.plant_count = 1\nnoise.snr = 0.5",
             "geometry.patch_side = 2"),
            ("halfmap-fsc", "16x16x16", "geometry.patch_side = 1", "geometry.patch_side = 1"),
            ("complexity-scan", "32x32", "geometry.patch_side = 8\nscan.sides = 8,1", "scan.sides = 1"),
            ("complexity-scan", "32x32", "geometry.patch_side = 1\nscan.sides = 8", "geometry.patch_side = 1"),
        ],
    )
    def test_side_too_small_for_the_phantom_names_its_key(self, tmp_path, monkeypatch, kind, canvas, setting, named):
        """A side of at least 1 whose phantom gives too few distinct unit
        templates fails at the templates stage, exit 2, naming the side's
        key, before any file is written or any field or fit is run."""

        def no_work(*args):
            raise AssertionError("nothing may run after the templates stage")

        for name in ("_field_task", "sample_mixture", "em_classify2d"):
            monkeypatch.setattr(experiments, name, no_work)
        text = (
            f"experiment.kind = {kind}\nexperiment.seed = 0\ngeometry.canvas = {canvas}\n"
            "geometry.field_count = 2\ngeometry.template_count = 2\ngeometry.sample_target = 10\n"
            f"scan.samples = 10\n{setting}\n"
        )
        message = rf"\[stage templates[^\]]*\] {re.escape(named)} is too small"
        with pytest.raises(ConfigError, match=message) as raised:
            run_experiment(_cfg(tmp_path, text))
        assert raised.value.exit_code == 2
        assert not [p for p in (tmp_path / "run").rglob("*") if p.is_file()]


class TestOracleCheck:
    def test_csv_matches_module_values(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            "experiment.kind = oracle-check\nexperiment.seed = 1\n"
            "oracle.thresholds = -2,0,3\nnoise.sigma = 1.0\n",
        )
        result = run_experiment(cfg)
        rows = _read_rows(Path(result.out_dir) / "oracle.csv")
        assert rows[0][:4] == ["sigma", "threshold", "trunc_mean", "trunc_var"]
        for row, threshold in zip(rows[1:], (-2.0, 0.0, 3.0)):
            spec = TruncSpec(1.0, threshold)
            assert float(row[2]) == pytest.approx(trunc_mean(spec), rel=1e-15)
            assert float(row[3]) == pytest.approx(trunc_var(spec), rel=1e-15)
        assert rows[2][4] == ""

    def test_result_shape(self, tmp_path):
        cfg = _cfg(tmp_path, "experiment.kind = oracle-check\nexperiment.seed = 1\n")
        result = run_experiment(cfg)
        assert isinstance(result, ExperimentResult)
        assert result.kind == "oracle-check"
        assert result.summary == {"rows": 8}


class TestManifest:
    @pytest.mark.parametrize(
        "text",
        [
            "experiment.kind = oracle-check\nexperiment.seed = 5\n",
            "experiment.kind = pure-noise-2d\nexperiment.seed = 1\n"
            "geometry.canvas = 64x64\ngeometry.field_count = 2\n"
            "geometry.sample_target = 50\ngeometry.template_count = 2\n"
            "picker.threshold = 2.0\nem.restarts = 1\n",
        ],
        ids=["oracle", "picking"],
    )
    def test_lists_every_file_with_correct_hash(self, tmp_path, text):
        """Every file but the run's own manifest, the picking templates'
        ``templates/manifest.csv`` included."""
        result = run_experiment(_cfg(tmp_path, text))
        out_dir = Path(result.out_dir)
        rows = _read_rows(out_dir / "manifest.csv")
        listed = {key: value for entry, key, value in rows[1:] if entry == "file"}
        on_disk = {
            p.relative_to(out_dir).as_posix(): git_blob_hash(p.read_bytes())
            for p in out_dir.rglob("*")
            if p.is_file() and p != out_dir / "manifest.csv"
        }
        assert listed == on_disk

    def test_records_resolved_config(self, tmp_path):
        cfg = _cfg(tmp_path, "experiment.kind = oracle-check\nexperiment.seed = 5\n")
        result = run_experiment(cfg)
        rows = _read_rows(Path(result.out_dir) / "manifest.csv")
        config_rows = {key: value for entry, key, value in rows[1:] if entry == "config"}
        assert config_rows["experiment.kind"] == "oracle-check"
        assert config_rows["experiment.seed"] == "5"
        assert config_rows["picker.threshold"] == "5"
        assert "geometry.canvas" in config_rows


PURE_2D = (
    "experiment.kind = pure-noise-2d\nexperiment.seed = 11\n"
    "geometry.canvas = 256x256\ngeometry.field_count = 6\n"
    "geometry.sample_target = 3000\ngeometry.template_count = 3\n"
    "picker.threshold = 2.0\nem.restarts = 2\n"
)


class TestClassifyPipeline:
    def test_pure_noise_2d_artifacts(self, tmp_path):
        result = run_experiment(_cfg(tmp_path, PURE_2D))
        out_dir = Path(result.out_dir)
        picks = load_picks(out_dir / "picks")
        assert len(picks) == result.summary["sample_count"]
        assert picks.side == 16
        state = load_gmm_state(out_dir / "classes")
        assert state.means.shape == (3, 16, 16)
        report_rows = _read_rows(out_dir / "report.csv")
        assert report_rows[0] == ["template", "matched_mean", "pcc", "scaled_error", "alpha"]
        assert len(report_rows) == 4
        for ell in range(3):
            preview = out_dir / "previews" / f"mean_{ell:02d}.pgm"
            assert preview.read_bytes().startswith(b"P5\n")
        assert -1.0 <= result.summary["mean_pcc"] <= 1.0

    def test_sample_target_caps_picks(self, tmp_path):
        capped = PURE_2D.replace("geometry.sample_target = 3000", "geometry.sample_target = 100")
        result = run_experiment(_cfg(tmp_path, capped))
        assert result.summary["sample_count"] == 100

    def test_planted_2d_writes_truth(self, tmp_path):
        text = PURE_2D.replace("pure-noise-2d", "planted-2d") + (
            "noise.snr = 0.5\nnoise.plant_count = 12\n"
        )
        result = run_experiment(_cfg(tmp_path, text))
        out_dir = Path(result.out_dir)
        truths = sorted(out_dir.glob("truth_*.csv"))
        assert len(truths) == 6
        assert result.summary["plant_total"] == 72
        rows = _read_rows(truths[0])
        assert rows[0] == ["index", "axis0", "axis1", "projection_index"]
        assert len(rows) == 13

    def test_planting_requires_snr(self, tmp_path):
        text = PURE_2D.replace("pure-noise-2d", "planted-2d") + "noise.plant_count = 12\n"
        with pytest.raises(ConfigError, match=r"\[stage configure\].*snr"):
            run_experiment(_cfg(tmp_path, text))

    def test_planting_rejects_an_infinite_snr(self, tmp_path):
        text = PURE_2D.replace("pure-noise-2d", "planted-2d") + "noise.snr = inf\nnoise.plant_count = 12\n"
        with pytest.raises(ConfigError, match=r"\[stage configure\].*finite noise\.snr"):
            run_experiment(_cfg(tmp_path, text))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["pure-noise-2d", "pure-noise-3d", "halfmap-fsc"])
    def test_plant_count_rejected_on_pure_noise_kinds(self, tmp_path, kind):
        text = PURE_2D.replace("pure-noise-2d", kind) + "noise.snr = 0.5\nnoise.plant_count = 2\n"
        with pytest.raises(ConfigError, match=r"\[stage configure\].*noise\.plant_count"):
            run_experiment(_cfg(tmp_path, text))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("threshold", ["inf", "-inf"])
    @pytest.mark.parametrize("kind", ["pure-noise-2d", "planted-2d"])
    def test_non_finite_threshold_rejected_before_picking(self, tmp_path, kind, threshold):
        """The bias report is matched at ``picker.threshold``, which must
        then be finite: checked before anything is written or fitted."""
        text = PURE_2D.replace("pure-noise-2d", kind).replace(
            "picker.threshold = 2.0", f"picker.threshold = {threshold}"
        )
        message = rf"\[stage configure\] {kind} needs a finite picker\.threshold, got {threshold}"
        with pytest.raises(ConfigError, match=message) as raised:
            run_experiment(_cfg(tmp_path, text))
        assert raised.value.exit_code == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["pure-noise-2d", "pure-noise-3d", "halfmap-fsc", "threshold-sweep"])
    @pytest.mark.parametrize("setting", ["em.rel_tol = inf", "em.max_iters = 0"])
    def test_em_keys_checked_before_picking(self, tmp_path, kind, setting):
        text = PURE_2D.replace("pure-noise-2d", kind) + setting + "\n"
        with pytest.raises(ArgumentError, match=r"\[stage configure\]") as raised:
            run_experiment(_cfg(tmp_path, text))
        assert raised.value.exit_code == 2
        assert not list((tmp_path / "run").glob("picks*"))
        assert not (tmp_path / "run" / "templates").exists()

    @pytest.mark.parametrize(
        "kind, setting",
        [
            (kind, setting)
            for kind in ["pure-noise-2d", "planted-2d", "pure-noise-3d", "halfmap-fsc"]
            for setting in ["geometry.field_count = 0", "geometry.sample_target = 0"]
        ]
        + [
            (kind, "geometry.sample_target = -5")
            for kind in ["pure-noise-2d", "pure-noise-3d", "threshold-sweep"]
        ],
    )
    def test_geometry_counts_checked_before_picking(self, tmp_path, kind, setting):
        key = setting.split(" = ")[0]
        text = "\n".join(
            setting if line.startswith(key) else line
            for line in PURE_2D.replace("pure-noise-2d", kind).splitlines()
        )
        message = rf"\[stage configure\].*{key} must be at least 1"
        with pytest.raises(ConfigError, match=message) as raised:
            run_experiment(_cfg(tmp_path, text))
        assert raised.value.exit_code == 2
        assert not (tmp_path / "run" / "templates").exists()

    @pytest.mark.parametrize("kind", ["pure-noise-3d", "planted-3d", "halfmap-fsc"])
    def test_one_field_rejected_before_any_field_is_picked(self, tmp_path, monkeypatch, kind):
        def synthesized(task):
            raise AssertionError("a field was synthesized")

        monkeypatch.setattr(experiments, "_field_task", synthesized)
        text = PURE_3D.replace("pure-noise-3d", kind).replace(
            "geometry.field_count = 6", "geometry.field_count = 1"
        )
        with pytest.raises(ConfigError, match=r"\[stage configure\].*at least 2 fields") as raised:
            run_experiment(_cfg(tmp_path, text))
        assert raised.value.exit_code == 2
        assert not (tmp_path / "run").exists()

    def test_template_count_checked_before_picking(self, tmp_path):
        text = PURE_2D.replace("geometry.template_count = 3", "geometry.template_count = 0")
        with pytest.raises(ConfigError, match=r"\[stage configure\].*geometry\.template_count"):
            run_experiment(_cfg(tmp_path, text))

    def test_wrong_canvas_rank_names_stage(self, tmp_path):
        text = PURE_2D.replace("geometry.canvas = 256x256", "geometry.canvas = 32x32x32")
        with pytest.raises(ConfigError, match=r"\[stage templates\].*2D canvas"):
            run_experiment(_cfg(tmp_path, text))

    def test_iid_algorithm(self, tmp_path):
        text = PURE_2D + "picker.algorithm = iid\n"
        result = run_experiment(_cfg(tmp_path, text))
        picks = load_picks(Path(result.out_dir) / "picks")
        assert picks.positions is None
        assert np.all(picks.scores >= 2.0)

    def test_random_algorithm(self, tmp_path):
        # 100 random side-16 picks per 256^2 field fit without saturating
        text = PURE_2D.replace(
            "geometry.sample_target = 3000", "geometry.sample_target = 600"
        ) + "picker.algorithm = random\n"
        result = run_experiment(_cfg(tmp_path, text))
        assert result.summary["sample_count"] == 600
        picks = load_picks(Path(result.out_dir) / "picks")
        assert picks.positions is not None


class TestMeanScaledError:
    SMALL_2D = (
        "experiment.kind = pure-noise-2d\nexperiment.seed = 3\ngeometry.canvas = 64x64\n"
        "geometry.patch_side = 8\ngeometry.field_count = 2\ngeometry.sample_target = 60\n"
        "geometry.template_count = 2\nem.restarts = 1\n"
    )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.5])
    def test_classify_reports_it_only_above_threshold_0(self, tmp_path, threshold):
        """``mean(sqrt(scaled_error)) / T`` of the report at T > 0; an empty
        summary value, and no warning, at T <= 0."""
        result = run_experiment(_cfg(tmp_path, self.SMALL_2D + f"picker.threshold = {threshold}\n"))
        summary = dict(_read_rows(tmp_path / "run" / "summary.csv")[1:])
        if threshold <= 0.0:
            assert result.summary["mean_scaled_error"] == summary["mean_scaled_error"] == ""
        else:
            scaled = [float(row[3]) for row in _read_rows(tmp_path / "run" / "report.csv")[1:]]
            expected = float(np.mean(np.sqrt(scaled)) / threshold)
            assert result.summary["mean_scaled_error"] == expected
            assert summary["mean_scaled_error"] == "%.17g" % expected

    @pytest.mark.filterwarnings("error")
    def test_sweep_leaves_it_empty_at_thresholds_of_at_most_0(self, tmp_path):
        text = (
            "experiment.kind = threshold-sweep\nexperiment.seed = 7\nsweep.thresholds = -1,0,1.5\n"
            "geometry.sample_target = 300\ngeometry.template_count = 2\ngeometry.patch_side = 8\n"
            "em.restarts = 1\n"
        )
        run_experiment(_cfg(tmp_path, text))
        rows = _read_rows(tmp_path / "run" / "sweep.csv")
        assert [row[2] for row in rows[1:3]] == ["", ""]
        assert float(rows[3][2]) > 0.0


class TestLowpassTemplates:
    @pytest.mark.parametrize("cutoff", [0.5, 1.0])
    @pytest.mark.parametrize(
        "kind, canvas, maker",
        [("pure-noise-2d", "64x64", make_projection_templates),
         ("pure-noise-3d", "24x24x24", make_rotation_templates)],
    )
    def test_run_saves_and_picks_with_the_lowpassed_truth_set(
        self, tmp_path, monkeypatch, kind, canvas, maker, cutoff
    ):
        """At ``templates.lowpass = c`` a run saves ``lowpass(truth_set, c)``
        as ``templates/`` and picks every field with it; at 1.0 that is the
        truth set itself."""
        pick_field = experiments.pick_field
        used = []

        def recording(field, templates, *rest):
            used.append(templates)
            return pick_field(field, templates, *rest)

        monkeypatch.setattr(experiments, "pick_field", recording)
        text = (
            f"experiment.kind = {kind}\nexperiment.seed = 2\ngeometry.canvas = {canvas}\n"
            "geometry.patch_side = 6\ngeometry.field_count = 2\ngeometry.sample_target = 40\n"
            "geometry.template_count = 3\npicker.threshold = 2.0\nem.restarts = 1\nem.max_iters = 3\n"
            f"templates.lowpass = {cutoff}\n"
        )
        run_experiment(_cfg(tmp_path, text))
        truth_set = maker(phantom_volume(6), 3, seed=2)
        expected = lowpass(truth_set, cutoff)
        assert (cutoff == 1.0) == np.array_equal(expected.templates, truth_set.templates)
        saved, ours = tmp_path / "run" / "templates", tmp_path / "expected"
        save_templates(expected, ours)
        names = sorted(p.name for p in ours.iterdir())
        assert names == sorted(p.name for p in saved.iterdir())
        for name in names:
            assert (saved / name).read_bytes() == (ours / name).read_bytes()
        assert len(used) == 2
        for templates in used:
            assert np.asarray(templates.templates).tobytes() == np.asarray(expected.templates).tobytes()


PURE_3D = (
    "experiment.kind = pure-noise-3d\nexperiment.seed = 21\n"
    "geometry.canvas = 48x48x48\ngeometry.patch_side = 12\n"
    "geometry.field_count = 6\ngeometry.sample_target = 400\n"
    "geometry.template_count = 4\npicker.threshold = 3.0\n"
    "em.restarts = 1\nem.max_iters = 40\n"
)


class TestReconPipeline:
    def test_pure_noise_3d_artifacts(self, tmp_path):
        result = run_experiment(_cfg(tmp_path, PURE_3D))
        out_dir = Path(result.out_dir)
        combined = read_tensor(out_dir / "volume.sfn")
        truth = read_tensor(out_dir / "truth_volume.sfn")
        assert combined.shape == (12, 12, 12)
        assert truth.shape == (12, 12, 12)
        picks_a = load_picks(out_dir, name="picks_a")
        picks_b = load_picks(out_dir, name="picks_b")
        assert len(picks_a) + len(picks_b) == result.summary["sample_count"]
        assert -1.0 <= result.summary["best_pcc"] <= 1.0
        fsc_rows = _read_rows(out_dir / "fsc.csv")
        assert fsc_rows[0] == ["shell", "frequency", "correlation"]

    def test_planted_3d_beats_pure_noise_pcc(self, tmp_path):
        planted = (
            PURE_3D.replace("pure-noise-3d", "planted-3d").replace(
                "geometry.canvas = 48x48x48", "geometry.canvas = 64x64x64"
            )
            + "noise.snr = 0.04\nnoise.plant_count = 20\n"
        )
        result = run_experiment(_cfg(tmp_path, planted))
        assert result.summary["best_pcc"] >= 0.8
        truths = sorted(Path(result.out_dir).glob("truth_*.csv"))
        assert len(truths) == 6

    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("pure-noise-3d", [(2, 0)] * 2),
            # the random picks of the 6 fields are capped after the template fits
            ("halfmap-fsc", [(2, 6)] * 2 + [(0, 2)] * 2),
        ],
    )
    def test_fits_see_no_uncapped_template_picks(self, tmp_path, monkeypatch, kind, expected):
        """During each fit the only live template pick sets are the two
        capped halves: the per-field parts are dropped once the halves are
        cut from them. Counted as (template, random) pick sets."""
        fit = experiments.em_reconstruct3d
        live = []

        def counting_fit(picks, config):
            gc.collect()
            sets = [
                o for o in gc.get_objects()
                if isinstance(o, PickSet) and o.canvas_dims == (48, 48, 48)
            ]
            random = sum(s.threshold == float("-inf") for s in sets)
            live.append((len(sets) - random, random))
            return fit(picks, config)

        monkeypatch.setattr(experiments, "em_reconstruct3d", counting_fit)
        text = PURE_3D.replace("pure-noise-3d", kind).replace("em.max_iters = 40", "em.max_iters = 2")
        run_experiment(_cfg(tmp_path, text))
        assert live == expected


class TestThresholdSweep:
    def test_monotone_rise(self, tmp_path):
        text = (
            "experiment.kind = threshold-sweep\nexperiment.seed = 7\n"
            "sweep.thresholds = 1,3,5\ngeometry.sample_target = 1500\n"
            "geometry.template_count = 3\ngeometry.patch_side = 12\n"
            "em.restarts = 2\n"
        )
        result = run_experiment(_cfg(tmp_path, text))
        rows = _read_rows(Path(result.out_dir) / "sweep.csv")
        assert rows[0] == ["threshold", "mean_pcc", "mean_scaled_error", "min_alpha"]
        pccs = [float(row[1]) for row in rows[1:]]
        assert pccs == sorted(pccs)
        assert result.summary["non_decreasing"] == 1
        assert result.summary["pcc_gain"] == pytest.approx(pccs[-1] - pccs[0])


class TestHalfmapFsc:
    def test_template_beats_random(self, tmp_path):
        text = (
            "experiment.kind = halfmap-fsc\nexperiment.seed = 5\n"
            "geometry.canvas = 48x48x48\ngeometry.patch_side = 12\n"
            "geometry.template_count = 4\ngeometry.field_count = 6\n"
            "geometry.sample_target = 400\npicker.threshold = 3.0\n"
            "em.restarts = 1\nem.max_iters = 40\n"
        )
        result = run_experiment(_cfg(tmp_path, text))
        summary = result.summary
        assert summary["template_mean_fsc"] > summary["random_mean_fsc"] + 0.2
        rows = _read_rows(Path(result.out_dir) / "fsc.csv")
        assert rows[0] == ["shell", "frequency", "template", "random"]

    def test_needs_two_fields(self, tmp_path):
        text = (
            "experiment.kind = halfmap-fsc\nexperiment.seed = 5\n"
            "geometry.canvas = 48x48x48\ngeometry.patch_side = 12\n"
            "geometry.field_count = 1\n"
        )
        with pytest.raises(ConfigError, match=r"\[stage configure\]"):
            run_experiment(_cfg(tmp_path, text))


class TestComplexityScan:
    def test_slopes_near_theory(self, tmp_path):
        text = (
            "experiment.kind = complexity-scan\nexperiment.seed = 41\n"
            "geometry.patch_side = 8\ngeometry.template_count = 3\n"
            "geometry.sample_target = 4000\npicker.threshold = 6.0\n"
            "scan.samples = 1000,4000,16000\nscan.sides = 8,12,16\n"
            "em.restarts = 2\n"
        )
        result = run_experiment(_cfg(tmp_path, text))
        assert -1.5 <= result.summary["slope_samples"] <= -0.6
        assert 0.5 <= result.summary["slope_dimension"] <= 1.4
        rows = _read_rows(Path(result.out_dir) / "scan.csv")
        assert len(rows) == 7


class TestDeterminism:
    def _run_twice(self, tmp_path, threads_a, threads_b):
        cfg = parse_config_text(PURE_2D)
        result_a = run_experiment(replace(cfg, out=str(tmp_path / "a")), threads=threads_a)
        result_b = run_experiment(replace(cfg, out=str(tmp_path / "b")), threads=threads_b)
        return Path(result_a.out_dir), Path(result_b.out_dir)

    def _assert_same_bytes(self, dir_a, dir_b):
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            bytes_a = (dir_a / rel).read_bytes()
            bytes_b = (dir_b / rel).read_bytes()
            if rel.name == "manifest.csv":
                # the out path itself is part of the resolved config
                lines_a = [l for l in bytes_a.splitlines() if b"experiment.out" not in l]
                lines_b = [l for l in bytes_b.splitlines() if b"experiment.out" not in l]
                assert lines_a == lines_b
            else:
                assert bytes_a == bytes_b, rel

    def test_rerun_reproduces_bytes(self, tmp_path):
        dir_a, dir_b = self._run_twice(tmp_path, 1, 1)
        self._assert_same_bytes(dir_a, dir_b)

    def test_thread_count_does_not_change_output(self, tmp_path):
        dir_a, dir_b = self._run_twice(tmp_path, 1, 2)
        self._assert_same_bytes(dir_a, dir_b)
