"""Tests for the line-oriented experiment configuration parser."""

import pytest

from sfn.config import (
    ExperimentConfig,
    SCHEMA,
    format_value,
    parse_config,
    parse_config_text,
    resolved_items,
)
from sfn.errors import ConfigError

MINIMAL = "experiment.kind = oracle-check\nexperiment.seed = 7\n"


class TestParseConfigText:
    def test_minimal_fills_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.kind == "oracle-check"
        assert cfg.seed == 7
        assert cfg.out == "artifacts"
        assert cfg.canvas == (256, 256)
        assert cfg.patch_side == 16
        assert cfg.template_count == 5
        assert cfg.threshold == 5.0
        assert cfg.algorithm == "micrograph"
        assert cfg.sweep_thresholds == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert cfg.template_variant == "matched"

    def test_comments_and_blanks_ignored(self):
        text = "\n# a comment\n  \nexperiment.kind = oracle-check\n\nexperiment.seed = 3\n# tail\n"
        cfg = parse_config_text(text)
        assert cfg.seed == 3

    def test_values_tolerate_spacing(self):
        text = "experiment.kind=oracle-check\nexperiment.seed   =   12\nnoise.sigma=2.5\n"
        cfg = parse_config_text(text)
        assert cfg.seed == 12
        assert cfg.sigma == 2.5

    def test_unknown_key_reports_line(self):
        text = MINIMAL + "picker.thresold = 3\n"
        with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'picker.thresold'"):
            parse_config_text(text)

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=r":2: expected"):
            parse_config_text("experiment.kind = oracle-check\njust some words\n")

    def test_bad_value_reports_line_and_key(self):
        text = MINIMAL + "geometry.patch_side = twelve\n"
        with pytest.raises(ConfigError, match=r":3: bad value for geometry.patch_side"):
            parse_config_text(text)

    def test_duplicate_key_reports_both_lines(self):
        text = MINIMAL + "experiment.seed = 9\n"
        with pytest.raises(ConfigError, match=r":3: duplicate key .* line 2"):
            parse_config_text(text)

    def test_missing_required_kind(self):
        with pytest.raises(ConfigError, match="missing required key experiment.kind"):
            parse_config_text("experiment.seed = 1\n")

    def test_missing_required_seed(self):
        with pytest.raises(ConfigError, match="missing required key experiment.seed"):
            parse_config_text("experiment.kind = oracle-check\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="bad value for experiment.kind"):
            parse_config_text("experiment.kind = banana\nexperiment.seed = 1\n")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="bad value for picker.algorithm"):
            parse_config_text(MINIMAL + "picker.algorithm = cnn\n")

    def test_canvas_parses_2d_and_3d(self):
        cfg = parse_config_text(MINIMAL + "geometry.canvas = 64x48\n")
        assert cfg.canvas == (64, 48)
        cfg = parse_config_text(MINIMAL + "geometry.canvas = 24x24x24\n")
        assert cfg.canvas == (24, 24, 24)

    def test_canvas_rejects_single_axis(self):
        with pytest.raises(ConfigError, match="bad value for geometry.canvas"):
            parse_config_text(MINIMAL + "geometry.canvas = 64\n")

    def test_float_list_parses(self):
        cfg = parse_config_text(MINIMAL + "sweep.thresholds = 1.5, 2, 4.25\n")
        assert cfg.sweep_thresholds == (1.5, 2.0, 4.25)

    @pytest.mark.parametrize(
        "line",
        ["oracle.thresholds = 1,inf", "sweep.thresholds = 2,inf", "sweep.thresholds = -inf", "oracle.thresholds = nan"],
    )
    def test_float_list_rejects_non_finite_values(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf":3: bad value for {key}: list values must be finite numbers"):
            parse_config_text(MINIMAL + line + "\n")

    def test_int_list_parses(self):
        cfg = parse_config_text(MINIMAL + "scan.sides = 8,12\n")
        assert cfg.scan_sides == (8, 12)

    def test_nan_rejected(self):
        with pytest.raises(ConfigError, match="bad value for noise.sigma"):
            parse_config_text(MINIMAL + "noise.sigma = nan\n")


class TestParseConfigFile:
    def test_reads_file_and_uses_path_in_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL + "bogus.key = 1\n")
        with pytest.raises(ConfigError, match=rf"{path}:3: unknown key"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(tmp_path / "nope.cfg")

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL + "noise.sigma = 1.25\n")
        cfg = parse_config(path)
        assert cfg.sigma == 1.25


class TestResolvedItems:
    def test_covers_every_schema_key(self):
        cfg = parse_config_text(MINIMAL)
        keys = [key for key, _ in resolved_items(cfg)]
        assert sorted(keys) == keys
        assert set(keys) == set(SCHEMA)

    def test_values_reparse_to_same_config(self):
        cfg = parse_config_text(
            MINIMAL
            + "geometry.canvas = 48x32\nnoise.sigma = 1.25\nsweep.thresholds = 1,2.5\n"
        )
        text = "\n".join(f"{key} = {value}" for key, value in resolved_items(cfg))
        assert parse_config_text(text) == cfg

    def test_format_value_floats(self):
        assert format_value(1.25) == "1.25"
        assert format_value(10) == "10"
        assert format_value((1.0, 2.5)) == "1,2.5"


class TestExperimentConfig:
    def test_frozen(self):
        cfg = ExperimentConfig(kind="oracle-check", seed=0)
        with pytest.raises(AttributeError):
            cfg.seed = 5
