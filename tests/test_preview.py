"""Tests for PGM preview export."""

import csv

import numpy as np
import pytest

from sfn.errors import ShapeError
from sfn.preview import export_preview, read_pgm


class TestExportPreview2d:
    def test_linear_ramp_bytes(self, tmp_path):
        # documented min-max rule: [0,1;2,3] maps onto {0, 85, 170, 255}
        path = tmp_path / "ramp.pgm"
        report = export_preview(np.array([[0.0, 1.0], [2.0, 3.0]]), path)
        raw = path.read_bytes()
        assert raw == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        assert report.paths == (str(path),)
        assert report.bounds == ((0.0, 3.0),)
        assert not report.constant

    def test_constant_maps_to_mid_gray(self, tmp_path):
        path = tmp_path / "flat.pgm"
        report = export_preview(np.full((3, 4), 7.5), path)
        pixels = read_pgm(path)
        np.testing.assert_array_equal(pixels, np.full((3, 4), 128, dtype=np.uint8))
        assert report.constant

    def test_scaling_matches_direct_formula(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((7, 5))
        path = tmp_path / "rand.pgm"
        export_preview(values, path)
        lo, hi = values.min(), values.max()
        expected = np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
        np.testing.assert_array_equal(read_pgm(path), expected)

    def test_sidecar_records_bounds(self, tmp_path):
        path = tmp_path / "ramp.pgm"
        report = export_preview(np.array([[0.0, 1.0], [2.0, 3.0]]), path)
        with open(report.sidecar, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["file", "low", "high"]
        assert rows[1] == ["ramp.pgm", "0", "3"]

    def test_non_square_dimensions_in_header(self, tmp_path):
        path = tmp_path / "wide.pgm"
        export_preview(np.arange(6.0).reshape(2, 3), path)
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_creates_missing_directory(self, tmp_path):
        path = tmp_path / "new" / "previews" / "ramp.pgm"
        report = export_preview(np.array([[0.0, 1.0], [2.0, 3.0]]), path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        assert (tmp_path / "new" / "previews" / "ramp_bounds.csv").is_file()
        assert report.paths == (str(path),)


class TestExportPreview3d:
    def test_three_files_written(self, tmp_path):
        volume = np.random.default_rng(6).standard_normal((4, 5, 6))
        report = export_preview(volume, tmp_path / "vol.pgm")
        names = sorted(p.split("/")[-1] for p in report.paths)
        assert names == ["vol_slice.pgm", "vol_sumx.pgm", "vol_sumz.pgm"]

    def test_views_match_direct_projections(self, tmp_path):
        volume = np.random.default_rng(7).standard_normal((6, 6, 6))
        export_preview(volume, tmp_path / "vol.pgm")

        def scaled(image):
            lo, hi = image.min(), image.max()
            return np.round((image - lo) / (hi - lo) * 255.0).astype(np.uint8)

        np.testing.assert_array_equal(
            read_pgm(tmp_path / "vol_slice.pgm"), scaled(volume[3])
        )
        np.testing.assert_array_equal(
            read_pgm(tmp_path / "vol_sumz.pgm"), scaled(volume.sum(axis=0))
        )
        np.testing.assert_array_equal(
            read_pgm(tmp_path / "vol_sumx.pgm"), scaled(volume.sum(axis=2))
        )

    def test_sidecar_lists_all_three(self, tmp_path):
        volume = np.zeros((3, 3, 3))
        report = export_preview(volume, tmp_path / "vol.pgm")
        with open(report.sidecar, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert report.constant


class TestPreviewValidation:
    def test_1d_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            export_preview(np.arange(5.0), tmp_path / "bad.pgm")

    def test_4d_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            export_preview(np.zeros((2, 2, 2, 2)), tmp_path / "bad.pgm")

    def test_read_pgm_rejects_other_formats(self, tmp_path):
        path = tmp_path / "fake.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ShapeError):
            read_pgm(path)
