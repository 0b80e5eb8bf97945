"""Tests for template construction, filtering, and serialization."""

import time

import numpy as np
import pytest

from fixtures import blob_volume, unit_frobenius
from sfn.errors import ArgumentError, DegenerateTemplateError, ShapeError
from sfn.metrics import pcc
from sfn.templates import (
    TemplateSet,
    external_templates,
    load_templates,
    lowpass,
    make_projection_templates,
    make_rotation_templates,
    save_templates,
)
from sfn.tensors import (
    project_volume,
    rotate_volume,
    sample_rotation_grid,
    write_tensor,
)


def _random_set(count, side, seed, ndim=2):
    rng = np.random.default_rng(seed)
    shape = (count,) + (side,) * ndim
    return np.stack([unit_frobenius(t) for t in rng.standard_normal(shape)])


class TestTemplateSet:
    def test_rejects_non_unit_norm(self):
        stack = _random_set(2, 6, 0)
        stack[1] *= 1.5
        with pytest.raises(ArgumentError, match="norm"):
            TemplateSet(stack)

    def test_rejects_duplicates(self):
        stack = _random_set(3, 6, 1)
        stack[2] = stack[0]
        with pytest.raises(ArgumentError, match="not distinct"):
            TemplateSet(stack)

    def test_rejects_grid_length_mismatch(self):
        with pytest.raises(ArgumentError, match="grid"):
            TemplateSet(_random_set(2, 6, 3), grid=sample_rotation_grid(3, 5))

    def test_rejects_ragged_rank(self):
        with pytest.raises(ShapeError):
            TemplateSet(np.zeros((2, 4)))

    def test_immutable_stack(self):
        ts = TemplateSet(_random_set(2, 6, 4))
        with pytest.raises(ValueError):
            ts.templates[0, 0, 0] = 5.0


class TestProjectionTemplates:
    def test_each_template_projects_its_grid_rotation(self):
        """The seed's grid turns the volume, one rotation per template,
        and each turned volume is projected and normalized."""
        v = blob_volume(12)
        ts = make_projection_templates(v, 3, seed=0)
        np.testing.assert_array_equal(ts.grid.quaternions, sample_rotation_grid(3, 0).quaternions)
        for template, rotation in zip(ts, ts.grid):
            expected = project_volume(rotate_volume(v, rotation))
            np.testing.assert_array_equal(template, expected / np.linalg.norm(expected))
        assert ts.template_ndim == 2

    def test_unit_norms(self):
        ts = make_projection_templates(blob_volume(12), 4, seed=9)
        norms = np.linalg.norm(ts.templates.reshape(4, -1), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_spherical_blob_projections_nearly_agree(self):
        """A centered symmetric blob projects to almost the same image from
        every direction; only interpolation keeps the five apart."""
        v = blob_volume(16, centers=[(0.5, 0.5, 0.5)], widths=[0.09], weights=[1.0])
        ts = make_projection_templates(v, 5, seed=77)
        scores = [pcc(ts[i], ts[j]) for i in range(5) for j in range(i + 1, 5)]
        assert min(scores) >= 0.99

    def test_deterministic(self):
        v = blob_volume(10)
        a = make_projection_templates(v, 3, seed=4)
        b = make_projection_templates(v, 3, seed=4)
        assert a.templates.tobytes() == b.templates.tobytes()

    def test_zero_volume_degenerate(self):
        with pytest.raises(DegenerateTemplateError):
            make_projection_templates(np.zeros((8, 8, 8)), 2, seed=1)


class TestRotationTemplates:
    def test_each_template_is_its_grid_rotation(self):
        v = blob_volume(10)
        ts = make_rotation_templates(v, 3, seed=0)
        np.testing.assert_array_equal(ts.grid.quaternions, sample_rotation_grid(3, 0).quaternions)
        for template, rotation in zip(ts, ts.grid):
            expected = rotate_volume(v, rotation)
            np.testing.assert_array_equal(template, expected / np.linalg.norm(expected))
        assert ts.template_ndim == 3

    def test_deterministic(self):
        v = blob_volume(10)
        a = make_rotation_templates(v, 3, seed=11)
        b = make_rotation_templates(v, 3, seed=11)
        assert a.templates.tobytes() == b.templates.tobytes()

    def test_fifty_rotations_build_quickly(self):
        """Timed in process CPU time, so a busy machine does not count."""
        v = blob_volume(24)
        start = time.process_time()
        ts = make_rotation_templates(v, 50, seed=3)
        elapsed = time.process_time() - start
        assert len(ts) == 50
        assert elapsed < 10.0


class TestLowpass:
    def test_full_band_is_identity(self):
        ts = external_templates(_random_set(3, 8, 6))
        assert lowpass(ts, 1.0) is ts

    def test_matches_direct_mask(self):
        """Hard mask + renormalize, recomputed in the test from scratch."""
        ts = external_templates(_random_set(2, 16, 7))
        out = lowpass(ts, 0.5)
        freqs = np.fft.fftfreq(16)
        fy, fx = np.meshgrid(freqs, freqs, indexing="ij")
        mask = fy ** 2 + fx ** 2 <= 0.25 ** 2
        for got, raw in zip(out, ts):
            want = np.fft.ifftn(np.fft.fftn(raw) * mask).real
            want /= np.linalg.norm(want)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_white_noise_energy_fraction(self):
        """Retained energy tracks the fraction of Fourier bins kept, which
        for a half-Nyquist disk is about pi/16 of a 2D spectrum."""
        side = 64
        ts = external_templates(_random_set(1, side, 8))
        freqs = np.fft.fftfreq(side)
        fy, fx = np.meshgrid(freqs, freqs, indexing="ij")
        mask = fy ** 2 + fx ** 2 <= 0.25 ** 2
        bin_fraction = mask.mean()
        spectrum = np.abs(np.fft.fftn(ts[0])) ** 2
        energy_fraction = spectrum[mask].sum() / spectrum.sum()
        assert abs(bin_fraction - np.pi / 16) < 0.01
        assert abs(energy_fraction - bin_fraction) < 0.02
        filtered = np.fft.ifftn(np.fft.fftn(ts[0]) * mask).real
        np.testing.assert_allclose(
            np.linalg.norm(filtered) ** 2, energy_fraction, rtol=1e-10
        )

    def test_filtered_set_unit_norm(self):
        ts = lowpass(external_templates(_random_set(3, 12, 9)), 0.4)
        norms = np.linalg.norm(ts.templates.reshape(3, -1), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_all_energy_removed_degenerate(self):
        """Zero-mean oscillation has nothing below a tiny cutoff."""
        side = 16
        row = np.cos(2 * np.pi * np.arange(side) * 8 / side)
        t = unit_frobenius(np.tile(row, (side, 1)))
        ts = TemplateSet(np.stack([t, unit_frobenius(np.roll(t, 1, axis=1) + 0.3 * t)]))
        with pytest.raises(DegenerateTemplateError):
            lowpass(ts, 0.05)

    def test_rejects_bad_cutoff(self):
        ts = external_templates(_random_set(2, 8, 10))
        for cutoff in (0.0, -0.5, 1.5):
            with pytest.raises(ArgumentError):
                lowpass(ts, cutoff)


class TestSerialization:
    def test_roundtrip_projection_set(self, tmp_path):
        ts = make_projection_templates(blob_volume(12), 4, seed=5)
        save_templates(ts, tmp_path / "set")
        back = load_templates(tmp_path / "set")
        assert back.template_ndim == ts.template_ndim
        assert len(back) == len(ts)
        np.testing.assert_array_equal(back.grid.quaternions, ts.grid.quaternions)
        np.testing.assert_array_equal(back.templates, ts.templates)

    @pytest.mark.parametrize("maker", [make_projection_templates, make_rotation_templates])
    def test_round_trip_is_bit_equal_over_seeds(self, tmp_path, maker):
        """Over 100 seeds of 7 templates of side 6, a saved set loads back
        with the templates and grid rows it was saved with, bit for bit."""
        volume = blob_volume(6)
        for seed in range(100):
            ts = maker(volume, 7, seed=seed)
            save_templates(ts, tmp_path / str(seed))
            back = load_templates(tmp_path / str(seed))
            assert back.templates.tobytes() == ts.templates.tobytes(), seed
            assert back.grid.quaternions.tobytes() == ts.grid.quaternions.tobytes(), seed

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "0.5", "0"])
    def test_rejects_a_malformed_or_non_unit_grid_row(self, tmp_path, cell):
        save_templates(make_rotation_templates(blob_volume(6), 3, seed=1), tmp_path)
        manifest = tmp_path / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        row = lines[1].split(",")
        row[1] = cell
        lines[1] = ",".join(row)
        manifest.write_text("".join(lines))
        with pytest.raises(ArgumentError):
            load_templates(tmp_path)

    def test_rejects_a_template_that_is_not_unit_norm(self, tmp_path):
        """A saved template is taken as read, not renormalized."""
        ts = make_rotation_templates(blob_volume(6), 3, seed=1)
        save_templates(ts, tmp_path)
        write_tensor(tmp_path / "template_001.sfn", 2.0 * ts.templates[1])
        with pytest.raises(ArgumentError, match="template 1 has norm"):
            load_templates(tmp_path)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_roundtrip_external_has_no_grid(self, tmp_path, ndim):
        """An external set's manifest holds only the index column, and the
        set loads back bit for bit, without a grid."""
        ts = external_templates(_random_set(3, 6, 11, ndim=ndim))
        save_templates(ts, tmp_path / "ext")
        assert (tmp_path / "ext" / "manifest.csv").read_bytes() == b"index\r\n0\r\n1\r\n2\r\n"
        back = load_templates(tmp_path / "ext")
        assert back.grid is None
        assert back.templates.tobytes() == ts.templates.tobytes()

    @pytest.mark.parametrize("maker", [make_projection_templates, make_rotation_templates])
    def test_manifest_columns_follow_the_grid(self, tmp_path, maker):
        ts = maker(blob_volume(6), 2, seed=3)
        save_templates(ts, tmp_path)
        header = (tmp_path / "manifest.csv").read_text().splitlines()[0]
        assert header == "index,qw,qx,qy,qz"

    def test_saves_are_byte_identical(self, tmp_path):
        ts = make_rotation_templates(blob_volume(10), 3, seed=12)
        save_templates(ts, tmp_path / "a")
        save_templates(ts, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArgumentError, match="manifest"):
            load_templates(tmp_path)
