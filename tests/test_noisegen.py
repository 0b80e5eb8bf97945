"""Tests for noise fields, planting, and truth tables."""

import numpy as np
import pytest

from fixtures import blob_volume
from oracles import min_circular_linf, reference_draw_positions
from sfn import noisegen
from sfn.errors import ArgumentError, DegenerateTemplateError, SaturationError, ShapeError
from sfn.noisegen import (
    NoiseSpec,
    draw_positions,
    gaussian_field,
    plant_particles,
    read_truth,
    write_truth,
)
from sfn.rng import generator
from sfn.tensors import project_volume, rotate_volume, sample_rotation_grid


def _projection_stack(count=4, side=12):
    vol = blob_volume(side)
    grid = sample_rotation_grid(count, 77)
    return np.stack([project_volume(rotate_volume(vol, r)) for r in grid])


class TestGaussianField:
    def test_moments(self):
        """512x512 unit-noise field: mean within 3/512, variance within 3*sqrt(2)/512."""
        field = gaussian_field((512, 512), NoiseSpec(1.0, seed=1))
        assert abs(field.mean()) <= 3.0 / 512.0
        assert abs(field.var() - 1.0) <= 3.0 * np.sqrt(2.0) / 512.0

    def test_sigma_scales(self):
        spec1 = NoiseSpec(1.0, seed=2)
        spec3 = NoiseSpec(3.0, seed=2)
        np.testing.assert_allclose(
            gaussian_field((32, 32), spec3), 3.0 * gaussian_field((32, 32), spec1)
        )

    def test_deterministic_per_key(self):
        a = gaussian_field((64, 64), NoiseSpec(1.0, seed=3, stream=5))
        b = gaussian_field((64, 64), NoiseSpec(1.0, seed=3, stream=5))
        np.testing.assert_array_equal(a, b)

    def test_streams_decorrelated(self):
        a = gaussian_field((128, 128), NoiseSpec(1.0, seed=4, stream=0)).ravel()
        b = gaussian_field((128, 128), NoiseSpec(1.0, seed=4, stream=1)).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(a.size)

    def test_3d_supported(self):
        assert gaussian_field((8, 9, 10), NoiseSpec(1.0, seed=5)).shape == (8, 9, 10)

    @pytest.mark.parametrize(
        "dims, sigma, seed, stream",
        [((64, 48), 1.25, 3, 0), ((2048, 2048), 1.25, 1000, 11), ((16, 17, 18), 0.3, 8, 2), ((128,) * 3, 1.25, 8, 5)],
    )
    def test_scaling_in_place_keeps_bytes(self, dims, sigma, seed, stream):
        """The field is the key's standard normal draws times sigma, byte
        for byte, scaled in place."""
        field = gaussian_field(dims, NoiseSpec(sigma, seed=seed, stream=stream))
        expected = generator(seed, stream).standard_normal(dims) * sigma
        assert field.dtype == np.float64 and field.flags.c_contiguous
        assert field.tobytes() == expected.tobytes()

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            gaussian_field((64,), NoiseSpec(1.0, seed=6))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ArgumentError):
            NoiseSpec(0.0, seed=7)


class TestPlantParticles:
    def test_canvas_is_clean_plus_noise(self):
        """Subtracting the keyed noise field recovers the planted signal exactly."""
        spec = NoiseSpec(1.0, seed=11, stream=2)
        stack = _projection_stack()
        field = plant_particles((96, 96), stack, count=6, spec=spec, target_snr=0.04)
        clean = field.canvas - gaussian_field((96, 96), spec)
        side = stack.shape[1]
        half = side // 2
        covered = np.zeros((96, 96), dtype=bool)
        for rec in field.truth:
            window = tuple(slice(c - half, c - half + side) for c in rec.position)
            proj = stack[rec.projection_index]
            expected = 0.2 * proj / proj.std()
            np.testing.assert_allclose(clean[window], expected, atol=1e-10)
            covered[window] = True
        np.testing.assert_allclose(clean[~covered], 0.0, atol=1e-12)

    def test_snr_definition(self):
        """Planted patch variance over pixels equals target_snr * sigma^2."""
        spec = NoiseSpec(2.0, seed=12)
        stack = _projection_stack(count=2, side=10)
        field = plant_particles((80, 80), stack, count=4, spec=spec, target_snr=1.0 / 25.0)
        clean = field.canvas - gaussian_field((80, 80), spec)
        for rec in field.truth:
            window = tuple(slice(c - 5, c + 5) for c in rec.position)
            np.testing.assert_allclose(clean[window].var(), (1.0 / 25.0) * 4.0, rtol=1e-10)

    def test_positions_inside_and_separated(self):
        spec = NoiseSpec(1.0, seed=13)
        stack = _projection_stack(count=3, side=8)
        field = plant_particles((64, 64), stack, count=12, spec=spec, target_snr=0.1)
        positions = [rec.position for rec in field.truth]
        assert len(positions) == 12
        for pos in positions:
            assert all(4 <= c <= 64 - 8 + 4 for c in pos)
        assert min_circular_linf(positions) >= 8

    def test_pure_noise_when_count_zero(self):
        spec = NoiseSpec(1.0, seed=14)
        field = plant_particles((32, 32), None, count=0, spec=spec, target_snr=0.0)
        np.testing.assert_array_equal(field.canvas, gaussian_field((32, 32), spec))
        assert field.truth == []

    def test_3d_planting(self):
        spec = NoiseSpec(1.0, seed=15)
        vol = blob_volume(8)
        stack = np.stack([vol, np.roll(vol, 2, axis=0)])
        field = plant_particles((40, 40, 40), stack, count=5, spec=spec, target_snr=0.2)
        assert field.canvas.shape == (40, 40, 40)
        assert len(field.truth) == 5
        assert min_circular_linf([r.position for r in field.truth]) >= 8

    def test_rejects_overfull_canvas(self):
        spec = NoiseSpec(1.0, seed=16)
        stack = _projection_stack(count=2, side=16)
        with pytest.raises(ArgumentError):
            plant_particles((32, 32), stack, count=2, spec=spec, target_snr=0.1)

    def test_rejects_constant_projection(self):
        spec = NoiseSpec(1.0, seed=17)
        stack = np.stack([np.ones((6, 6)), np.zeros((6, 6))])
        with pytest.raises(DegenerateTemplateError):
            plant_particles((64, 64), stack, count=2, spec=spec, target_snr=0.1)

    def test_mean_of_random_patches_stays_small(self):
        """Unbiased baseline: K random patches off pure noise average to
        a vector of norm at most 3 * sigma * sqrt(d / K)."""
        spec = NoiseSpec(1.0, seed=18)
        field = plant_particles((256, 256), None, count=0, spec=spec, target_snr=0.0)
        rng = generator(99, 1)
        side = 8
        centers = draw_positions((256, 256), side, 120, rng)
        patches = np.stack(
            [
                field.canvas[tuple(slice(c - 4, c + 4) for c in center)]
                for center in centers
            ]
        )
        mean = patches.mean(axis=0)
        assert np.linalg.norm(mean) <= 3.0 * np.sqrt(side * side / len(centers))


class TestDrawPositions:
    def test_saturation_error(self):
        rng = generator(20, 0)
        with pytest.raises(SaturationError):
            draw_positions((8, 8), 8, 2, rng)

    @pytest.mark.parametrize("dims, side, count", [
        ((36, 36, 36), 10, 28),
        ((20, 20, 20), 10, 9),
        ((30, 19), 10, 4),
    ])
    def test_count_beyond_room_fails_before_drawing(self, dims, side, count):
        class NoDraws:
            def integers(self, *args):
                raise AssertionError("no position may be drawn")

        with pytest.raises(SaturationError, match="cannot fit"):
            draw_positions(dims, side, count, NoDraws())

    @pytest.mark.parametrize("dims, side, count, budget", [
        ((128, 128, 128), 16, 110, 1_000_000),
        ((96, 80), 8, 40, 1_000_000),
        ((64, 64, 64), 10, 40, 1_000_000),
        ((64, 64), 16, 12, 50),
        ((40, 40, 40), 10, 30, 200),
        ((33, 21), 1, 200, 1_000_000),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_loop(self, dims, side, count, budget, seed, monkeypatch):
        """Same positions, the same draws (the next draw agrees too) and, once
        the attempt budget runs out, the same message as the one-at-a-time
        loop."""
        monkeypatch.setattr(noisegen, "MAX_PLACEMENT_ATTEMPTS", budget)
        outcomes = []
        for draw in (draw_positions, reference_draw_positions):
            rng = generator(seed, 7)
            try:
                fresh = draw(dims, side, count, rng)
            except SaturationError as error:
                outcome = ("error", str(error))
            else:
                assert all(center.dtype == np.int64 and center.shape == (len(dims),) for center in fresh)
                outcome = ("fresh", np.asarray(fresh).tobytes())
            outcomes.append((outcome, rng.integers(1 << 62)))
        assert outcomes[0] == outcomes[1]

    def test_budget_cases_run_out(self, monkeypatch):
        """The two small-budget cases above do end in the budget error."""
        for dims, side, count, budget in [((64, 64), 16, 12, 50), ((40, 40, 40), 10, 30, 200)]:
            monkeypatch.setattr(noisegen, "MAX_PLACEMENT_ATTEMPTS", budget)
            with pytest.raises(SaturationError, match="after .* attempts"):
                draw_positions(dims, side, count, generator(0, 7))

    def test_jammed_canvas_fails_without_spending_the_budget(self):
        """66 side-8 boxes on 96x80 fit by the lattice count (room 120), but
        random placement jams with 64 placed: the error comes once no free
        center is left, long before the budget."""

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng
                self.draws = 0

            def integers(self, *args):
                self.draws += 1
                return self.rng.integers(*args)

        rng = CountingRng(generator(1, 7))
        with pytest.raises(SaturationError, match="placed 64 of 66 patches after 3324 attempts"):
            draw_positions((96, 80), 8, 66, rng)
        assert rng.draws < 10_000

    @pytest.mark.parametrize("count", [-1, -3])
    def test_negative_count_rejected(self, count):
        with pytest.raises(ArgumentError, match=f"count must be nonnegative, got {count}"):
            draw_positions((64, 64), 8, count, generator(0, 7))


class TestTruthIO:
    def test_round_trip(self, tmp_path):
        spec = NoiseSpec(1.0, seed=22)
        stack = _projection_stack(count=3, side=8)
        field = plant_particles((64, 64), stack, count=7, spec=spec, target_snr=0.08)
        path = tmp_path / "truth.csv"
        write_truth(path, field.truth, ndim=2)
        back = read_truth(path)
        assert back == field.truth

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_empty_truth_keeps_the_field_axes(self, tmp_path, ndim):
        path = tmp_path / "truth.csv"
        write_truth(path, [], ndim=ndim)
        axes = ",".join(f"axis{i}" for i in range(ndim))
        assert path.read_bytes() == f"index,{axes},projection_index\r\n".encode()
        assert read_truth(path) == []

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ArgumentError):
            read_truth(path)
