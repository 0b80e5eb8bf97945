"""Tests for the three pickers and pick-set serialization."""

import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtures import blob_volume, large, unit_frobenius
from oracles import (
    brute_force_correlation_map,
    label_subsets,
    min_circular_linf,
    reference_check_no_overlap,
    reference_correlation_map,
    reference_merge,
    reference_pick_micrograph,
    reference_tiled_correlation_map,
    reference_tiled_pick_micrograph,
    wrapped_patch,
)
from sfn import picker
from sfn.errors import ArgumentError, SaturationError, ShapeError
from sfn.metrics import pcc
from sfn.noisegen import NoiseSpec, gaussian_field, plant_particles
from sfn.picker import (
    PickSet,
    _spectrum,
    _splitter,
    _worker_count,
    correlation_map,
    load_picks,
    pick_iid,
    pick_micrograph,
    pick_random,
    save_picks,
)
from sfn.templates import (
    external_templates,
    make_projection_templates,
    make_rotation_templates,
)

# upper Gaussian tail at 3, the selection rate for a single unit template
Q3 = 1.3498980316300945e-3


def _basis_templates(side, count):
    stack = np.zeros((count, side, side))
    for i in range(count):
        stack[i, 0, i] = 1.0
    return external_templates(stack)


def _random_templates(side, count, seed):
    rng = np.random.default_rng(seed)
    return external_templates(rng.standard_normal((count, side, side)))


class TestPickIid:
    def test_bottomless_threshold_keeps_everything(self):
        rng = np.random.default_rng(0)
        candidates = rng.standard_normal((20, 6, 6))
        ts = _random_templates(6, 2, 1)
        picks = pick_iid(candidates, ts, -1e9)
        assert len(picks) == 20
        np.testing.assert_array_equal(picks.patches, candidates)
        flat = candidates.reshape(20, -1) @ ts.templates.reshape(2, -1).T
        np.testing.assert_allclose(picks.scores, flat.max(axis=1), atol=1e-12)

    def test_scaled_template_selected(self):
        ts = _random_templates(8, 3, 2)
        threshold = 3.0
        candidate = (threshold + 1.0) * ts[0]
        picks = pick_iid(candidate[None], ts, threshold)
        assert len(picks) == 1
        assert picks.labels[0] == 0
        np.testing.assert_allclose(picks.scores[0], threshold + 1.0, atol=1e-9)

    def test_tied_label_breaks_low(self):
        ts = _basis_templates(4, 2)
        candidate = ts[0] + ts[1]
        picks = pick_iid(candidate[None], ts, 0.5)
        assert picks.labels[0] == 0
        np.testing.assert_allclose(picks.scores[0], 1.0)

    def test_dimension_mismatch(self):
        ts = _random_templates(8, 1, 3)
        with pytest.raises(ShapeError):
            pick_iid(np.zeros((5, 6, 6)), ts, 0.0)

    def test_noise_selection_rate_matches_gaussian_tail(self):
        """Single template, threshold 3: acceptance is a Bernoulli with
        rate Q(3), checked to three standard errors over a million draws."""
        ts = _random_templates(8, 1, 4)
        total = 1_000_000
        chunk = 100_000
        rng = np.random.default_rng(5)
        parts = []
        for _ in range(total // chunk):
            candidates = rng.standard_normal((chunk, 8, 8))
            parts.append(pick_iid(candidates, ts, 3.0))
        picks = PickSet.concat(parts)
        rate = len(picks) / total
        margin = 3.0 * np.sqrt(Q3 * (1.0 - Q3) / total)
        assert abs(rate - Q3) <= margin
        assert picks.scores.min() >= 3.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate_raises(self, value):
        """A NaN or infinite correlation is neither dropped nor kept."""
        ts = _random_templates(2, 1, 8)
        candidates = np.random.default_rng(9).standard_normal((3, 2, 2))
        candidates[1, 0, 0] = value
        for stack in (candidates, np.full((3, 2, 2), value)):
            with pytest.raises(ArgumentError, match="finite"):
                pick_iid(stack, ts, 0.5)

    def test_order_preserved(self):
        rng = np.random.default_rng(6)
        candidates = rng.standard_normal((200, 5, 5))
        ts = _random_templates(5, 2, 7)
        picks = pick_iid(candidates, ts, 0.5)
        dots = candidates.reshape(200, -1) @ ts.templates.reshape(2, -1).T
        keep = dots.max(axis=1) >= 0.5
        np.testing.assert_array_equal(picks.patches, candidates[keep])


class TestCorrelationMap:
    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(8)
        canvas = rng.standard_normal((64, 64))
        template = unit_frobenius(rng.standard_normal((8, 8)))
        fast = correlation_map(canvas, template)
        slow = brute_force_correlation_map(canvas, template)
        np.testing.assert_allclose(fast, slow, atol=1e-6)

    def test_matches_brute_force_3d(self):
        rng = np.random.default_rng(9)
        canvas = rng.standard_normal((8, 8, 8))
        template = unit_frobenius(rng.standard_normal((3, 3, 3)))
        fast = correlation_map(canvas, template)
        slow = brute_force_correlation_map(canvas, template)
        np.testing.assert_allclose(fast, slow, atol=1e-6)

    def test_odd_template_side(self):
        rng = np.random.default_rng(10)
        canvas = rng.standard_normal((16, 16))
        template = unit_frobenius(rng.standard_normal((5, 5)))
        np.testing.assert_allclose(
            correlation_map(canvas, template),
            brute_force_correlation_map(canvas, template),
            atol=1e-8,
        )


class TestPickMicrograph:
    def test_zero_canvas_is_empty(self):
        ts = _random_templates(8, 2, 11)
        picks = pick_micrograph(np.zeros((32, 32)), ts, 0.5, source_id="f")
        assert len(picks) == 0
        assert picks.patches.shape == (0, 8, 8)

    @pytest.mark.parametrize("dims", [(32, 32), (20, 20, 20)])
    def test_infinite_threshold_gives_empty_stacks(self, dims):
        side = 6
        maker = make_rotation_templates if len(dims) == 3 else make_projection_templates
        ts = maker(blob_volume(side), 2, seed=11)
        field = gaussian_field(dims, NoiseSpec(sigma=1.0, seed=12))
        picks = pick_micrograph(field, ts, float("inf"), source_id="f")
        assert picks.patches.shape == (0,) + (side,) * len(dims)
        assert picks.positions.shape == (0, len(dims))
        assert picks.scores.shape == picks.labels.shape == (0,)

    def test_single_plant_recovered(self):
        ts = make_projection_templates(blob_volume(12), 1, seed=12)
        side = 12
        canvas = np.zeros((48, 48))
        scale = 5.0
        canvas[10:10 + side, 20:20 + side] = scale * ts[0]
        picks = pick_micrograph(canvas, ts, 3.0, source_id="f")
        assert len(picks) == 1
        np.testing.assert_array_equal(picks.positions[0], (10 + side // 2, 20 + side // 2))
        np.testing.assert_allclose(picks.scores[0], scale, atol=1e-6)
        np.testing.assert_allclose(picks.patches[0], scale * ts[0], atol=1e-12)
        assert picks.labels[0] == 0

    def test_wrapped_plant_recovered(self):
        rng = np.random.default_rng(13)
        ts = _random_templates(8, 1, 14)
        canvas = np.zeros((32, 32))
        corner = (28, 30)
        rows = (np.arange(8) + corner[0]) % 32
        cols = (np.arange(8) + corner[1]) % 32
        canvas[np.ix_(rows, cols)] = 4.0 * ts[0]
        picks = pick_micrograph(canvas, ts, 2.0, source_id="f")
        assert len(picks) == 1
        center = tuple(picks.positions[0])
        assert center == ((28 + 4) % 32, (30 + 4) % 32)
        np.testing.assert_allclose(
            picks.patches[0], wrapped_patch(canvas, center, 8), atol=1e-12
        )

    def test_raising_threshold_filters_the_same_picks(self):
        """The greedy pass at a higher threshold returns exactly the picks
        from the lower run whose scores clear the new bar."""
        field = gaussian_field((96, 96), NoiseSpec(sigma=1.0, seed=15))
        ts = _random_templates(8, 2, 16)
        low = pick_micrograph(field, ts, 1.0, source_id="f")
        high = pick_micrograph(field, ts, 2.0, source_id="f")
        keep = low.scores > 2.0
        np.testing.assert_array_equal(high.positions, low.positions[keep])
        np.testing.assert_array_equal(high.scores, low.scores[keep])
        np.testing.assert_array_equal(high.labels, low.labels[keep])

    def test_scores_match_extracted_patches(self):
        field = gaussian_field((64, 64), NoiseSpec(sigma=1.0, seed=17))
        ts = _random_templates(8, 3, 18)
        picks = pick_micrograph(field, ts, 1.5, source_id="f")
        assert len(picks) > 0
        flat = picks.patches.reshape(len(picks), -1)
        dots = flat @ ts.templates.reshape(3, -1).T
        np.testing.assert_allclose(dots.max(axis=1), picks.scores, atol=1e-6)
        for i in range(len(picks)):
            assert dots[i, picks.labels[i]] >= dots[i].max() - 1e-6

    def test_non_overlap_invariant(self):
        field = gaussian_field((80, 80), NoiseSpec(sigma=1.0, seed=19))
        ts = _random_templates(10, 2, 20)
        picks = pick_micrograph(field, ts, 1.0, source_id="f")
        assert len(picks) > 1
        assert min_circular_linf(picks.positions, picks.canvas_dims) >= 10

    def test_deterministic(self):
        field = gaussian_field((64, 64), NoiseSpec(sigma=1.0, seed=21))
        ts = _random_templates(8, 2, 22)
        a = pick_micrograph(field, ts, 1.2, source_id="f")
        b = pick_micrograph(field, ts, 1.2, source_id="f")
        assert a.patches.tobytes() == b.patches.tobytes()
        assert a.scores.tobytes() == b.scores.tobytes()
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_nan_threshold_rejected(self):
        ts = _random_templates(8, 1, 23)
        with pytest.raises(ArgumentError, match="threshold"):
            pick_micrograph(np.zeros((16, 16)), ts, float("nan"), source_id="f")
        with pytest.raises(ArgumentError, match="threshold"):
            pick_iid(np.zeros((3, 8, 8)), ts, float("nan"))
        assert len(pick_iid(np.zeros((3, 8, 8)), ts, float("-inf"))) == 3
        assert pick_micrograph(np.ones((16, 16)), ts, float("-inf"), source_id="f").threshold == float("-inf")

    def test_canvas_too_small(self):
        ts = _random_templates(8, 1, 23)
        with pytest.raises(ShapeError):
            pick_micrograph(np.zeros((6, 6)), ts, 0.0, source_id="f")

    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [np.inf, -np.inf], [1e308, 1e308]])
    def test_non_finite_canvas_rejected(self, values):
        """A NaN would pass through the running maximum and leave an empty
        pick set; the tile sums in the spectra's DC terms catch it."""
        ts = _random_templates(8, 2, 24)
        canvas = np.random.default_rng(25).standard_normal((32, 32))
        canvas.flat[[3, 700][:len(values)]] = values
        with pytest.raises(ArgumentError, match="canvas must be finite"):
            pick_micrograph(canvas, ts, 1.0, source_id="f")
        with pytest.raises(ArgumentError, match="canvas must be finite"):
            correlation_map(canvas, ts[0])

    def test_planted_field_recall(self):
        """Plants far above the noise floor are all recovered at their
        exact centers."""
        ts = make_projection_templates(blob_volume(16), 2, seed=24)
        field = plant_particles(
            (128, 128),
            np.stack([np.asarray(t) for t in ts]),
            6,
            NoiseSpec(sigma=0.05, seed=25),
            target_snr=400.0,
        )
        picks = pick_micrograph(field.canvas, ts, 0.8, source_id="f")
        planted = {tuple(r.position) for r in field.truth}
        found = {tuple(p) for p in picks.positions}
        assert planted <= found


class TestMergeMaps:
    """``picker._merge_maps`` against the strict-``>`` merge in ``oracles``:
    the same best bytes everywhere, the same labels wherever the best is
    above the threshold."""

    @staticmethod
    def _check(maps, threshold):
        maps = [np.asarray(m, dtype=np.float64) for m in maps]
        dims = maps[0].shape
        expected, expected_labels = reference_merge(maps)
        above = expected > threshold
        for workers in (1, 3):
            with picker._split_across(workers) as split:
                best, labels = picker._merge_maps(
                    lambda index, out: np.copyto(out, maps[index]), len(maps), dims, threshold, split
                )
            assert best.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(labels[above], expected_labels[above])
        return best, labels

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_ties_keep_the_first(self, first, second):
        best, labels = self._check([np.full((4, 5), first), np.full((4, 5), second)], -1.0)
        assert np.all(np.signbit(best) == np.signbit(first))
        assert not labels.any()

    def test_identical_maps_label_the_first(self):
        rng = np.random.default_rng(70)
        a = rng.standard_normal((30, 30))
        b = a + (rng.random((30, 30)) < 0.3)
        _, labels = self._check([a, b, a, b, b], -np.inf)
        np.testing.assert_array_equal(labels, np.where(b > a, 1, 0))

    @pytest.mark.parametrize("threshold", [1.0, 0.0, -0.5, -np.inf])
    def test_tied_integer_maps(self, threshold):
        rng = np.random.default_rng(71)
        maps = rng.integers(-2, 3, (6, 40, 50)).astype(np.float64)
        maps[maps == 0] = -0.0 * rng.integers(0, 2, np.count_nonzero(maps == 0))
        self._check(maps, threshold)

    def test_more_than_255_maps(self):
        rng = np.random.default_rng(72)
        maps = rng.standard_normal((300, 12, 12))
        maps[299] += 10.0 * (rng.random((12, 12)) < 0.2)
        _, labels = self._check(maps, 0.0)
        assert labels.dtype == np.uint16
        assert labels.max() == 299

    def test_chunks_across_a_large_map(self, monkeypatch):
        monkeypatch.setattr(picker, "MERGE_CHUNK_ELEMENTS", 7)
        rng = np.random.default_rng(73)
        maps = rng.integers(-3, 4, (4, 9, 11, 3)).astype(np.float64)
        self._check(maps, 0.5)
        self._check(maps, -np.inf)


def _assert_same_bytes(fast, slow):
    for name in ("scores", "positions", "labels", "patches"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
    assert fast.source_ids.tolist() == slow.source_ids.tolist()


def _reference_picks(canvas, template_set, threshold):
    """The picks ``pick_micrograph`` must match byte for byte: overlap-save
    tiles on a 2D canvas, the full canvas in 3D."""
    oracle = reference_tiled_pick_micrograph if np.ndim(canvas) == 2 else reference_pick_micrograph
    return oracle(canvas, template_set, threshold, source_id="f")


def _reference_map(canvas, template):
    """The map ``correlation_map`` must match byte for byte."""
    oracle = reference_tiled_correlation_map if np.ndim(canvas) == 2 else reference_correlation_map
    return oracle(canvas, template)


def _assert_full_canvas_picks(fast, canvas, template_set, threshold):
    """Tiles move scores by rounding only: the picks of the full-canvas
    reference, with scores within 1e-12."""
    full = reference_pick_micrograph(canvas, template_set, threshold, source_id="f")
    for name in ("positions", "labels", "patches"):
        assert getattr(fast, name).tobytes() == getattr(full, name).tobytes(), name
    np.testing.assert_allclose(fast.scores, full.scores, rtol=0, atol=1e-12)


class TestBitExactAgainstReference:
    """``pick_micrograph`` and ``correlation_map`` reproduce the
    per-template formulation in ``oracles`` byte for byte: tile by tile on
    a ``np.pad`` wrapped canvas in 2D, on the full canvas in 3D.

    Canvases are at least 256^2 or 36^3: numpy reuses temporaries only
    above 256 KiB, and a 3D spectrum product formed with swapped operands
    there moves scores in the last bits, which smaller canvases cannot
    show. A 256^2 canvas spans several groups of 2D tiles.
    """

    SHAPES = [((256, 256), 16), ((36, 36, 36), 8)]

    @pytest.mark.parametrize("dims, side", SHAPES)
    def test_correlation_map(self, dims, side):
        rng = np.random.default_rng(60)
        canvas = rng.standard_normal(dims)
        template = unit_frobenius(rng.standard_normal((side,) * len(dims)))
        fast = correlation_map(canvas, template)
        assert fast.tobytes() == _reference_map(canvas, template).tobytes()

    @pytest.mark.parametrize("dims, side", SHAPES)
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("threshold", [3.0, 0.0])
    def test_noise_field(self, dims, side, count, threshold):
        rng = np.random.default_rng(61)
        canvas = rng.standard_normal(dims)
        ts = external_templates(rng.standard_normal((count,) + (side,) * len(dims)))
        fast = pick_micrograph(canvas, ts, threshold, source_id="f")
        slow = _reference_picks(canvas, ts, threshold)
        assert len(fast) > 0
        _assert_same_bytes(fast, slow)

    @pytest.mark.parametrize("dims, side", SHAPES)
    def test_bottomless_threshold(self, dims, side):
        """At minus infinity every pixel is a candidate and gets a label."""
        rng = np.random.default_rng(69)
        canvas = rng.standard_normal(dims)
        ts = external_templates(rng.standard_normal((5,) + (side,) * len(dims)))
        fast = pick_micrograph(canvas, ts, -np.inf, source_id="f")
        slow = _reference_picks(canvas, ts, -np.inf)
        assert len(np.unique(fast.labels)) > 1
        _assert_same_bytes(fast, slow)

    def test_integer_canvas_with_tied_scores(self):
        rng = np.random.default_rng(62)
        canvas = rng.integers(-2, 3, (256, 256)).astype(np.float64)
        ts = _basis_templates(4, 3)
        fast = pick_micrograph(canvas, ts, 0.5, source_id="f")
        slow = _reference_picks(canvas, ts, 0.5)
        assert len(np.unique(fast.scores)) < len(fast)
        _assert_same_bytes(fast, slow)

    def test_labels_beyond_255_templates(self):
        rng = np.random.default_rng(63)
        canvas = rng.standard_normal((40, 40))
        ts = _random_templates(6, 257, 64)
        canvas[10:16, 20:26] += 8.0 * ts[256]
        fast = pick_micrograph(canvas, ts, 0.0, source_id="f")
        slow = _reference_picks(canvas, ts, 0.0)
        assert fast.labels.max() > 255
        _assert_same_bytes(fast, slow)

    def test_one_transform_per_tile_and_template(self, monkeypatch):
        """Every tile goes through the real-input transform once per call,
        ``TILE_GROUP`` tiles at a time, and every other input it sees is a
        block of rows of the unpadded template stack, which together hold
        each template row once per call: template spectra are built once
        from pruned one-axis passes, and neither ``rfftn`` nor ``rfft2`` is
        called."""
        rng = np.random.default_rng(65)
        canvas = rng.standard_normal((300, 257))
        ts = _random_templates(8, 4, 66)
        inputs = []
        forward = np.fft.rfft

        def counting(a, *args, **kwargs):
            inputs.append(np.array(a, copy=True))
            return forward(a, *args, **kwargs)

        def padded(*args, **kwargs):
            raise AssertionError("a whole padded array is transformed")

        monkeypatch.setattr(np.fft, "rfft", counting)
        monkeypatch.setattr(np.fft, "rfftn", padded)
        monkeypatch.setattr(np.fft, "rfft2", padded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        pick_micrograph(canvas, ts, 2.0, source_id="f")
        edge, valid = picker.TILE_2D, picker.TILE_2D - 8 + 1
        wrapped = np.pad(canvas, [(0, 2 * valid + edge - 300), (0, 2 * valid + edge - 257)], mode="wrap")
        expected = [wrapped[r:r + edge, c:c + edge] for r in range(0, 300, valid) for c in range(0, 257, valid)]
        groups = [a for a in inputs if a.shape[1:] == (edge, edge)]
        assert sorted(len(a) for a in groups) == [1, picker.TILE_GROUP, picker.TILE_GROUP]
        assert sorted(t.tobytes() for a in groups for t in a) == sorted(t.tobytes() for t in expected)
        blocks = [a for a in inputs if a.shape[1:] != (edge, edge)]
        assert all(a.shape[0] == len(ts) and a.shape[2] == 8 for a in blocks)
        rows = sorted((k, row.tobytes()) for a in blocks for k, block in enumerate(a) for row in block)
        assert rows == sorted((k, row.tobytes()) for k, template in enumerate(ts) for row in template)


class TestSpectrum:
    """``_spectrum`` gives the bytes of ``rfftn`` of each array of a stack
    zero-padded to the dims, whatever the blocks its passes are cut in."""

    @pytest.mark.parametrize(
        "shape, dims",
        [
            ((4, 128, 128), (128, 128)),  # a 2D tile group
            ((2, 50, 40), (50, 40)),
            ((1, 20, 18, 16), (20, 18, 16)),  # a 3D canvas tile
            ((5, 16, 16), (128, 128)),  # the 2D template stack
            ((3, 5, 5), (37, 41)),
            ((2, 9, 9, 9), (9, 9, 9)),
            ((1, 16, 16), (256, 256)),  # one template
            ((1, 7, 7, 7), (35, 35, 35)),
        ],
    )
    def test_matches_padded_rfftn(self, shape, dims):
        rng = np.random.default_rng(67)
        stack = rng.standard_normal(shape)
        expected = []
        for array in stack:
            padded = np.zeros(dims)
            padded[tuple(slice(0, k) for k in shape[1:])] = array
            expected.append(np.fft.rfftn(padded))
        expected = np.stack(expected)
        # every padded entry and every block of lines must be written
        for split in (_splitter(1), _splitter(3)):
            out = np.full_like(expected, complex(np.nan, np.nan))
            assert _spectrum(stack, dims, out, split) is out
            assert out.tobytes() == expected.tobytes()


PICK_ARRAYS = ("scores", "positions", "labels", "patches")


def _seeded_field(dims, side, count):
    rng = np.random.default_rng(68)
    canvas = rng.standard_normal(dims)
    return canvas, external_templates(rng.standard_normal((count,) + (side,) * len(dims)))


def _pick_bytes(dims, side, count, threshold=2.0):
    """Pick a seeded noise field; returns the pick arrays as bytes and the
    number of threads this process would use."""
    picks = pick_micrograph(*_seeded_field(dims, side, count), threshold, source_id="f")
    return tuple(getattr(picks, name).tobytes() for name in PICK_ARRAYS), _worker_count(dims[0])


class TestThreadCountKeepsBytes:
    """``pick_micrograph`` gives the same bytes on one thread, on four, and
    in a worker process of a pool, all equal to the reference picker."""

    @pytest.mark.parametrize("dims, side", TestBitExactAgainstReference.SHAPES)
    def test_same_bytes(self, dims, side, monkeypatch):
        count = 5
        runs = {}
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            runs[cpus] = _pick_bytes(dims, side, count)
        monkeypatch.undo()
        with ProcessPoolExecutor(max_workers=1) as pool:
            runs["pool"] = pool.submit(_pick_bytes, dims, side, count).result(timeout=300)
        assert {key: threads for key, (_, threads) in runs.items()} == {1: 1, 4: 4, "pool": 1}
        slow = _reference_picks(*_seeded_field(dims, side, count), 2.0)
        assert len(slow) > 0
        expected = tuple(getattr(slow, name).tobytes() for name in PICK_ARRAYS)
        for key, (arrays, _) in runs.items():
            assert arrays == expected, key

    @pytest.mark.parametrize("dims, side", TestBitExactAgainstReference.SHAPES)
    def test_same_bytes_bottomless_threshold(self, dims, side, monkeypatch):
        count = 5
        runs = {}
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            runs[cpus] = _pick_bytes(dims, side, count, -np.inf)
        assert {key: threads for key, (_, threads) in runs.items()} == {1: 1, 4: 4}
        slow = _reference_picks(*_seeded_field(dims, side, count), -np.inf)
        expected = tuple(getattr(slow, name).tobytes() for name in PICK_ARRAYS)
        for key, (arrays, _) in runs.items():
            assert arrays == expected, key


    @pytest.mark.parametrize("dims, side", [((16, 16), 16), ((9, 9, 9), 9), ((37, 41), 5)])
    @pytest.mark.parametrize("cpus", [3, 16])
    def test_more_workers_than_lines(self, dims, side, cpus, monkeypatch):
        """Worker counts that leave some blocks of a pass empty, with merge
        chunks of the default size and of 100 pixels."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        canvas, templates = _seeded_field(dims, side, 5)
        for chunk in (picker.MERGE_CHUNK_ELEMENTS, 100):
            monkeypatch.setattr(picker, "MERGE_CHUNK_ELEMENTS", chunk)
            for threshold in (2.0, -np.inf):
                fast = pick_micrograph(canvas, templates, threshold, source_id="f")
                _assert_same_bytes(fast, _reference_picks(canvas, templates, threshold))
        expected = _reference_map(canvas, templates[0])
        assert correlation_map(canvas, templates[0]).tobytes() == expected.tobytes()

    def test_peak_memory_is_a_working_set_per_thread(self, monkeypatch):
        """5 templates at T 4.5, so there are few candidates: a 2D call
        holds no canvas-sized spectrum or map. On one thread the peak grows
        from 512^2 to 1024^2 by less than a quarter of one canvas-sized
        float64 map (the greedy stage's boolean mask is 1 B per pixel), and
        three more threads add at most one tile group's working set each."""
        rng = np.random.default_rng(74)
        ts = external_templates(rng.standard_normal((5, 16, 16)))
        peaks = {}
        for size in (512, 1024):
            canvas = rng.standard_normal((size, size))
            for cpus in (1, 4):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
                pick_micrograph(canvas, ts, 4.5, source_id="f")
                tracemalloc.start()
                try:
                    pick_micrograph(canvas, ts, 4.5, source_id="f")
                    _, peaks[size, cpus] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert peaks[1024, 1] - peaks[512, 1] < 2 * 1024 * 1024, peaks
        assert peaks[1024, 4] - peaks[1024, 1] < 3 * 4 * 1024 * 1024, peaks


class TestGreedyLoopChunks:
    """The greedy loop turns candidates into Python ints a bounded chunk at
    a time, so the bytes do not depend on the chunk size and the candidate
    list is not the call's peak memory at a bottomless threshold."""

    @pytest.mark.parametrize("dims, side", TestBitExactAgainstReference.SHAPES)
    def test_chunk_size_keeps_bytes(self, dims, side, monkeypatch):
        monkeypatch.setattr(picker, "GREEDY_CHUNK_ELEMENTS", 1000)
        rng = np.random.default_rng(70)
        canvas = rng.standard_normal(dims)
        ts = external_templates(rng.standard_normal((5,) + (side,) * len(dims)))
        fast = pick_micrograph(canvas, ts, -np.inf, source_id="f")
        _assert_same_bytes(fast, _reference_picks(canvas, ts, -np.inf))

    def test_peak_memory_bottomless_threshold(self):
        """512^2 with 5 templates at minus infinity: the peak stays below
        the 71.5 B per pixel that a whole-canvas ``.tolist()`` took."""
        rng = np.random.default_rng(71)
        canvas = rng.standard_normal((512, 512))
        ts = external_templates(rng.standard_normal((5, 16, 16)))
        pick_micrograph(canvas, ts, -np.inf, source_id="f")
        tracemalloc.start()
        try:
            pick_micrograph(canvas, ts, -np.inf, source_id="f")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / canvas.size < 64.0


class TestPoolWorkerPicksWithoutThreads:
    """Inside a worker process of a pool the maps are made in the calling
    thread: no thread pool is created, and the bytes still equal the
    reference picker's."""

    @pytest.mark.parametrize("dims, side", TestBitExactAgainstReference.SHAPES)
    def test_no_thread_pool(self, dims, side, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool worker must not start a thread pool")

        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        monkeypatch.setattr(picker, "ThreadPoolExecutor", no_pool)
        canvas, templates = _seeded_field(dims, side, 5)
        assert _worker_count(len(templates)) == 1
        fast = pick_micrograph(canvas, templates, 2.0, source_id="f")
        slow = _reference_picks(canvas, templates, 2.0)
        assert len(slow) > 0
        _assert_same_bytes(fast, slow)


class TestTilesKeepFullCanvasPicks:
    """2D tiles move scores by rounding only. On the seeds of the byte pins
    above, the positions, labels and patches are the full-canvas reference
    picker's and every score is within 1e-12 of its. The integer canvas
    with tied scores is left out: there, rounding decides which of two
    tied candidates comes first."""

    @pytest.mark.parametrize(
        "seed, dims, side, count, threshold",
        [
            (61, (256, 256), 16, 1, 3.0),
            (61, (256, 256), 16, 5, 3.0),
            (61, (256, 256), 16, 1, 0.0),
            (61, (256, 256), 16, 5, 0.0),
            (69, (256, 256), 16, 5, -np.inf),
            (68, (256, 256), 16, 5, 2.0),
            (68, (256, 256), 16, 5, -np.inf),
            (68, (16, 16), 16, 5, -np.inf),
            (68, (37, 41), 5, 5, 2.0),
            (70, (256, 256), 16, 5, -np.inf),
        ],
    )
    def test_same_picks_as_full_canvas(self, seed, dims, side, count, threshold):
        rng = np.random.default_rng(seed)
        canvas = rng.standard_normal(dims)
        ts = external_templates(rng.standard_normal((count, side, side)))
        fast = pick_micrograph(canvas, ts, threshold, source_id="f")
        assert len(fast) > 0
        _assert_full_canvas_picks(fast, canvas, ts, threshold)

    def test_more_than_255_templates(self):
        rng = np.random.default_rng(63)
        canvas = rng.standard_normal((40, 40))
        ts = _random_templates(6, 257, 64)
        canvas[10:16, 20:26] += 8.0 * ts[256]
        fast = pick_micrograph(canvas, ts, 0.0, source_id="f")
        assert fast.labels.max() > 255
        _assert_full_canvas_picks(fast, canvas, ts, 0.0)


class TestTileGeometry:
    """Overlap-save tiles at the edges of their geometry: canvases smaller
    than one tile, dims that are not a multiple of the valid width, the
    smallest side and a side equal to the canvas, and a non-contiguous
    canvas. Picks and maps equal the tiled reference byte for byte, and the
    picks equal the full-canvas reference's up to the rounding of scores."""

    @pytest.mark.parametrize(
        "dims, side, count",
        [((40, 40), 16, 3), ((16, 33), 5, 3), ((300, 257), 8, 5), ((64, 64), 1, 1),
         ((128, 128), 1, 1), ((24, 24), 24, 2), ((16, 33), 16, 2)],
    )
    def test_matches_references(self, dims, side, count):
        canvas, ts = _seeded_field(dims, side, count)
        for threshold in (1.5, -np.inf):
            fast = pick_micrograph(canvas, ts, threshold, source_id="f")
            assert len(fast) > 0
            _assert_same_bytes(fast, reference_tiled_pick_micrograph(canvas, ts, threshold, source_id="f"))
            _assert_full_canvas_picks(fast, canvas, ts, threshold)
        fast = correlation_map(canvas, ts[0])
        assert fast.tobytes() == reference_tiled_correlation_map(canvas, ts[0]).tobytes()
        np.testing.assert_allclose(fast, reference_correlation_map(canvas, ts[0]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims, side", [((300, 257), 8), ((20, 20, 20), 6)])
    def test_non_contiguous_canvas(self, dims, side):
        rng = np.random.default_rng(75)
        strided = tuple(slice(axis % 2, None, 2) for axis in range(len(dims)))
        canvas = rng.standard_normal(tuple(2 * k for k in dims[::-1])).T[strided]
        assert canvas.shape == dims and not canvas.flags.c_contiguous
        ts = external_templates(rng.standard_normal((3,) + (side,) * len(dims)))
        fast = pick_micrograph(canvas, ts, 1.5, source_id="f")
        assert len(fast) > 0
        _assert_same_bytes(fast, pick_micrograph(np.ascontiguousarray(canvas), ts, 1.5, source_id="f"))
        _assert_same_bytes(fast, _reference_picks(np.ascontiguousarray(canvas), ts, 1.5))

    @pytest.mark.parametrize(
        "flat, values",
        [([40000], [np.nan]), ([40000], [np.inf]), ([40000], [-np.inf]),
         # two halves of an overflowing sum in one tile, then in two tiles
         ([3, 260], [1e308, 1e308]), ([3, 38750], [1e308, 1e308])],
    )
    def test_non_finite_or_overflowing_canvas_raises(self, flat, values):
        canvas, ts = _seeded_field((300, 257), 8, 3)
        canvas.flat[flat] = values
        with pytest.raises(ArgumentError, match="canvas must be finite"):
            pick_micrograph(canvas, ts, 1.0, source_id="f")
        with pytest.raises(ArgumentError, match="canvas must be finite"):
            correlation_map(canvas, ts[0])


class TestPickRandom:
    def test_count_zero(self):
        field = gaussian_field((32, 32), NoiseSpec(sigma=1.0, seed=26))
        picks = pick_random(field, 8, 0, seed=27, source_id="f")
        assert len(picks) == 0
        assert picks.threshold == float("-inf")

    @pytest.mark.parametrize("dims", [(32, 32), (20, 20, 20)])
    def test_count_zero_gives_empty_stacks(self, dims):
        picks = pick_random(np.zeros(dims), 5, 0, seed=27, source_id="f")
        assert picks.patches.shape == (0,) + (5,) * len(dims)
        assert picks.positions.shape == (0, len(dims))

    def test_non_overlapping_and_inside(self):
        field = gaussian_field((64, 64), NoiseSpec(sigma=1.0, seed=28))
        picks = pick_random(field, 8, 20, seed=29, source_id="f")
        assert len(picks) == 20
        assert min_circular_linf(picks.positions, picks.canvas_dims) >= 8
        corners = picks.positions - 4
        assert corners.min() >= 0
        assert (corners + 8).max() <= 64

    def test_patches_match_canvas(self):
        canvas = gaussian_field((48, 48), NoiseSpec(sigma=1.0, seed=30))
        picks = pick_random(canvas, 6, 10, seed=31, source_id="f")
        for i in range(10):
            np.testing.assert_array_equal(
                picks.patches[i], wrapped_patch(canvas, picks.positions[i], 6)
            )

    def test_mean_patch_norm_vanishes(self):
        """Content-blind picks average to nearly zero; the norm of the mean
        obeys the central-limit bound 3 sigma sqrt(d / M)."""
        field = gaussian_field((1200, 1200), NoiseSpec(sigma=1.0, seed=32))
        count = 1000
        picks = pick_random(field, 16, count, seed=33, source_id="f")
        mean_patch = picks.patches.mean(axis=0)
        assert np.linalg.norm(mean_patch) <= 3.0 * np.sqrt(256.0 / count)

    def test_saturation(self):
        field = gaussian_field((10, 10), NoiseSpec(sigma=1.0, seed=34))
        with pytest.raises(SaturationError, match="at most 1 disjoint boxes"):
            pick_random(field, 10, 2, seed=35, source_id="f")

    def test_boxes_that_cannot_fit_fail_fast(self):
        """40 side-10 boxes on 36^3 exceed the 3^3 disjoint boxes that fit;
        the attempt budget would take seconds to run out."""
        canvas = np.zeros((36, 36, 36))
        start = time.perf_counter()
        with pytest.raises(SaturationError, match="at most 27 disjoint boxes"):
            pick_random(canvas, 10, 40, seed=35, source_id="f")
        assert time.perf_counter() - start < 0.5
        assert len(pick_random(canvas, 10, 8, seed=35, source_id="f")) == 8


class TestLabelSubsets:
    def test_single_template_is_identity(self):
        rng = np.random.default_rng(36)
        ts = _random_templates(6, 1, 37)
        picks = pick_iid(rng.standard_normal((500, 6, 6)), ts, 1.0)
        subsets = label_subsets(picks, ts, 1.0)
        assert len(subsets) == 1
        np.testing.assert_array_equal(subsets[0].patches, picks.patches)

    def test_shared_membership(self):
        """A patch aligned with the bisector of two orthogonal templates
        lands in both subsets when both inner products clear the bar."""
        ts = _basis_templates(4, 2)
        threshold = 2.0
        patch = (threshold + 1.0) * (ts[0] + ts[1]) / np.sqrt(2.0)
        picks = pick_iid(patch[None], ts, threshold)
        assert len(picks) == 1
        subsets = label_subsets(picks, ts, threshold)
        assert len(subsets[0]) == 1
        assert len(subsets[1]) == 1

    def test_subsets_match_direct_masks_and_cover(self):
        rng = np.random.default_rng(38)
        ts = _basis_templates(4, 3)
        picks = pick_iid(rng.standard_normal((3000, 4, 4)), ts, 1.2)
        subsets = label_subsets(picks, ts, 1.2)
        flat = picks.patches.reshape(len(picks), -1)
        covered = np.zeros(len(picks), dtype=bool)
        for ell, sub in enumerate(subsets):
            member = flat @ ts.templates[ell].reshape(-1) >= 1.2
            np.testing.assert_array_equal(sub.patches, picks.patches[member])
            covered |= member
        assert covered.all()

    def test_labeled_means_recover_templates(self):
        """Pure-noise picks conditioned on one template average to a scaled
        copy of it: high correlation and inner product at least the bar."""
        ts = _basis_templates(4, 3)
        threshold = 3.0
        total = 1_000_000
        chunk = 250_000
        rng = np.random.default_rng(39)
        parts = []
        for _ in range(total // chunk):
            candidates = rng.standard_normal((chunk, 4, 4))
            parts.append(pick_iid(candidates, ts, threshold))
        picks = PickSet.concat(parts)
        subsets = label_subsets(picks, ts, threshold)
        for ell, sub in enumerate(subsets):
            assert len(sub) > 800
            mean_patch = sub.patches.mean(axis=0)
            assert pcc(mean_patch, ts[ell]) >= 0.999
            assert float(np.vdot(mean_patch, ts[ell])) >= threshold


@st.composite
def _pick_layouts(draw):
    """Centres for an overlap check: small canvases, so boxes often wrap,
    and lattice spacings around the side, so sets land on both sides of
    the overlap boundary."""
    rank = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.lists(st.integers(1, 24), min_size=rank, max_size=rank)))
    side = draw(st.integers(1, 9))
    spacing = max(1, side + draw(st.integers(-1, 2)))
    count = draw(st.integers(0, 14))
    cells = draw(st.lists(st.integers(-3, 6), min_size=count * rank, max_size=count * rank))
    jitter = draw(st.lists(st.integers(-1, 1), min_size=count * rank, max_size=count * rank))
    offset = draw(st.integers(-40, 40))
    positions = (offset + spacing * np.array(cells, dtype=np.int64) + jitter).reshape(count, rank)
    sources = draw(st.lists(st.sampled_from(["", "a", "b"]), min_size=count, max_size=count))
    return positions, side, dims, np.array(sources, dtype=object)


class TestOverlapCheckAgainstReference:
    """``PickSet``'s centre-distance overlap check accepts and rejects the
    same sets as painting every box on a canvas mask, with the same
    message."""

    @staticmethod
    def _outcome(check, positions, side, dims, sources):
        try:
            check(positions, side, dims, sources)
        except ArgumentError as exc:
            return str(exc)
        return None

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(layout=_pick_layouts())
    def test_same_verdict(self, layout):
        positions, side, dims, sources = layout
        expected = self._outcome(reference_check_no_overlap, positions, side, dims, sources)
        assert self._outcome(PickSet._check_no_overlap, positions, side, dims, sources) == expected
        patches = np.zeros((len(positions),) + (side,) * len(dims))
        if expected is None:
            PickSet(patches=patches, scores=np.zeros(len(positions)), threshold=-1.0,
                    positions=positions, canvas_dims=dims, source_ids=sources)
        else:
            with pytest.raises(ArgumentError) as raised:
                PickSet(patches=patches, scores=np.zeros(len(positions)), threshold=-1.0,
                        positions=positions, canvas_dims=dims, source_ids=sources)
            assert str(raised.value) == expected

    def test_noise_picks_accepted(self):
        rng = np.random.default_rng(74)
        ts = external_templates(rng.standard_normal((3, 8, 8)))
        sets = [pick_micrograph(rng.standard_normal((128, 128)), ts, 0.0, source_id=f"f{k}")
                for k in range(3)]
        picks = PickSet.concat(sets)
        assert len(picks) > 300
        reference_check_no_overlap(picks.positions, picks.side, picks.canvas_dims, picks.source_ids)


class TestPickSetValidation:
    def test_rejects_score_below_threshold(self):
        with pytest.raises(ArgumentError):
            PickSet(patches=np.zeros((1, 4, 4)), scores=np.array([0.5]), threshold=1.0)

    def test_rejects_overlapping_positions(self):
        with pytest.raises(ArgumentError, match="overlap"):
            PickSet(
                patches=np.zeros((2, 4, 4)),
                scores=np.zeros(2),
                threshold=-1.0,
                positions=np.array([[8, 8], [9, 9]]),
                canvas_dims=(32, 32),
            )

    def test_wrapped_overlap_detected(self):
        """Boxes that only collide through the periodic border still count."""
        with pytest.raises(ArgumentError, match="overlap"):
            PickSet(
                patches=np.zeros((2, 8, 8)),
                scores=np.zeros(2),
                threshold=-1.0,
                positions=np.array([[2, 16], [30, 16]]),
                canvas_dims=(32, 32),
            )

    def test_distinct_sources_may_collide(self):
        PickSet(
            patches=np.zeros((2, 4, 4)),
            scores=np.zeros(2),
            threshold=-1.0,
            positions=np.array([[8, 8], [8, 8]]),
            canvas_dims=(32, 32),
            source_ids=np.array(["a", "b"], dtype=object),
        )

    def test_positions_require_canvas_dims(self):
        with pytest.raises(ArgumentError):
            PickSet(
                patches=np.zeros((1, 4, 4)),
                scores=np.zeros(1),
                threshold=-1.0,
                positions=np.array([[4, 4]]),
            )

    def test_rejects_nan_threshold_when_empty(self):
        with pytest.raises(ArgumentError, match="threshold"):
            PickSet(patches=np.empty((0, 4, 4)), scores=np.empty(0), threshold=float("nan"))

    def test_minus_infinity_threshold_accepted(self):
        field = gaussian_field((32, 32), NoiseSpec(sigma=1.0, seed=50))
        picks = pick_random(field, 6, 4, seed=51, source_id="f")
        assert picks.threshold == float("-inf")
        PickSet(patches=np.empty((0, 4, 4)), scores=np.empty(0), threshold=float("-inf"))

    def test_threshold_stored_as_float(self, tmp_path):
        picks = PickSet(patches=np.zeros((1, 4, 4)), scores=np.ones(1), threshold=np.float32(0.1))
        assert type(picks.threshold) is float
        save_picks(picks, tmp_path)
        assert b"threshold,0.10000000149011612\r\n" in (tmp_path / "picks.meta.csv").read_bytes()

    def test_concat_rejects_mixed_thresholds(self):
        a = PickSet(patches=np.zeros((1, 4, 4)), scores=np.zeros(1), threshold=-1.0)
        b = PickSet(patches=np.zeros((1, 4, 4)), scores=np.zeros(1), threshold=-2.0)
        with pytest.raises(ArgumentError):
            PickSet.concat([a, b])

    def test_concat_rejects_a_negative_limit(self):
        a = PickSet(patches=np.zeros((10, 4, 4)), scores=np.zeros(10), threshold=-1.0)
        with pytest.raises(ArgumentError, match="limit must be nonnegative"):
            PickSet.concat([a, a], limit=-3)
        assert len(PickSet.concat([a, a], limit=0)) == 0

    def test_concat_limit_equals_capped_subset(self, monkeypatch):
        """A limit cuts each part by its running count: the same bytes as
        capping the whole concatenation, with one overlap check per call."""
        ts = _random_templates(8, 2, 41)
        parts = [
            pick_micrograph(gaussian_field((48, 48), NoiseSpec(sigma=1.0, seed=s)), ts, 1.0,
                            source_id=f"m{s}")
            for s in (42, 43, 44)
        ]
        first, total = len(parts[0]), sum(len(p) for p in parts)
        whole = PickSet.concat(parts)
        checks = []
        original = PickSet._check_no_overlap
        monkeypatch.setattr(
            PickSet, "_check_no_overlap", staticmethod(lambda *a: checks.append(1) or original(*a))
        )
        for limit in (0, 1, first, first + 1, total - 1, total, total + 5):
            expected = whole.subset(np.arange(min(limit, total)))
            checks.clear()
            capped = PickSet.concat(parts, limit=limit)
            assert len(checks) == 1
            assert capped.source_ids.tolist() == expected.source_ids.tolist()
            for name in PICK_ARRAYS:
                assert getattr(capped, name).tobytes() == getattr(expected, name).tobytes(), name


class TestPickSerialization:
    def test_micrograph_roundtrip(self, tmp_path):
        field = gaussian_field((48, 48), NoiseSpec(sigma=1.0, seed=40))
        ts = _random_templates(8, 2, 41)
        picks = pick_micrograph(field, ts, 1.2, source_id="m0")
        assert len(picks) > 0
        save_picks(picks, tmp_path)
        back = load_picks(tmp_path)
        assert back.threshold == picks.threshold
        assert back.canvas_dims == picks.canvas_dims
        np.testing.assert_array_equal(back.scores, picks.scores)
        np.testing.assert_array_equal(back.labels, picks.labels)
        np.testing.assert_array_equal(back.positions, picks.positions)
        assert list(back.source_ids) == list(picks.source_ids)
        np.testing.assert_allclose(back.patches, picks.patches, atol=1e-5)

    def test_iid_roundtrip_without_positions(self, tmp_path):
        rng = np.random.default_rng(42)
        ts = _random_templates(6, 2, 43)
        picks = pick_iid(rng.standard_normal((300, 6, 6)), ts, 1.0, source_id="batch")
        save_picks(picks, tmp_path, name="iid")
        back = load_picks(tmp_path, name="iid")
        assert back.positions is None
        np.testing.assert_array_equal(back.scores, picks.scores)

    def test_empty_roundtrip(self, tmp_path):
        ts = _random_templates(8, 1, 44)
        picks = pick_micrograph(np.zeros((16, 16)), ts, 1.0, source_id="f")
        save_picks(picks, tmp_path, name="none")
        back = load_picks(tmp_path, name="none")
        assert len(back) == 0
        assert back.threshold == 1.0
        assert not (tmp_path / "none.sfn").exists()

    @pytest.mark.parametrize("dims", [(32, 32), (24, 24, 24)])
    def test_empty_roundtrip_keeps_the_patch_side(self, tmp_path, dims):
        """An empty set loads with its own patch dims, so it still
        concatenates with non-empty picks of that side."""
        canvas = np.random.default_rng(47).standard_normal(dims)
        empty = pick_random(canvas, 8, 0, seed=48, source_id="f0")
        save_picks(empty, tmp_path)
        back = load_picks(tmp_path)
        assert back.patches.shape == (0,) + (8,) * len(dims)
        full = pick_random(canvas, 8, 2, seed=49, source_id="f1")
        joined = PickSet.concat([back, full])
        assert joined.patches.tobytes() == full.patches.tobytes()

    @pytest.mark.parametrize("side", [b"-1", b"10000000000"])
    def test_impossible_patch_side_in_meta_rejected(self, tmp_path, side):
        """A negative side, or one whose empty stack numpy cannot shape."""
        save_picks(pick_random(np.zeros((32, 32, 32)), 8, 0, seed=48, source_id="f"), tmp_path)
        meta = tmp_path / "picks.meta.csv"
        text = meta.read_bytes()
        assert b"patch_side,8\r\n" in text
        meta.write_bytes(text.replace(b"patch_side,8\r\n", b"patch_side," + side + b"\r\n"))
        with pytest.raises(ArgumentError, match="picks.meta.csv: malformed value") as raised:
            load_picks(tmp_path)
        assert raised.value.exit_code == 2

    def test_recorded_side_must_match_the_stack(self, tmp_path):
        canvas = np.random.default_rng(50).standard_normal((32, 32))
        save_picks(pick_random(canvas, 8, 3, seed=51, source_id="f"), tmp_path)
        meta = tmp_path / "picks.meta.csv"
        meta.write_bytes(meta.read_bytes().replace(b"patch_side,8\r\n", b"patch_side,5\r\n"))
        with pytest.raises(ArgumentError, match="side 5"):
            load_picks(tmp_path)

    def test_nan_threshold_in_meta_rejected(self, tmp_path):
        ts = _random_templates(8, 1, 44)
        save_picks(pick_micrograph(np.zeros((16, 16)), ts, 1.0, source_id="f"), tmp_path)
        meta = tmp_path / "picks.meta.csv"
        text = meta.read_bytes()
        assert b"threshold,1\r\n" in text
        meta.write_bytes(text.replace(b"threshold,1\r\n", b"threshold,nan\r\n"))
        with pytest.raises(ArgumentError, match="threshold"):
            load_picks(tmp_path)

    def test_saves_byte_identical(self, tmp_path):
        field = gaussian_field((32, 32), NoiseSpec(sigma=1.0, seed=45))
        ts = _random_templates(8, 1, 46)
        picks = pick_micrograph(field, ts, 1.0, source_id="m1")
        save_picks(picks, tmp_path / "a")
        save_picks(picks, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@large
def test_full_scale_pure_noise_yield():
    """1000 pure-noise micrographs at production scale yield roughly
    seventy thousand picks.

    Smooth templates produce smooth correlation maps, so threshold
    crossings arrive in clumps and each local maximum paints out its
    neighbours; the yield sits far below the per-pixel tail rate.
    """
    ts = make_projection_templates(blob_volume(48), 20, seed=47)
    total = 0
    for index in range(1000):
        field = gaussian_field((2048, 2048), NoiseSpec(sigma=1.0, seed=48, stream=index))
        picks = pick_micrograph(field, ts, 3.8, source_id=f"m{index:04d}")
        total += len(picks)
    assert 4e4 <= total <= 1.2e5
