"""Tests for correlation, shell correlation, matching, and scaling fits."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fixtures import blob_volume, unit_frobenius
from oracles import rotation_angle
from sfn import metrics
from sfn.errors import ArgumentError, ShapeError, UndefinedCorrelationError
from sfn.metrics import (
    FSC_SHELLS,
    BiasReport,
    FscCurve,
    best_rotation_pcc,
    complexity_probe,
    fsc,
    fsc_resolution,
    match_classes,
    max_assignment,
    mean_fsc_below,
    pcc,
)
from sfn.tensors import RotationGrid, rotate_volume, sample_rotation_grid


class TestPcc:
    def test_hand_computed(self):
        """2x2 case worked by hand: centered dot 3, norms sqrt(5) each."""
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[2.0, 1.0], [4.0, 3.0]])
        np.testing.assert_allclose(pcc(a, b), 0.6, rtol=1e-15)

    def test_self_and_negated(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        np.testing.assert_allclose(pcc(a, a), 1.0, rtol=1e-12)
        np.testing.assert_allclose(pcc(a, -a), -1.0, rtol=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        np.testing.assert_allclose(pcc(2.5 * a + 3.0, a), 1.0, rtol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        np.testing.assert_allclose(pcc(a, b), pcc(b, a), rtol=1e-14)

    def test_constant_input_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            pcc(np.ones(9), np.arange(9.0))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pcc(np.ones(4), np.ones(5))


class TestFsc:
    def test_identical_volumes(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((16, 16, 16))
        curve = fsc(v, v)
        assert curve.correlations.shape == curve.radii.shape == (FSC_SHELLS,)
        filled = curve.counts > 0
        np.testing.assert_allclose(curve.correlations[filled], 1.0, atol=1e-12)

    def test_dc_shell_isolated(self):
        """Shell 0 is the DC coefficient alone, so equal nonzero means
        give correlation exactly 1 there regardless of the rest."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12, 12)) + 5.0
        b = rng.standard_normal((12, 12, 12)) + 5.0
        curve = fsc(a, b)
        assert curve.counts[0] == 1
        np.testing.assert_allclose(curve.correlations[0], 1.0, atol=1e-12)

    def test_independent_noise_shells_small(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((32, 32, 32))
        b = rng.standard_normal((32, 32, 32))
        curve = fsc(a, b)
        for corr, count in zip(curve.correlations[1:], curve.counts[1:]):
            assert abs(corr) <= 3.0 / np.sqrt(count)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((10, 10, 10))
        curve = fsc(v, 4.0 * v + 0.0)
        filled = curve.counts > 0
        np.testing.assert_allclose(curve.correlations[filled], 1.0, atol=1e-12)

    def test_lowpassed_counterpart_keeps_passband(self):
        rng = np.random.default_rng(8)
        n = 16
        a = rng.standard_normal((n, n, n))
        fa = np.fft.fftn(a)
        freqs = np.fft.fftfreq(n)
        radius = np.sqrt(sum(f ** 2 for f in np.meshgrid(freqs, freqs, freqs, indexing="ij")))
        b = np.fft.ifftn(np.where(radius <= 0.25, fa, 0.0)).real
        curve = fsc(a, b)
        low = curve.radii < 0.25 - 0.5 * (0.5 / 8)
        np.testing.assert_allclose(curve.correlations[low], 1.0, atol=1e-9)

    def test_zero_volume_reads_zero(self):
        """Empty spectra leave every shell at the zero-denominator value."""
        rng = np.random.default_rng(18)
        a = rng.standard_normal((8, 8, 8))
        curve = fsc(a, np.zeros((8, 8, 8)))
        np.testing.assert_array_equal(curve.correlations, 0.0)
        assert curve.counts[0] == 1

    def test_rejects_non_cubic(self):
        with pytest.raises(ShapeError):
            fsc(np.zeros((4, 4, 5)), np.zeros((4, 4, 5)))


class TestFscResolution:
    def _curve(self, correlations):
        k = len(correlations)
        width = 0.5 / (k - 1)
        radii = np.concatenate(([0.0], (np.arange(1, k) - 0.5) * width))
        return FscCurve(
            radii=radii,
            correlations=np.asarray(correlations, dtype=np.float64),
            counts=np.ones(k, dtype=np.int64),
        )

    def test_linear_interpolation(self):
        curve = self._curve([1.0, 0.9, 0.5, 0.1, 0.0])
        # crossing 0.143 between shells at radii 0.1875 and 0.3125
        frac = (0.5 - 0.143) / (0.5 - 0.1)
        expected = 1.0 / (0.1875 + frac * 0.125)
        np.testing.assert_allclose(fsc_resolution(curve), expected, rtol=1e-12)

    def test_never_crossing_hits_nyquist_sentinel(self):
        curve = self._curve([1.0, 0.99, 0.98, 0.97, 0.96])
        with pytest.warns(UserWarning):
            assert fsc_resolution(curve) == 2.0

    def test_immediately_below(self):
        curve = self._curve([0.05, 0.04, 0.03, 0.02, 0.01])
        np.testing.assert_allclose(fsc_resolution(curve), 1.0 / curve.radii[1])

    def test_mean_below_frequency_excludes_dc(self):
        curve = self._curve([1.0, 0.8, 0.6, 0.2, 0.0])
        np.testing.assert_allclose(mean_fsc_below(curve), 0.7)


class TestMatchClasses:
    def test_identity_match(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((4, 6, 6))
        stack = np.stack([unit_frobenius(t) for t in stack])
        report = match_classes(stack.copy(), stack, threshold=1.0)
        np.testing.assert_array_equal(report.permutation, np.arange(4))
        np.testing.assert_allclose(report.per_class_pcc, 1.0, atol=1e-12)
        np.testing.assert_allclose(report.scaled_errors, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.alphas, 1.0, atol=1e-12)

    def test_recovers_permutation_and_scale(self):
        rng = np.random.default_rng(10)
        stack = np.stack([unit_frobenius(t) for t in rng.standard_normal((5, 8, 8))])
        perm = np.array([3, 0, 4, 1, 2])
        means = 3.0 * stack[perm] + 0.01 * rng.standard_normal((5, 8, 8))
        report = match_classes(means, stack, threshold=3.0)
        # template ell should match the mean built from it: means[j] = 3 x_{perm[j]}
        for j in range(5):
            assert report.permutation[perm[j]] == j
        assert report.mean_pcc >= 0.99
        np.testing.assert_allclose(report.alphas, 3.0, atol=0.05)
        assert report.scaled_errors.max() <= 0.01

    def test_csv_header_stable(self):
        report = BiasReport(
            permutation=np.array([0]),
            per_class_pcc=np.array([1.0]),
            mean_pcc=1.0,
            scaled_errors=np.array([0.0]),
            alphas=np.array([1.0]),
        )
        assert report.to_csv_text().splitlines()[0] == "template,matched_mean,pcc,scaled_error,alpha"

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            match_classes(np.zeros((2, 4)), np.zeros((3, 4)))


def _scipy_columns(score):
    return linear_sum_assignment(score, maximize=True)[1]


class TestMaxAssignment:
    """The in-package Hungarian method picks scipy's assignment, ties included."""

    @pytest.mark.parametrize("kind", ["normal", "small_integers", "tenths"])
    def test_equals_scipy_on_random_matrices(self, kind):
        """400 matrices per kind, K = 1-30; the integer kinds are full of
        equally good assignments, which only the shared tie rule settles."""
        rng = np.random.default_rng({"normal": 1, "small_integers": 2, "tenths": 3}[kind])
        for _ in range(400):
            k = int(rng.integers(1, 31))
            if kind == "normal":
                score = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-3, 3)
            elif kind == "small_integers":
                score = rng.integers(0, 3, (k, k)).astype(np.float64)
            else:
                score = rng.integers(-2, 3, (k, k)) * 0.1
            np.testing.assert_array_equal(max_assignment(score), _scipy_columns(score))

    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_constant_matrix_gives_identity(self, k):
        np.testing.assert_array_equal(max_assignment(np.zeros((k, k))), np.arange(k))
        np.testing.assert_array_equal(_scipy_columns(np.zeros((k, k))), np.arange(k))

    def test_match_classes_permutation_equals_scipy_derived(self):
        """200 reports on noisy permuted templates: the permutation is the
        inverse of scipy's column assignment on the PCC matrix."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(1, 13))
            stack = rng.standard_normal((k, 6, 6))
            means = stack[rng.permutation(k)] + rng.uniform(0.1, 3.0) * rng.standard_normal((k, 6, 6))
            report = match_classes(means, stack)
            score = np.array([[pcc(m, t) for t in stack] for m in means])
            expected = np.empty(k, dtype=np.int64)
            expected[_scipy_columns(score)] = np.arange(k)
            np.testing.assert_array_equal(report.permutation, expected)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            max_assignment(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        score = np.eye(3)
        score[1, 2] = bad
        with pytest.raises(ArgumentError):
            max_assignment(score)


class TestComplexityProbe:
    def test_exact_law(self):
        """Constructed mse = c * d / m recovers slopes (-1, +1) to 1e-6."""
        rows = []
        for m in (1_000, 10_000, 100_000):
            rows.append((m, 64, 7.3 * 64 / m))
        for d in (256, 1024):
            rows.append((10_000, d, 7.3 * d / 10_000))
        fit = complexity_probe(rows)
        np.testing.assert_allclose(fit.slope_samples, -1.0, atol=1e-6)
        np.testing.assert_allclose(fit.slope_dimension, 1.0, atol=1e-6)
        assert fit.fixed_dimension == 64
        assert fit.fixed_samples == 10_000

    def test_insufficient_points(self):
        with pytest.raises(ArgumentError):
            complexity_probe([(100, 64, 1.0), (1000, 64, 0.1), (100, 128, 2.0)])

    def test_rejects_nonpositive_mse(self):
        with pytest.raises(ArgumentError):
            complexity_probe([(10, 2, 0.0), (100, 2, 1.0), (1000, 2, 1.0)])


class TestBestRotationPcc:
    def test_recovers_planted_rotation(self):
        vol = blob_volume(16)
        grid = sample_rotation_grid(12, 21)
        target = grid[7]
        rotated = rotate_volume(vol, target)
        corr, found = best_rotation_pcc(rotated, vol, grid)
        assert corr >= 0.97
        assert rotation_angle(found, target) <= 0.25

    def test_identity_short_circuit(self, monkeypatch):
        monkeypatch.setattr(metrics, "REFINE_STEPS", 0)
        vol = blob_volume(12)
        corr, found = best_rotation_pcc(vol, vol, RotationGrid.identity())
        np.testing.assert_allclose(corr, 1.0, atol=1e-12)
        np.testing.assert_allclose(found.as_matrix(), np.eye(3), atol=1e-15)
