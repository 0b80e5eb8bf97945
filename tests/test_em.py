"""Tests for labeled means and the two EM estimators."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp

from fixtures import blob_volume
from oracles import (
    EmptyClassError,
    labeled_class_means,
    reference_em_classify2d,
    reference_em_reconstruct3d,
)
import sfn
from sfn import em, metrics
from sfn.em import (
    TRACE_TOL,
    Gmm2dConfig,
    Gmm2dState,
    Recon3dConfig,
    Recon3dState,
    em_classify2d,
    _fit,
    em_reconstruct3d,
    load_gmm_state,
    load_recon_state,
    save_gmm_state,
    save_recon_state,
)
from sfn.errors import (
    ArgumentError,
    DegenerateDataError,
)
from sfn.metrics import best_rotation_pcc, match_classes, pcc
from sfn.picker import PickSet
from sfn.rng import STREAM_EM_INIT, generator
from sfn.tensors import RotationGrid, rotate_volume, sample_rotation_grid
from sfn.templates import external_templates, make_rotation_templates
from sfn.truncgauss import (
    TruncMixture,
    TruncSpec,
    sample_component,
    sample_mixture,
    trunc_mean,
)

# The arrays of a fitted ``Gmm2dState``.
GMM_ARRAYS = ("means", "class_totals", "log_likelihoods")


def _basis_stack(side, count):
    stack = np.zeros((count, side, side))
    for i in range(count):
        stack[i, 0, i] = 1.0
    return stack


def _component_pickset(template, threshold, count, seed):
    samples = sample_component(template, TruncSpec(1.0, threshold), count, seed)
    scores = samples.reshape(count, -1) @ template.reshape(-1)
    return PickSet(patches=samples, scores=scores, threshold=float(threshold))


class TestLabeledClassMeans:
    def test_single_patch_subset(self):
        patch = np.arange(16.0).reshape(4, 4)
        picks = PickSet(patches=patch[None], scores=np.array([100.0]), threshold=0.0)
        means = labeled_class_means([picks])
        np.testing.assert_array_equal(means[0], patch)

    def test_empty_subset_raises(self):
        empty = PickSet(patches=np.empty((0, 4, 4)), scores=np.empty(0), threshold=0.0)
        with pytest.raises(EmptyClassError):
            labeled_class_means([empty])

    def test_mean_norm_ratio_shrinks_with_threshold(self):
        """The labeled mean's length per threshold unit approaches 1 from
        above as the bar rises."""
        template = _basis_stack(16, 1)[0]
        picks3 = _component_pickset(template, 3.0, 20_000, seed=50)
        picks6 = _component_pickset(template, 6.0, 20_000, seed=51)
        mean3, mean6 = labeled_class_means([picks3, picks6])
        ratio3 = np.linalg.norm(mean3) / 3.0
        ratio6 = np.linalg.norm(mean6) / 6.0
        assert 1.0 <= ratio3 <= 1.4
        assert 1.0 <= ratio6 <= 1.05
        assert ratio6 < ratio3

    def test_mean_matches_truncated_moment(self):
        template = _basis_stack(16, 1)[0]
        count = 20_000
        picks = _component_pickset(template, 3.0, count, seed=52)
        mean = labeled_class_means([picks])[0]
        along = float(np.vdot(mean, template))
        expected = trunc_mean(TruncSpec(1.0, 3.0))
        assert abs(along - expected) <= 4.0 * 0.27 / np.sqrt(count)
        orth = mean - along * template
        bound = (np.sqrt(255.0) + 4.0 / np.sqrt(2.0)) / np.sqrt(count)
        assert np.linalg.norm(orth) <= bound


class TestGmmConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ArgumentError):
            Gmm2dConfig(class_count=0)
        with pytest.raises(ArgumentError):
            Gmm2dConfig(class_count=1, sigma=0.0)
        with pytest.raises(ArgumentError):
            Gmm2dConfig(class_count=1, rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [np.nan, np.inf])
    def test_rejects_non_finite_rel_tol(self, rel_tol):
        with pytest.raises(ArgumentError, match="rel_tol"):
            Gmm2dConfig(class_count=1, rel_tol=rel_tol)

    def test_state_rejects_decreasing_trace(self):
        with pytest.raises(ArgumentError, match="decreased"):
            Gmm2dState(
                means=np.zeros((1, 2, 2)),
                log_likelihoods=np.array([-10.0, -20.0]),
                class_totals=np.array([5.0]),
                converged=True,
            )

    @pytest.mark.parametrize("totals", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 2.0])
    def test_state_needs_one_class_total_per_class(self, totals):
        with pytest.raises(ArgumentError, match="one class total per class"):
            Gmm2dState(
                means=np.zeros((2, 2, 2)),
                log_likelihoods=np.array([-10.0]),
                class_totals=np.array(totals),
                converged=True,
            )

    @pytest.mark.parametrize(
        "totals, trace",
        [([np.nan, np.nan], [-10.0]), ([np.inf, 0.0], [-10.0]), ([-1.0, 3.0], [-10.0]),
         ([0.5, 0.5], [-10.0, np.nan])],
    )
    def test_state_rejects_non_finite_values(self, totals, trace):
        with pytest.raises(ArgumentError, match="finite"):
            Gmm2dState(
                means=np.zeros((2, 2, 2)),
                log_likelihoods=np.array(trace),
                class_totals=np.array(totals),
                converged=True,
            )


class TestEmClassify2d:
    def test_single_class_is_sample_mean(self):
        rng = np.random.default_rng(53)
        patches = rng.standard_normal((50, 6, 6))
        state = em_classify2d(patches, Gmm2dConfig(class_count=1, seed=1))
        np.testing.assert_allclose(state.means[0], patches.mean(axis=0), atol=1e-12)
        assert state.converged

    def test_too_few_patches(self):
        with pytest.raises(ArgumentError):
            em_classify2d(np.zeros((2, 4, 4)), Gmm2dConfig(class_count=3))

    def test_identical_patches_degenerate(self):
        patches = np.ones((10, 4, 4))
        with pytest.raises(DegenerateDataError):
            em_classify2d(patches, Gmm2dConfig(class_count=2))

    def test_well_specified_mixture_recovered(self):
        """Separated Gaussian blobs: every true mean is found to within a
        few standard errors of the per-class sample mean."""
        rng = np.random.default_rng(54)
        truth = 10.0 * _basis_stack(4, 3)
        labels = rng.integers(0, 3, size=10_000)
        patches = truth[labels] + rng.standard_normal((10_000, 4, 4))
        state = em_classify2d(patches, Gmm2dConfig(class_count=3, sigma=1.0, seed=2))
        assert state.converged
        for ell in range(3):
            scores = [pcc(mean, truth[ell]) for mean in state.means]
            fitted = state.means[int(np.argmax(scores))]
            assert np.linalg.norm(fitted - truth[ell]) <= 5.0 / np.sqrt(10_000 / 3)

    def test_truncated_mixture_biases_toward_templates(self):
        """Fitting the plain mixture to threshold-conditioned data lands
        the class means close to scaled copies of the templates."""
        templates = external_templates(_basis_stack(16, 3))
        threshold = 5.0
        mixture = TruncMixture(TruncSpec(1.0, threshold), templates)
        samples, _ = sample_mixture(mixture, 15_000, seed=55)
        state = em_classify2d(samples, Gmm2dConfig(class_count=3, sigma=1.0, seed=3, restarts=2))
        report = match_classes(state.means, templates, threshold=threshold)
        assert report.mean_pcc >= 0.95
        scaled_distance = np.sqrt(report.scaled_errors) / threshold
        assert scaled_distance.max() <= 0.15

    def test_within_class_scores_stay_truncated(self):
        """The fitted classes inherit the truncated score law, not the
        postulated zero-mean one."""
        templates = external_templates(_basis_stack(16, 3))
        threshold = 5.0
        mixture = TruncMixture(TruncSpec(1.0, threshold), templates)
        samples, _ = sample_mixture(mixture, 15_000, seed=56)
        state = em_classify2d(samples, Gmm2dConfig(class_count=3, sigma=1.0, seed=4, restarts=2))
        report = match_classes(state.means, templates, threshold=threshold)
        flat = samples.reshape(len(samples), -1)
        expected = trunc_mean(TruncSpec(1.0, threshold))
        for ell in range(3):
            fitted = state.means[report.permutation[ell]].reshape(-1)
            assigned = np.argmin(
                ((flat[:, None, :] - state.means.reshape(3, 1, -1).swapaxes(0, 1)) ** 2).sum(axis=2),
                axis=1,
            )
            member = assigned == report.permutation[ell]
            scores = flat[member] @ templates[ell].reshape(-1)
            assert abs(scores.mean() - expected) <= 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(58)
        patches = rng.standard_normal((500, 5, 5))
        config = Gmm2dConfig(class_count=2, seed=6)
        a = em_classify2d(patches, config)
        b = em_classify2d(patches, config)
        assert a.means.tobytes() == b.means.tobytes()
        np.testing.assert_array_equal(a.log_likelihoods, b.log_likelihoods)

    def test_trace_monotone(self):
        rng = np.random.default_rng(59)
        patches = rng.standard_normal((800, 4, 4)) + 2.0
        state = em_classify2d(patches, Gmm2dConfig(class_count=3, seed=7))
        diffs = np.diff(state.log_likelihoods)
        assert diffs.min() >= -1e-9 * max(1.0, abs(state.log_likelihoods[-1]))


class TestEmReconstruct3d:
    def test_identity_grid_noiseless(self):
        volume = blob_volume(8)
        patches = np.repeat(volume[None], 20, axis=0)
        config = Recon3dConfig(grid=RotationGrid.identity(), sigma=1.0, seed=8)
        state = em_reconstruct3d(patches, config)
        np.testing.assert_allclose(state.volume, volume, atol=1e-12)
        assert state.converged

    def test_well_specified_rotations(self, monkeypatch):
        """Patches that really are rotated noisy copies reproduce the
        volume up to a grid rotation."""
        volume = blob_volume(16)
        grid = sample_rotation_grid(6, seed=60)
        rng = np.random.default_rng(61)
        assignments = rng.integers(0, 6, size=2000)
        patches = np.stack(
            [rotate_volume(volume, grid[n]) for n in range(6)]
        )[assignments] + 0.05 * rng.standard_normal((2000, 16, 16, 16))
        config = Recon3dConfig(grid=grid, sigma=0.2, seed=9, restarts=4, max_iters=80)
        state = em_reconstruct3d(patches, config)
        # Gauge freedom spans the grid and the identity, which
        # best_rotation_pcc scans first: the scan alone must find it.
        monkeypatch.setattr(metrics, "REFINE_STEPS", 0)
        corr, _ = best_rotation_pcc(state.volume, volume, grid)
        assert corr >= 0.99

    def test_aligned_grid_beats_mismatched_grid(self):
        """Reconstructing threshold-conditioned noise with the template
        grid correlates better with the source volume than using an
        unrelated grid, though both stay well above chance."""
        volume = blob_volume(12)
        templates = make_rotation_templates(volume, 8, seed=62)
        mixture = TruncMixture(TruncSpec(1.0, 3.5), templates)
        samples, _ = sample_mixture(mixture, 4000, seed=63)
        aligned = em_reconstruct3d(
            samples,
            Recon3dConfig(grid=templates.grid, sigma=1.0, seed=10, max_iters=60),
        )
        other_grid = sample_rotation_grid(8, seed=999)
        mismatched = em_reconstruct3d(
            samples,
            Recon3dConfig(grid=other_grid, sigma=1.0, seed=10, max_iters=60),
        )
        probe = sample_rotation_grid(40, seed=64)
        aligned_pcc, _ = best_rotation_pcc(aligned.volume, volume, probe)
        mismatched_pcc, _ = best_rotation_pcc(mismatched.volume, volume, probe)
        assert mismatched_pcc >= 0.5
        assert aligned_pcc > mismatched_pcc

    def test_no_patches(self):
        config = Recon3dConfig(grid=RotationGrid.identity())
        with pytest.raises(ArgumentError):
            em_reconstruct3d(np.empty((0, 4, 4, 4)), config)

    def test_empty_grid(self):
        with pytest.raises(ArgumentError):
            Recon3dConfig(grid=RotationGrid(np.empty((0, 4)), seed=-1))

    @pytest.mark.parametrize("rel_tol", [np.nan, np.inf])
    def test_rejects_non_finite_rel_tol(self, rel_tol):
        with pytest.raises(ArgumentError, match="rel_tol"):
            Recon3dConfig(grid=RotationGrid.identity(), rel_tol=rel_tol)

    def test_state_rejects_decreasing_trace(self):
        with pytest.raises(ArgumentError, match="decreased"):
            Recon3dState(
                volume=np.zeros((4, 4, 4)),
                log_likelihoods=np.array([-5.0, -6.0]),
                converged=True,
            )

    @pytest.mark.parametrize("trace", [[np.nan], [-5.0, np.nan], [-np.inf, -5.0]])
    def test_state_rejects_non_finite_trace(self, trace):
        with pytest.raises(ArgumentError, match="finite"):
            Recon3dState(volume=np.zeros((4, 4, 4)), log_likelihoods=np.array(trace), converged=True)

    def test_deterministic(self):
        rng = np.random.default_rng(65)
        patches = rng.standard_normal((40, 6, 6, 6))
        grid = sample_rotation_grid(3, seed=66)
        config = Recon3dConfig(grid=grid, seed=12, max_iters=10)
        a = em_reconstruct3d(patches, config)
        b = em_reconstruct3d(patches, config)
        assert a.volume.tobytes() == b.volume.tobytes()


class TestFitLoop:
    """``_fit`` is the one EM loop of both estimators."""

    def test_rejected_step_returns_previous_parameters(self):
        """A stub single-mean model whose second update moves the mean far
        from the data: the fit stops at the first update's mean, converged,
        and the lowered likelihood never enters the trace."""
        flat = np.random.default_rng(3).standard_normal((50, 3)) + 2.0
        config = SimpleNamespace(restarts=1, seed=0, max_iters=10, rel_tol=1e-12, sigma=1.0)
        updates = []

        def update(mean, resp, sums):
            updates.append(mean)
            return flat.mean(axis=0) if len(updates) == 1 else mean + 10.0

        state = _fit(
            flat,
            config,
            1,
            lambda rng: np.zeros(3),
            lambda mean: mean[None, :],
            update,
            lambda mean, trace, converged: SimpleNamespace(
                mean=mean, log_likelihoods=trace, converged=converged
            ),
        )
        assert len(updates) == 2
        assert state.mean.tobytes() == flat.mean(axis=0).tobytes()
        assert state.converged
        trace = state.log_likelihoods
        assert len(trace) == 2 and trace[1] > trace[0]
        floor = trace[:-1] - TRACE_TOL * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(trace[1:] >= floor)

    def test_best_restart_needs_strictly_higher_likelihood(self):
        """Restarts that end on the same likelihood keep the first."""
        flat = np.random.default_rng(4).standard_normal((20, 2))
        config = SimpleNamespace(restarts=3, seed=0, max_iters=5, rel_tol=1e-8, sigma=1.0)
        state = _fit(
            flat,
            config,
            1,
            lambda rng: rng.integers(1 << 30),
            lambda tag: np.zeros((1, 2)),
            lambda tag, resp, sums: tag,
            lambda tag, trace, converged: SimpleNamespace(
                tag=tag, log_likelihoods=trace, converged=converged
            ),
        )
        assert state.converged and len(state.log_likelihoods) == 2
        assert state.tag == generator(0, STREAM_EM_INIT).integers(1 << 30)

    def test_restarts_step_in_lockstep(self):
        """A stub two-mean mixture: every iteration steps each running
        restart once, in restart order, before any restart steps again."""
        flat = np.random.default_rng(5).standard_normal((40, 2)) + [[4.0, 0.0]]
        config = SimpleNamespace(restarts=3, seed=0, max_iters=4, rel_tol=1e-300, sigma=1.0)
        tags = iter(range(config.restarts))
        order = []

        def update(params, resp, sums):
            tag, _ = params
            order.append(tag)
            return tag, sums / resp.sum(axis=0)[:, None]

        _fit(
            flat,
            config,
            2,
            lambda rng: (next(tags), rng.standard_normal((2, 2))),
            lambda params: params[1],
            update,
            lambda params, trace, converged: SimpleNamespace(log_likelihoods=trace),
        )
        assert order == [0, 1, 2] * config.max_iters


class TestStateSerialization:
    def test_gmm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(67)
        patches = rng.standard_normal((300, 4, 4))
        state = em_classify2d(patches, Gmm2dConfig(class_count=2, seed=13))
        save_gmm_state(state, tmp_path)
        back = load_gmm_state(tmp_path)
        np.testing.assert_allclose(back.means, state.means, atol=1e-5)
        np.testing.assert_array_equal(back.class_totals, state.class_totals)
        np.testing.assert_array_equal(back.log_likelihoods, state.log_likelihoods)
        assert back.converged == state.converged

    def test_recon_roundtrip(self, tmp_path):
        rng = np.random.default_rng(68)
        patches = rng.standard_normal((30, 5, 5, 5))
        grid = sample_rotation_grid(2, seed=69)
        state = em_reconstruct3d(patches, Recon3dConfig(grid=grid, seed=14, max_iters=5))
        save_recon_state(state, tmp_path)
        back = load_recon_state(tmp_path)
        np.testing.assert_allclose(back.volume, state.volume, atol=1e-5)
        np.testing.assert_array_equal(back.log_likelihoods, state.log_likelihoods)


class TestRowLogSumExp:
    """``em._row_logsumexp`` equals ``scipy.special.logsumexp(axis=1)``
    byte for byte, and ``_log_posteriors`` the formulation it replaced."""

    @staticmethod
    def _assert_same(a):
        assert em._row_logsumexp(a).tobytes() == logsumexp(a, axis=1).tobytes()

    def test_tied_maxima(self):
        rng = np.random.default_rng(11)
        for width in (2, 3, 8, 9, 40):
            a = np.round(rng.standard_normal((300, width)) * 2.0)
            a[:20] = a[:20, :1]
            a[20:40, : width // 2 + 1] = a[20:40].max(axis=1, keepdims=True)
            self._assert_same(a)

    def test_single_column(self):
        self._assert_same(np.random.default_rng(12).standard_normal((500, 1)) * 1e3)

    def test_wide_spread(self):
        """Rows of 1-129 entries spanning magnitudes from 1e-6 to 1e6, and a
        column block of a wider product, as the E-step passes it."""
        rng = np.random.default_rng(13)
        for width in (1, 2, 7, 8, 16, 17, 129):
            scale = 10.0 ** rng.uniform(-6, 6, size=(400, 1))
            self._assert_same(rng.standard_normal((400, width)) * scale)
        wide = rng.standard_normal((400, 60)) * 300.0
        self._assert_same(wide[:, 20:40])

    def test_non_finite_rows(self):
        inf, nan = np.inf, np.nan
        a = np.array([
            [-inf, -inf, -inf],
            [inf, 1.0, 2.0],
            [inf, -inf, 0.0],
            [nan, 1.0, 2.0],
            [-inf, 3.0, -inf],
            [1e308, 1e308, -1e308],
        ])
        with np.errstate(all="ignore"):
            self._assert_same(a)

    def test_log_posteriors_in_place(self):
        """The in-place log joint and evidence equal the out-of-place
        formulation with scipy's logsumexp, and overwrite the product block."""
        rng = np.random.default_rng(14)
        flat = rng.standard_normal((700, 48))
        means = rng.standard_normal((6, 48))
        log_weights = np.log(rng.dirichlet(np.ones(6)))
        norms = em._row_norms(flat)
        product = flat @ np.concatenate([means, means[::-1]]).T
        cross = product[:, 6:]
        block = cross.copy()
        sq = norms[:, None] - 2.0 * block + em._row_norms(means[::-1])[None, :]
        log_prob = log_weights[None, :] - sq / (2.0 * 1.7 ** 2)
        log_prob -= 0.5 * 48 * np.log(2.0 * np.pi * 1.7 ** 2)
        log_norm = em._log_posteriors(cross, norms, means[::-1], log_weights, 1.7)
        assert log_norm.tobytes() == logsumexp(log_prob, axis=1).tobytes()
        assert np.ascontiguousarray(cross).tobytes() == log_prob.tobytes()


class TestEmBitExactAgainstReference:
    """Both fits reproduce the formulation in ``oracles``, which forms the
    row norms and the doubled patch stack on every iteration, byte for
    byte.

    The 3D case has thousands of 16^3 rows, the size at which the BLAS
    splits its products across threads.
    """

    @staticmethod
    def _assert_same_recon(fast, slow):
        assert fast.volume.tobytes() == slow.volume.tobytes()
        assert fast.log_likelihoods.tobytes() == slow.log_likelihoods.tobytes()
        assert fast.converged == slow.converged

    def test_recon3d_truncated_samples(self):
        templates = make_rotation_templates(blob_volume(16), 8, seed=71)
        samples, _ = sample_mixture(TruncMixture(TruncSpec(1.0, 3.0), templates), 2000, seed=72)
        config = Recon3dConfig(grid=templates.grid, seed=15, restarts=2, max_iters=12)
        self._assert_same_recon(
            em_reconstruct3d(samples, config), reference_em_reconstruct3d(samples, config)
        )

    def test_recon3d_rejected_step(self):
        """A fit that ends on a likelihood decrease, so it stops at the
        previous volume without a tolerance hit."""
        templates = make_rotation_templates(blob_volume(8), 6, seed=4)
        samples, _ = sample_mixture(TruncMixture(TruncSpec(1.0, 2.0), templates), 300, seed=4)
        config = Recon3dConfig(grid=templates.grid, seed=4, max_iters=100, rel_tol=1e-300)
        fast = em_reconstruct3d(samples, config)
        trace = fast.log_likelihoods
        assert fast.converged and len(trace) < config.max_iters and trace[-1] != trace[-2]
        self._assert_same_recon(fast, reference_em_reconstruct3d(samples, config))

    @staticmethod
    def _assert_same_gmm(fast, slow):
        for name in GMM_ARRAYS:
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
        assert fast.converged == slow.converged

    @staticmethod
    def _record_widths(monkeypatch):
        """The (product, stacked restarts) key of every product ``_fit`` forms."""
        keys = []
        iteration = em._iteration

        def recording(flat, flat_norms, live, *rest):
            keys.append(("E", len(live)))
            stepping = iteration(flat, flat_norms, live, *rest)
            if stepping:
                keys.append(("M", len(stepping)))
            return stepping

        monkeypatch.setattr(em, "_iteration", recording)
        return keys

    @staticmethod
    def _assert_close_to_reference(fit, reference, patches, config, names):
        """One restart has the oracle's bytes; with all of them stacked the
        BLAS may sum in another order, so the fit agrees to rounding."""
        single = dataclasses.replace(config, restarts=1)
        alone, oracle = fit(patches, single), reference(patches, single)
        for name in names:
            assert getattr(alone, name).tobytes() == getattr(oracle, name).tobytes(), name
        assert alone.converged == oracle.converged
        fast, slow = fit(patches, config), reference(patches, config)
        assert len(fast.log_likelihoods) == len(slow.log_likelihoods)
        assert fast.converged == slow.converged
        for name in names:
            np.testing.assert_allclose(getattr(fast, name), getattr(slow, name), rtol=1e-12, err_msg=name)

    def test_classify2d_one_class(self):
        """One-row models: each restart's own product is a matrix-vector
        one, the stacked product a matrix product."""
        patches = np.random.default_rng(76).standard_normal((900, 10, 10)) + 0.25
        config = Gmm2dConfig(class_count=1, restarts=3, seed=18)
        self._assert_close_to_reference(
            em_classify2d, reference_em_classify2d, patches, config, GMM_ARRAYS
        )

    def test_recon3d_one_rotation_grid(self):
        rng = np.random.default_rng(77)
        patches = blob_volume(8)[None] + rng.standard_normal((300, 8, 8, 8))
        config = Recon3dConfig(grid=sample_rotation_grid(1, seed=78), restarts=2, seed=19, max_iters=8)
        self._assert_close_to_reference(
            em_reconstruct3d, reference_em_reconstruct3d, patches, config, ("volume", "log_likelihoods")
        )

    @pytest.mark.parametrize("count, side, classes, restarts", [(900, 10, 3, 4), (400, 6, 2, 3)])
    def test_classify2d_small_products(self, count, side, classes, restarts):
        """Sizes at which OpenBLAS 0.3.31 gives the stacked M-step (first
        case) or E-step (second) product other bytes than each restart's
        own."""
        patches = np.random.default_rng(90).standard_normal((count, side, side)) + 0.5
        config = Gmm2dConfig(class_count=classes, restarts=restarts, max_iters=30, seed=3)
        self._assert_close_to_reference(
            em_classify2d, reference_em_classify2d, patches, config, GMM_ARRAYS
        )

    def test_classify2d_restarts_converge_apart(self, monkeypatch):
        """Three restarts that converge at different iterations, so the
        stacked width goes from 3 to 2 to 1 mid-fit."""
        keys = self._record_widths(monkeypatch)
        rng = np.random.default_rng(80)
        truth = 2.0 * _basis_stack(12, 4)
        patches = truth[rng.integers(0, 4, size=3000)] + rng.standard_normal((3000, 12, 12))
        config = Gmm2dConfig(class_count=4, restarts=3, max_iters=300, rel_tol=1e-6, seed=80)
        self._assert_same_gmm(em_classify2d(patches, config), reference_em_classify2d(patches, config))
        assert {("E", 3), ("E", 2), ("E", 1), ("M", 3), ("M", 2), ("M", 1)} <= set(keys)

    def test_recon3d_restarts_stop_apart(self, monkeypatch):
        """Three restarts, one ending on a rejected step, one at
        ``max_iters``, so the stacked width shrinks mid-fit."""
        keys = self._record_widths(monkeypatch)
        templates = make_rotation_templates(blob_volume(8), 6, seed=4)
        samples, _ = sample_mixture(TruncMixture(TruncSpec(1.0, 2.0), templates), 300, seed=4)
        config = Recon3dConfig(grid=templates.grid, seed=4, restarts=3, max_iters=100, rel_tol=1e-300)
        fast = em_reconstruct3d(samples, config)
        self._assert_same_recon(fast, reference_em_reconstruct3d(samples, config))
        assert {("E", 3), ("E", 2), ("E", 1), ("M", 3), ("M", 2), ("M", 1)} <= set(keys)

    def test_recon3d_with_one_blas_thread(self):
        """The 2000-patch 3D comparison again in a child process whose BLAS
        runs one thread, so lockstep keeps the per-restart bytes at both
        thread counts."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        source = str(Path(sfn.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        test = f"{Path(__file__).resolve()}::{type(self).__name__}::test_recon3d_truncated_samples"
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            env=env,
            capture_output=True,
            text=True,
        )
        assert child.returncode == 0, child.stdout + child.stderr
        assert "1 passed" in child.stdout
