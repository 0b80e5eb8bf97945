"""Tests for truncated-Gaussian moments, normalizers, and the sampler."""

import numpy as np
import pytest
from scipy import special, stats

from oracles import (
    quadrature_tail_moments,
    reference_sample_component,
    reference_sample_mixture,
)
from sfn.errors import ArgumentError
from sfn.truncgauss import (
    effective_variance,
    TruncMixture,
    TruncSpec,
    log_normalizer,
    normalizer,
    sample_component,
    sample_mixture,
    sampler_tail,
    trunc_mean,
    trunc_var,
)

THRESHOLDS = (-2.0, 0.0, 1.0, 3.0, 5.0, 8.0, 20.0, 30.0)

# Frozen from the quadrature oracle (see oracles.quadrature_tail_moments).
QUAD_MEAN_T3 = 3.2830986549304364
QUAD_MEAN_T5 = 5.186503967125842


class TestMoments:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_matches_quadrature(self, threshold):
        """Closed forms agree with adaptive quadrature to 1e-9 relative."""
        spec = TruncSpec(1.0, threshold)
        mean_q, var_q = quadrature_tail_moments(1.0, threshold)
        assert abs(trunc_mean(spec) - mean_q) <= 1e-9 * abs(mean_q)
        assert abs(trunc_var(spec) - var_q) <= 1e-9 * abs(var_q)

    def test_half_normal_closed_forms(self):
        """At T=0 the law is half-normal: mean sqrt(2/pi), var 1-2/pi."""
        spec = TruncSpec(1.0, 0.0)
        np.testing.assert_allclose(trunc_mean(spec), np.sqrt(2.0 / np.pi), rtol=1e-14)
        np.testing.assert_allclose(trunc_var(spec), 1.0 - 2.0 / np.pi, rtol=1e-14)

    def test_frozen_tail_values(self):
        np.testing.assert_allclose(trunc_mean(TruncSpec(1.0, 3.0)), QUAD_MEAN_T3, rtol=1e-12)
        np.testing.assert_allclose(trunc_mean(TruncSpec(1.0, 5.0)), QUAD_MEAN_T5, rtol=1e-12)

    @pytest.mark.parametrize("threshold", (8.0, 12.0, 20.0, 30.0))
    def test_deep_tail_asymptotes(self, threshold):
        """Far into the tail the mean tracks T + s^2/T and the variance
        complement s^2 - var tracks the effective variance, both to 0.5%."""
        spec = TruncSpec(1.0, threshold)
        mean_asym = threshold + 1.0 / threshold
        assert abs(trunc_mean(spec) - mean_asym) <= 0.005 * mean_asym
        complement = 1.0 - trunc_var(spec)
        assert abs(complement - effective_variance(spec)) <= 0.005 * effective_variance(spec)

    def test_effective_variance_at_moderate_threshold(self):
        """At T=5 the variance complement is within 2% of the proxy, while
        the conditional variance itself has already collapsed toward s^4/T^2."""
        spec = TruncSpec(1.0, 5.0)
        proxy = effective_variance(spec)
        np.testing.assert_allclose(proxy, 0.96, rtol=1e-12)
        assert abs((1.0 - trunc_var(spec)) - proxy) <= 0.02 * proxy
        assert trunc_var(spec) < 0.04

    def test_effective_variance_undefined_at_zero(self):
        with pytest.raises(ArgumentError):
            effective_variance(TruncSpec(1.0, 0.0))

    def test_mean_dominates_threshold(self):
        """E[X | X >= T] >= T for every threshold, approaching it from above."""
        for threshold in THRESHOLDS:
            assert trunc_mean(TruncSpec(1.0, threshold)) >= threshold

    def test_scale_equivariance(self):
        """Moments scale as sigma and sigma^2 when (T/sigma) is held fixed."""
        lo = TruncSpec(1.0, 2.0)
        hi = TruncSpec(3.0, 6.0)
        np.testing.assert_allclose(trunc_mean(hi), 3.0 * trunc_mean(lo), rtol=1e-13)
        np.testing.assert_allclose(trunc_var(hi), 9.0 * trunc_var(lo), rtol=1e-13)

    def test_ratio_to_threshold_shrinks(self):
        """mean/T decreases toward 1 and stays under 1 + 2 sigma^2 / T^2."""
        ratios = [trunc_mean(TruncSpec(1.0, t)) / t for t in (2.0, 3.0, 4.0, 6.0)]
        for t, ratio in zip((2.0, 3.0, 4.0, 6.0), ratios):
            assert 1.0 <= ratio <= 1.0 + 2.0 / t ** 2
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestNormalizer:
    def test_against_tail_probability(self):
        np.testing.assert_allclose(normalizer(TruncSpec(1.0, 3.0)), 740.7966946899184, rtol=1e-12)
        np.testing.assert_allclose(normalizer(TruncSpec(1.0, 0.0)), 2.0, rtol=1e-14)

    def test_stable_to_thirty_five_sigma(self):
        value = normalizer(TruncSpec(1.0, 35.0))
        assert np.isfinite(value)
        np.testing.assert_allclose(np.log(value), log_normalizer(TruncSpec(1.0, 35.0)), rtol=1e-12)

    def test_linear_scale_beyond_thirty_five_sigma(self):
        """Past 35 sigma the value stays linear until it overflows to inf."""
        spec = TruncSpec(1.0, 36.0)
        np.testing.assert_allclose(np.log(normalizer(spec)), log_normalizer(spec), rtol=1e-12)
        deep = TruncSpec(1.0, 40.0)
        assert normalizer(deep) == np.inf
        np.testing.assert_allclose(log_normalizer(deep), -special.log_ndtr(-40.0), rtol=1e-14)

    def test_scale_invariance(self):
        np.testing.assert_allclose(
            normalizer(TruncSpec(2.0, 6.0)), normalizer(TruncSpec(1.0, 3.0)), rtol=1e-13
        )


class TestSpecValidation:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ArgumentError):
            TruncSpec(0.0, 1.0)
        with pytest.raises(ArgumentError):
            TruncSpec(-1.0, 1.0)

    def test_rejects_nonfinite_threshold(self):
        with pytest.raises(ArgumentError):
            TruncSpec(1.0, np.inf)


def _unit_template(rng, shape):
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x)


class TestSampler:
    def test_scores_obey_threshold(self):
        rng = np.random.default_rng(7)
        x = _unit_template(rng, (5, 5))
        spec = TruncSpec(1.0, 3.0)
        z = sample_component(x, spec, 5000, seed=11)
        scores = z.reshape(len(z), -1) @ x.reshape(-1)
        assert scores.min() >= 3.0 - 1e-9

    def test_score_moments(self):
        """Empirical score mean and variance match the closed forms."""
        rng = np.random.default_rng(8)
        x = _unit_template(rng, (4, 4))
        spec = TruncSpec(1.0, 2.0)
        count = 200_000
        z = sample_component(x, spec, count, seed=3)
        scores = z.reshape(count, -1) @ x.reshape(-1)
        se_mean = np.sqrt(trunc_var(spec) / count)
        assert abs(scores.mean() - trunc_mean(spec)) <= 4.0 * se_mean
        assert abs(scores.var(ddof=1) - trunc_var(spec)) <= 0.05 * trunc_var(spec)

    def test_orthogonal_directions_untouched(self):
        """Noise off the template axis stays N(0, sigma^2)."""
        rng = np.random.default_rng(9)
        x = _unit_template(rng, (6,))
        y = rng.standard_normal(6)
        y -= (y @ x) * x
        y /= np.linalg.norm(y)
        spec = TruncSpec(1.5, 4.0)
        count = 100_000
        z = sample_component(x, spec, count, seed=5)
        side = z @ y
        assert abs(side.mean()) <= 4.0 * 1.5 / np.sqrt(count)
        np.testing.assert_allclose(side.var(ddof=1), 1.5 ** 2, rtol=0.05)

    def test_distribution_ks(self):
        """Sampled scores pass a KS test against the truncated CDF."""
        rng = np.random.default_rng(10)
        x = _unit_template(rng, (3, 3))
        spec = TruncSpec(1.0, 3.0)
        z = sample_component(x, spec, 50_000, seed=13)
        scores = z.reshape(len(z), -1) @ x.reshape(-1)
        tail = special.ndtr(-spec.reduced_threshold)

        def cdf(s):
            return 1.0 - special.ndtr(-np.asarray(s) / spec.sigma) / tail

        result = stats.kstest(scores, cdf)
        assert result.pvalue > 0.01

    def test_deep_tail_sampling(self):
        """The inverse-CDF route stays exact at thresholds Monte Carlo cannot reach."""
        rng = np.random.default_rng(11)
        x = _unit_template(rng, (4,))
        spec = TruncSpec(1.0, 20.0)
        z = sample_component(x, spec, 20_000, seed=17)
        scores = z @ x
        assert scores.min() >= 20.0
        np.testing.assert_allclose(scores.mean(), trunc_mean(spec), rtol=1e-3)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(12)
        x = _unit_template(rng, (4, 4))
        spec = TruncSpec(1.0, 1.0)
        a = sample_component(x, spec, 100, seed=21)
        b = sample_component(x, spec, 100, seed=21)
        c = sample_component(x, spec, 100, seed=22)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_non_unit_template(self):
        with pytest.raises(ArgumentError):
            sample_component(np.ones(4), TruncSpec(1.0, 1.0), 10, seed=0)


class TestSamplerLimit:
    """Inversion through the Gaussian tail needs that tail to be a normal
    double, which holds up to ``T/sigma`` of about 37.52."""

    @pytest.mark.parametrize("sigma, threshold", [(1.0, 37.0), (2.0, 74.0), (1.0, 37.5)])
    def test_drawable_depth_keeps_its_bytes(self, sigma, threshold):
        x = _unit_template(np.random.default_rng(30), (4, 4))
        spec = TruncSpec(sigma, threshold)
        z = sample_component(x, spec, 50, seed=31)
        assert z.tobytes() == reference_sample_component(x, spec, 50, seed=31).tobytes()
        scores = z.reshape(len(z), -1) @ x.reshape(-1)
        assert np.isfinite(scores).all() and scores.min() >= threshold
        mix = TruncMixture(spec, _StackSet(np.stack([x, -x])))
        samples, labels = sample_mixture(mix, 60, seed=32)
        want_samples, want_labels = reference_sample_mixture(mix, 60, seed=32)
        assert samples.tobytes() == want_samples.tobytes()
        assert labels.tobytes() == want_labels.tobytes()

    @pytest.mark.parametrize("sigma, threshold", [(1.0, 38.0), (1.0, 40.0), (2.0, 76.0)])
    def test_undrawable_depth_is_refused(self, sigma, threshold):
        x = _unit_template(np.random.default_rng(33), (4,))
        spec = TruncSpec(sigma, threshold)
        with pytest.raises(ArgumentError, match="37.5") as raised:
            sample_component(x, spec, 3, seed=34)
        assert raised.value.exit_code == 2
        with pytest.raises(ArgumentError, match="37.5"):
            sample_mixture(TruncMixture(spec, _StackSet(np.stack([x, -x]))), 3, seed=35)


class _StackSet:
    """Minimal stand-in exposing a template stack."""

    def __init__(self, templates):
        self.templates = templates


class TestMixture:
    def _mixture(self, rng, count=3, dim=9):
        stack = rng.standard_normal((count, dim))
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
        return TruncMixture(TruncSpec(1.0, 2.5), _StackSet(stack))

    @pytest.mark.parametrize(
        "components, shape, count, seed",
        [(1, (9,), 200, 3), (3, (9,), 4000, 23), (7, (6, 6), 0, 1), (7, (6, 6), 1, 2),
         (5, (4, 4, 4), 999, 40), (12, (5, 5), 3000, 41)],
    )
    def test_uniform_draw_keeps_the_stored_mixing_bytes(self, components, shape, count, seed):
        """Samples and labels equal, bit for bit, those of the sampler that
        drew labels with a stored uniform mixing vector."""
        rng = np.random.default_rng(seed + 100)
        stack = rng.standard_normal((components, int(np.prod(shape))))
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
        mix = TruncMixture(TruncSpec(1.25, 3.5), _StackSet(stack.reshape((components,) + shape)))
        samples, labels = sample_mixture(mix, count, seed)
        want_samples, want_labels = reference_sample_mixture(mix, count, seed)
        assert samples.shape == want_samples.shape
        assert samples.tobytes() == want_samples.tobytes()
        assert labels.dtype == want_labels.dtype and labels.tobytes() == want_labels.tobytes()

    def test_samples_respect_component_threshold(self):
        """Every draw clears the threshold against its own component template."""
        mix = self._mixture(np.random.default_rng(16))
        samples, labels = sample_mixture(mix, 4000, seed=23)
        stack = np.asarray(mix.templates.templates)
        scores = np.einsum("ij,ij->i", samples, stack[labels])
        assert scores.min() >= 2.5 - 1e-9
        counts = np.bincount(labels, minlength=3)
        assert counts.min() > 4000 / 3 * 0.8


class TestMixtureChecks:
    """A mixture is checked when it is built, so ``sample_mixture`` draws
    without checking its templates or its tail again."""

    @staticmethod
    def _stack(count=3, dim=9):
        stack = np.random.default_rng(50).standard_normal((count, dim))
        return stack / np.linalg.norm(stack, axis=1, keepdims=True)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda stack: stack[:0], "at least one template"),
            (lambda stack: np.vstack([stack[:2], stack[2:] * np.nan]), "finite"),
            (lambda stack: np.vstack([stack[:2], stack[2:] * 2.0]), "unit Frobenius norm"),
            (lambda stack: stack.reshape(3, 1, 1, 9, 1), "1 to 3 axes"),
        ],
        ids=["empty", "non-finite", "non-unit", "four-axes"],
    )
    def test_refuses_a_template_set_it_cannot_draw_around(self, edit, message):
        with pytest.raises(ArgumentError, match=message) as raised:
            TruncMixture(TruncSpec(1.0, 2.0), _StackSet(edit(self._stack())))
        assert raised.value.exit_code == 2

    @pytest.mark.parametrize("sigma, threshold", [(1.0, 38.0), (1.0, 1e3), (2.0, 76.0), (0.5, 19.0)])
    def test_refuses_a_tail_past_the_sampler_limit(self, sigma, threshold):
        with pytest.raises(ArgumentError, match="limit of about 37.5") as raised:
            TruncMixture(TruncSpec(sigma, threshold), _StackSet(self._stack()))
        assert raised.value.exit_code == 2

    @pytest.mark.parametrize("sigma, threshold", [(1.0, -3.0), (1.0, 2.5), (2.0, 74.0), (1.0, 37.5)])
    def test_the_tail_is_the_one_the_sampler_inverts(self, sigma, threshold):
        spec = TruncSpec(sigma, threshold)
        assert sampler_tail(spec) == special.ndtr(-threshold / sigma)
        TruncMixture(spec, _StackSet(self._stack()))
