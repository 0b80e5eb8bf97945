"""Moments and exact sampling for tail-truncated Gaussian components.

A selection step that keeps a centered Gaussian vector ``z`` whenever its
correlation against a unit template ``x`` clears a threshold ``T`` leaves
the component along ``x`` distributed as a lower-truncated normal while
all orthogonal directions stay untouched.  This module provides the
closed-form moments of that law, its normalizing constant, and an exact
sampler.  The sampler is the independent reference for the rest of the
pipeline: anything the picker produces on pure noise must agree with it
in distribution.

The moments go through the scaled complementary error function
(``erfcx``), so they stay accurate far into the tail (relative error near
machine precision up to ``T/sigma = 35``). ``normalizer`` and the sampler
use the normal tail ``ndtr`` and its inverse ``ndtri`` in linear scale,
so they hold while the tail is a normal double (``T/sigma`` up to about
37.5); past that ``normalizer`` is ``inf`` and the samplers raise
``ArgumentError`` rather than draw infinite scores. ``log_normalizer``
uses ``log_ndtr`` and stays finite at any depth.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ArgumentError
from .rng import STREAM_TRUNC_SAMPLER, generator

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


@dataclass(frozen=True)
class TruncSpec:
    """Scale and lower threshold of a truncated Gaussian component.

    Parameters
    ----------
    sigma : float
        Standard deviation of the ambient (untruncated) Gaussian.
    threshold : float
        Lower truncation point applied to the template correlation.
    """

    sigma: float
    threshold: float

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ArgumentError(f"sigma must be positive and finite, got {self.sigma}")
        if not np.isfinite(self.threshold):
            raise ArgumentError("threshold must be finite")

    @property
    def reduced_threshold(self):
        """Threshold in units of sigma."""
        return self.threshold / self.sigma


@dataclass
class TruncMixture:
    """Equal-scale truncated components around a set of unit templates,
    chosen uniformly."""

    spec: TruncSpec
    templates: object


def _mills_ratio(t):
    """phi(t) / Q(t) for the standard normal, stable for any ``t``."""
    return _SQRT_2_OVER_PI / special.erfcx(t / np.sqrt(2.0))


def trunc_mean(s):
    """Mean of ``X | X >= T`` for ``X ~ N(0, sigma^2)``.

    Equals ``sigma * phi(t) / Q(t)`` with ``t = T / sigma``; approaches
    ``T + sigma^2 / T`` from above as the threshold grows.
    """
    return s.sigma * _mills_ratio(s.reduced_threshold)


def trunc_var(s):
    """Variance of ``X | X >= T`` for ``X ~ N(0, sigma^2)``.

    Uses the cancellation-resistant identity
    ``1 + t*r - r^2 = 1 - (r - t)*r`` where ``r`` is the Mills ratio;
    approaches the effective variance ``sigma^2 * (1 - sigma^2 / T^2)``
    from below as the threshold grows.
    """
    t = s.reduced_threshold
    r = _mills_ratio(t)
    return s.sigma ** 2 * (1.0 - (r - t) * r)


def effective_variance(s):
    """Deep-tail variance proxy ``sigma^2 * (1 - sigma^2 / T^2)``.

    The conditional variance itself collapses like ``sigma^4 / T^2`` as
    the threshold grows; this expression tracks its complement,
    ``sigma^2 - trunc_var``, with relative error O(T^-4).  It is the
    per-component variance scale appearing in the mean-square-error law
    for fitted class means.  Undefined at ``T = 0``.
    """
    if s.threshold == 0.0:
        raise ArgumentError("effective variance is undefined at threshold 0")
    return s.sigma ** 2 * (1.0 - (s.sigma / s.threshold) ** 2)


def normalizer(s):
    """Normalizing constant ``1 / Q(T / sigma)`` of the truncated law.

    Always in linear scale, so it overflows to ``inf`` once ``T / sigma``
    passes about 37.5; use :func:`log_normalizer` in that tail.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / special.ndtr(-s.reduced_threshold)


def log_normalizer(s):
    """``log(1 / Q(T / sigma))``, stable for arbitrarily deep tails."""
    return -special.log_ndtr(-s.reduced_threshold)


def _check_unit_template(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1 or x.ndim > 3:
        raise ArgumentError("template must have 1 to 3 axes")
    if not np.all(np.isfinite(x)):
        raise ArgumentError("template must be finite")
    norm = np.linalg.norm(x)
    if abs(norm - 1.0) > 1e-9:
        raise ArgumentError(f"template must have unit Frobenius norm, got {norm}")
    return x


def _sample_scores(s, count, rng):
    """Draw from the truncated correlation law by upper-tail inversion;
    a tail below the smallest normal double cannot be inverted."""
    t = s.reduced_threshold
    tail = special.ndtr(-t)
    if tail < np.finfo(np.float64).tiny:
        raise ArgumentError(f"T/sigma = {t:g} is past the sampler's limit of about 37.5")
    u = rng.random(count)
    p = tail * (1.0 - u)
    np.clip(p, np.finfo(np.float64).tiny, tail, out=p)
    scores = -s.sigma * special.ndtri(p)
    return np.maximum(scores, s.threshold)


def _sample_component(x, s, count, rng):
    flat = x.reshape(-1)
    scores = _sample_scores(s, count, rng)
    noise = rng.standard_normal((count, flat.size)) * s.sigma
    noise -= np.outer(noise @ flat, flat)
    samples = scores[:, None] * flat[None, :] + noise
    return samples.reshape((count,) + x.shape)


def sample_component(x, s, count, seed):
    """Exact draws from one truncated component around unit template ``x``.

    Each sample is ``score * x + eps`` where ``score`` follows the
    truncated law on ``[T, inf)`` (inverse-CDF through the Gaussian tail,
    exact while that tail is a normal double, ``T/sigma`` up to about
    37.5; deeper thresholds raise) and ``eps`` is ambient Gaussian
    noise projected orthogonal to ``x``.  By construction every sample
    correlates with ``x`` at or above the threshold.

    Returns an array of shape ``(count, *x.shape)``.
    """
    if count < 0:
        raise ArgumentError("count must be nonnegative")
    x = _check_unit_template(x)
    rng = generator(seed, STREAM_TRUNC_SAMPLER)
    return _sample_component(x, s, count, rng)


def sample_mixture(mix, count, seed):
    """Draw ``count`` samples from a truncated mixture.

    Each sample's component is chosen uniformly.  Returns
    ``(samples, labels)`` where ``labels[i]`` is the component index the
    ``i``-th sample was drawn from.
    """
    if count < 0:
        raise ArgumentError("count must be nonnegative")
    stack = np.asarray(mix.templates.templates, dtype=np.float64)
    rng = generator(seed, STREAM_TRUNC_SAMPLER)
    # With ``p`` the labels come from inverted uniform draws; without it,
    # ``choice`` draws integers, another stream of labels and samples.
    labels = rng.choice(len(stack), size=count, p=np.full(len(stack), 1.0 / len(stack)))
    samples = np.empty((count,) + stack.shape[1:], dtype=np.float64)
    for idx in range(len(stack)):
        members = np.flatnonzero(labels == idx)
        if members.size:
            x = _check_unit_template(stack[idx])
            samples[members] = _sample_component(x, mix.spec, members.size, rng)
    return samples, labels
