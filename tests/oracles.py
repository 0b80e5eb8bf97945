"""Independent reference computations shared by the test suite.

Everything here deliberately avoids the code paths used by the package:
moments come from adaptive quadrature on a rescaled integrand, cross
correlations from brute-force sliding dot products, and projections from
explicit loops.  Tests compare package output against these.  The
reference picker is the one exception: it is the straightforward
per-template FFT formulation that the package's picker must match bit for
bit.
"""

import numpy as np
from scipy import integrate

from sfn.picker import PickSet


def quadrature_tail_moments(sigma, threshold):
    """Mean and variance of a lower-truncated normal via quadrature.

    Substituting ``x = T + sigma * u`` turns the tail integrals into
    integrals of ``u**k * exp(-t*u - u*u/2)`` on ``[0, inf)`` with
    ``t = T / sigma``, which stay well scaled however deep the tail is.
    """
    t = threshold / sigma

    def f(u, k):
        return u ** k * np.exp(-t * u - 0.5 * u * u)

    moments = [
        integrate.quad(f, 0.0, np.inf, args=(k,), epsabs=0, epsrel=1e-13, limit=200)[0]
        for k in range(3)
    ]
    m1 = moments[1] / moments[0]
    m2 = moments[2] / moments[0]
    mean = threshold + sigma * m1
    var = sigma ** 2 * (m2 - m1 * m1)
    return mean, var


def brute_force_correlation_map(canvas, template):
    """Circular cross-correlation by explicit sliding dot products.

    Entry ``[u, v, ...]`` is the inner product between the template and
    the canvas patch centered at that pixel, with periodic wrap.
    """
    canvas = np.asarray(canvas, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    side = template.shape[0]
    half = side // 2
    out = np.empty(canvas.shape, dtype=np.float64)
    for center in np.ndindex(canvas.shape):
        acc = 0.0
        for offset in np.ndindex(template.shape):
            pos = tuple(
                (c - half + o) % k for c, o, k in zip(center, offset, canvas.shape)
            )
            acc += canvas[pos] * template[offset]
        out[center] = acc
    return out


def brute_force_projection(volume):
    """Sum a cubic volume along its third axis with explicit loops."""
    volume = np.asarray(volume, dtype=np.float64)
    n = volume.shape[0]
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += volume[i, j, k]
    return out


def wrapped_patch(canvas, center, side):
    """Extract a patch around ``center`` with periodic wrap."""
    canvas = np.asarray(canvas)
    half = side // 2
    index = np.ix_(
        *[
            (np.arange(side) + c - half) % k
            for c, k in zip(center, canvas.shape)
        ]
    )
    return canvas[index]


def min_circular_linf(positions, canvas_dims=None):
    """Smallest pairwise L-infinity distance among integer positions.

    With ``canvas_dims`` the distance is measured on the torus, matching
    pickers that wrap their suppression mask around the borders.
    """
    pos = np.asarray(positions, dtype=np.int64)
    if len(pos) < 2:
        return np.inf
    best = np.inf
    for i in range(len(pos) - 1):
        delta = np.abs(pos[i + 1 :] - pos[i])
        if canvas_dims is not None:
            dims = np.asarray(canvas_dims, dtype=np.int64)
            delta = np.minimum(delta, dims[None, :] - delta)
        best = min(best, delta.max(axis=1).min())
    return best


def reference_correlation_map(canvas, template):
    """The one-line FFT correlation that ``correlation_map`` must match bit
    for bit: product formed as ``rfftn(canvas) * conj(rfftn(padded))``."""
    canvas = np.asarray(canvas, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    padded = np.zeros(canvas.shape)
    padded[tuple(slice(0, d) for d in template.shape)] = template
    axes = tuple(range(canvas.ndim))
    corner_scores = np.fft.irfftn(
        np.fft.rfftn(canvas) * np.conj(np.fft.rfftn(padded)), s=canvas.shape, axes=axes
    )
    shifts = [d // 2 for d in template.shape]
    return np.roll(corner_scores, shifts, axis=axes)


def _reference_box(center, side, dims):
    return np.ix_(*((c - side // 2 + np.arange(side)) % k for c, k in zip(center, dims)))


def reference_pick_micrograph(field, template_set, threshold, source_id=""):
    """Greedy micrograph picker written the straightforward way: one
    ``reference_correlation_map`` per template, rolled to centre
    coordinates, a boolean-index merge, and a full canvas mask whose box
    is read for every candidate. ``pick_micrograph`` must match it byte for
    byte."""
    canvas = np.asarray(getattr(field, "canvas", field), dtype=np.float64)
    templates = template_set.templates
    side = template_set.side

    best = None
    best_label = None
    for index, template in enumerate(template_set):
        scores = reference_correlation_map(canvas, template)
        if best is None:
            best = scores
            best_label = np.zeros(canvas.shape, dtype=np.int64)
        else:
            improved = scores > best
            best[improved] = scores[improved]
            best_label[improved] = index

    flat = np.flatnonzero(best > threshold)
    order = np.argsort(-best.reshape(-1)[flat], kind="stable")
    dims = canvas.shape
    mask = np.zeros(dims, dtype=bool)
    picked, pick_scores, pick_labels, centers = [], [], [], []
    for flat_index in flat[order]:
        center = np.unravel_index(flat_index, dims)
        block = _reference_box(center, side, dims)
        if mask[block].any():
            continue
        mask[block] = True
        picked.append(canvas[block].copy())
        pick_scores.append(best[center])
        pick_labels.append(best_label[center])
        centers.append(center)

    if picked:
        patches = np.stack(picked)
        scores = np.asarray(pick_scores)
        labels = np.asarray(pick_labels, dtype=np.int64)
        positions = np.asarray(centers, dtype=np.int64)
    else:
        patches = np.empty((0,) + templates.shape[1:])
        scores = np.empty(0)
        labels = np.empty(0, dtype=np.int64)
        positions = np.empty((0, canvas.ndim), dtype=np.int64)
    return PickSet(
        patches=patches,
        scores=scores,
        threshold=float(threshold),
        labels=labels,
        positions=positions,
        canvas_dims=dims,
        source_ids=np.array([source_id] * len(scores), dtype=object),
    )
