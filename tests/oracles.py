"""Independent reference computations shared by the test suite.

Everything here deliberately avoids the code paths used by the package:
moments come from adaptive quadrature on a rescaled integrand, cross
correlations from brute-force sliding dot products, projections from
explicit loops, and rotations from ``scipy.ndimage.affine_transform``.  Tests compare package output against these.  The
reference picker, overlap check and EM fits are the exceptions: they are
the straightforward formulations that the package must match, bit for bit
or accept for accept. ``label_subsets`` and ``labeled_class_means`` are
the per-template selections and plain averages that tests measure the
selection bias with; ``read_pgm`` reads previews back and
``rotation_angle`` measures how far a found rotation is from the truth.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import integrate, ndimage
from scipy import special
from scipy.special import logsumexp

from sfn.em import TRACE_TOL, Gmm2dState, Recon3dState, _patch_stack
from sfn.errors import ArgumentError, DegenerateDataError, SaturationError, SfnError, ShapeError
from sfn.noisegen import MAX_PLACEMENT_ATTEMPTS
from sfn.picker import TILE_2D, PickSet
from sfn.rng import STREAM_EM_INIT, STREAM_TRUNC_SAMPLER, generator


class EmptyClassError(SfnError):
    """A labeled subset contains no members."""


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


def reference_sample_mixture(mix, count, seed):
    """The mixture sampler as it stood with a stored mixing vector, which
    defaulted to ``np.full(L, 1.0 / L)``: component labels from
    ``rng.choice`` with that vector as ``p``, then, per component in
    order, upper-tail inverse-CDF scores and projected ambient noise.
    ``sample_mixture`` must match it byte for byte."""
    stack = np.asarray(mix.templates.templates, dtype=np.float64)
    mixing = np.asarray(np.full(len(stack), 1.0 / len(stack)), dtype=np.float64)
    rng = generator(seed, STREAM_TRUNC_SAMPLER)
    labels = rng.choice(len(stack), size=count, p=mixing)
    samples = np.empty((count,) + stack.shape[1:], dtype=np.float64)
    for idx in range(len(stack)):
        members = np.flatnonzero(labels == idx)
        if members.size:
            samples[members] = _reference_component_draw(stack[idx], mix.spec, members.size, rng)
    return samples, labels


def reference_sample_component(x, spec, count, seed):
    """``sample_component`` as it stood before thresholds past the
    sampler's limit were refused; at drawable depths the two must match
    byte for byte."""
    rng = generator(seed, STREAM_TRUNC_SAMPLER)
    return _reference_component_draw(np.asarray(x, dtype=np.float64), spec, count, rng)


def _reference_component_draw(x, spec, count, rng):
    flat = x.reshape(-1)
    tail = special.ndtr(-(spec.threshold / spec.sigma))
    p = tail * (1.0 - rng.random(count))
    np.clip(p, np.finfo(np.float64).tiny, tail, out=p)
    scores = np.maximum(-spec.sigma * special.ndtri(p), spec.threshold)
    noise = rng.standard_normal((count, flat.size)) * spec.sigma
    noise -= np.outer(noise @ flat, flat)
    drawn = scores[:, None] * flat[None, :] + noise
    return drawn.reshape((count,) + x.shape)


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


def reference_draw_positions(dims, side, count, rng, occupied=(), budget=MAX_PLACEMENT_ATTEMPTS):
    """Placement tested against the placed centers one at a time in a
    Python loop; ``noisegen.draw_positions`` must draw the same positions
    with the same draws and fail with the same message."""
    dims = tuple(dims)
    room = int(np.prod([dim // side for dim in dims]))
    if count + len(occupied) > room:
        raise SaturationError(
            f"{count} patches of side {side} beside {len(occupied)} placed cannot fit in "
            f"{'x'.join(str(dim) for dim in dims)}: at most {room} disjoint boxes do"
        )
    half = side // 2
    highs = np.array([dim - side + 1 for dim in dims], dtype=np.int64)
    placed = [np.asarray(p, dtype=np.int64) for p in occupied]
    fresh = []
    attempts = 0
    while len(fresh) < count:
        if attempts >= budget:
            raise SaturationError(
                f"placed {len(fresh)} of {count} patches after {attempts} attempts"
            )
        attempts += 1
        center = rng.integers(0, highs) + half
        if all(np.abs(center - p).max() >= side for p in placed):
            placed.append(center)
            fresh.append(center)
    return fresh


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


def reference_tiled_correlation_map(canvas, template):
    """The overlap-save correlation that 2D ``correlation_map`` must match
    bit for bit: the canvas wrap-padded by ``np.pad`` on its high sides and
    read in ``TILE_2D`` tiles (the smallest power of two at least twice
    the side, for larger sides) that start ``tile - side + 1`` apart on
    each axis; each tile's scores are
    ``irfft2(rfft2(tile) * conj(rfft2(template, s=tile)))``, kept at the
    corners where the tile correlation does not wrap."""
    canvas = np.asarray(canvas, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    if canvas.ndim != 2:
        raise ShapeError("the tiled reference is 2D only")
    edge = max(TILE_2D, 1 << (2 * max(template.shape) - 1).bit_length())
    valid = [edge - k + 1 for k in template.shape]
    counts = [-(-dim // width) for dim, width in zip(canvas.shape, valid)]
    padded = np.pad(
        canvas,
        [(0, (n - 1) * width + edge - dim) for n, width, dim in zip(counts, valid, canvas.shape)],
        mode="wrap",
    )
    conjugate = np.conj(np.fft.rfft2(template, s=(edge, edge)))
    corner_scores = np.empty(canvas.shape)
    for i in range(counts[0]):
        for j in range(counts[1]):
            top, left = i * valid[0], j * valid[1]
            tile = padded[top:top + edge, left:left + edge]
            scores = np.fft.irfft2(np.fft.rfft2(tile) * conjugate, s=(edge, edge))
            rows = min(valid[0], canvas.shape[0] - top)
            cols = min(valid[1], canvas.shape[1] - left)
            corner_scores[top:top + rows, left:left + cols] = scores[:rows, :cols]
    shifts = [d // 2 for d in template.shape]
    return np.roll(corner_scores, shifts, axis=(0, 1))


def reference_merge(maps):
    """Pixelwise best of score maps and the first map reaching it, merged
    in order: a pixel takes a map's score only where it is strictly above
    the best so far. ``picker._merge_maps`` must give the same best bytes,
    and the same labels wherever the best is above its threshold."""
    best = None
    for index, scores in enumerate(maps):
        if best is None:
            best = np.array(scores, dtype=np.float64)
            best_label = np.zeros(best.shape, dtype=np.int64)
        else:
            improved = scores > best
            best[improved] = scores[improved]
            best_label[improved] = index
    return best, best_label


def _reference_box(center, side, dims):
    return np.ix_(*((c - side // 2 + np.arange(side)) % k for c, k in zip(center, dims)))


def reference_pick_micrograph(field, template_set, threshold, source_id="", correlate=reference_correlation_map):
    """Greedy micrograph picker written the straightforward way: one
    ``correlate`` map per template (the full-canvas
    ``reference_correlation_map`` unless given), in centre coordinates, a
    boolean-index merge, and a full canvas mask whose box is read for
    every candidate. ``pick_micrograph`` must match it byte for byte on 3D
    canvases."""
    canvas = np.asarray(getattr(field, "canvas", field), dtype=np.float64)
    templates = template_set.templates
    side = template_set.side

    best = None
    best_label = None
    for index, template in enumerate(template_set):
        scores = correlate(canvas, template)
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


def reference_tiled_pick_micrograph(field, template_set, threshold, source_id=""):
    """``reference_pick_micrograph`` on ``reference_tiled_correlation_map``
    maps; 2D ``pick_micrograph`` must match it byte for byte."""
    return reference_pick_micrograph(
        field, template_set, threshold, source_id, correlate=reference_tiled_correlation_map
    )


def label_subsets(picks, template_set, threshold):
    """Per-template subsets: patch i joins subset l when its inner product
    with template l reaches the threshold. Subsets may overlap."""
    if picks.patches.shape[1:] != template_set.templates.shape[1:]:
        raise ShapeError("patch dims do not match template dims")
    flat = picks.patches.reshape(len(picks), -1)
    subsets = []
    for template in template_set:
        rows = np.flatnonzero(flat @ template.reshape(-1) >= threshold)
        subsets.append(replace(picks.subset(rows), threshold=float(threshold)))
    return subsets


def labeled_class_means(subsets):
    """Plain per-subset averages of the patches."""
    means = []
    for index, subset in enumerate(subsets):
        if len(subset) == 0:
            raise EmptyClassError(f"subset {index} holds no patches")
        means.append(subset.patches.mean(axis=0))
    return means


def reference_check_no_overlap(positions, side, dims, source_ids):
    """Overlap check by painting each pick's wrapped box on a full canvas
    mask per source; ``PickSet._check_no_overlap`` must accept and reject
    the same sets with the same message."""
    for source in dict.fromkeys(source_ids.tolist()):
        mask = np.zeros(dims, dtype=bool)
        rows = [i for i, s in enumerate(source_ids) if s == source]
        for i in rows:
            box = _reference_box(positions[i], side, dims)
            if mask[box].any():
                raise ArgumentError(
                    f"picks overlap within source {source!r} near center {tuple(positions[i])}"
                )
            mask[box] = True


def read_pgm(path):
    """Parse a binary 8-bit PGM (P5) preview back into uint8 pixels."""
    data = Path(path).read_bytes()
    magic, size, maxval, raster = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ShapeError(f"{path}: not an 8-bit P5 preview")
    width, height = (int(v) for v in size.split())
    pixels = np.frombuffer(raster[: width * height], dtype=np.uint8)
    return pixels.reshape(height, width)


def rotation_angle(first, second):
    """Geodesic angle (radians) between two ``Rotation`` values."""
    chord = min(
        np.linalg.norm(first.quaternion - second.quaternion),
        np.linalg.norm(first.quaternion + second.quaternion),
    )
    return 4.0 * np.arcsin(min(chord, 2.0) / 2.0)


def reference_rotate_volume(volume, rotation, interp="trilinear"):
    """``scipy.ndimage.affine_transform`` about the grid center, order 1
    (trilinear) or 0 (nearest), zero outside the domain and no spline
    prefilter: the resampling that ``RotationPlan`` must match byte for
    byte."""
    volume = np.asarray(volume, dtype=np.float64)
    center = (np.array(volume.shape, dtype=np.float64) - 1.0) / 2.0
    inverse = rotation.as_matrix().T
    offset = center - inverse @ center
    return ndimage.affine_transform(
        volume,
        inverse,
        offset=offset,
        order={"trilinear": 1, "nearest": 0}[interp],
        mode="constant",
        cval=0.0,
        prefilter=False,
    )


def _reference_log_posteriors(flat, means_flat, log_weights, sigma):
    sq = (
        np.einsum("ij,ij->i", flat, flat)[:, None]
        - 2.0 * flat @ means_flat.T
        + np.einsum("ij,ij->i", means_flat, means_flat)[None, :]
    )
    width = flat.shape[1]
    log_prob = log_weights[None, :] - sq / (2.0 * sigma ** 2)
    log_prob -= 0.5 * width * np.log(2.0 * np.pi * sigma ** 2)
    log_norm = logsumexp(log_prob, axis=1)
    return log_prob, log_norm


def reference_em_classify2d(picks, config):
    """The mixture fit with the row norms and the doubled stack formed on
    every iteration; ``em_classify2d`` must match it byte for byte."""
    stack = _patch_stack(picks)
    count = stack.shape[0]
    if count < config.class_count:
        raise ArgumentError(
            f"need at least {config.class_count} patches, got {count}"
        )
    flat = stack.reshape(count, -1)
    if count > 1 and float(np.ptp(flat, axis=0).max(initial=0.0)) < 1e-15:
        raise DegenerateDataError("all patches are identical")

    best = None
    for restart in range(config.restarts):
        rng = generator(config.seed, STREAM_EM_INIT + restart)
        means = config.sigma * rng.standard_normal(
            (config.class_count, flat.shape[1])
        )
        weights = np.full(config.class_count, 1.0 / config.class_count)
        trace = []
        totals = np.full(config.class_count, count / config.class_count)
        converged = False
        for _ in range(config.max_iters):
            log_prob, log_norm = _reference_log_posteriors(
                flat, means, np.log(weights), config.sigma
            )
            ll = float(log_norm.sum())
            if trace and abs(ll - trace[-1]) <= config.rel_tol * max(1.0, abs(ll)):
                trace.append(ll)
                converged = True
                break
            trace.append(ll)
            resp = np.exp(log_prob - log_norm[:, None])
            totals = resp.sum(axis=0)
            if totals.min() < 1e-300:
                raise DegenerateDataError("a class lost all responsibility mass")
            means = (resp.T @ flat) / totals[:, None]
        state = Gmm2dState(
            means=means.reshape((config.class_count,) + stack.shape[1:]),
            log_likelihoods=np.asarray(trace),
            class_totals=totals,
            converged=converged,
        )
        if best is None or state.log_likelihoods[-1] > best.log_likelihoods[-1]:
            best = state
    return best


def reference_em_reconstruct3d(picks, config):
    """The volume fit with the row norms and the doubled stack formed on
    every iteration; ``em_reconstruct3d`` must match it byte for byte."""
    stack = _patch_stack(picks)
    if stack.ndim != 4 or len(set(stack.shape[1:])) != 1:
        raise ShapeError("expected a stack of cubic patches")
    count = stack.shape[0]
    if count == 0:
        raise ArgumentError("no patches to reconstruct from")
    dims = stack.shape[1:]
    flat = stack.reshape(count, -1)
    grid = config.grid
    log_rotation_weights = np.log(np.full(len(grid), 1.0 / len(grid)))
    inverses = [rotation.inverse() for rotation in grid]
    ones = np.ones(dims)
    coverage = np.stack(
        [reference_rotate_volume(ones, inverse) for inverse in inverses]
    )

    best = None
    for restart in range(config.restarts):
        rng = generator(config.seed, STREAM_EM_INIT + restart)
        volume = config.sigma * rng.standard_normal(dims)
        trace = []
        converged = False
        previous = volume
        for _ in range(config.max_iters):
            rotated = np.stack(
                [reference_rotate_volume(volume, rotation) for rotation in grid]
            ).reshape(len(grid), -1)
            log_prob, log_norm = _reference_log_posteriors(
                flat, rotated, log_rotation_weights, config.sigma
            )
            ll = float(log_norm.sum())
            if trace and ll < trace[-1] - TRACE_TOL * max(1.0, abs(trace[-1])):
                volume = previous
                converged = True
                break
            if trace and abs(ll - trace[-1]) <= config.rel_tol * max(1.0, abs(ll)):
                trace.append(ll)
                converged = True
                break
            trace.append(ll)
            resp = np.exp(log_prob - log_norm[:, None])
            rotation_totals = resp.sum(axis=0)
            sums = (resp.T @ flat).reshape((len(grid),) + dims)
            numer = np.zeros(dims)
            denom = np.zeros(dims)
            for index, inverse in enumerate(inverses):
                numer += reference_rotate_volume(sums[index], inverse)
                denom += rotation_totals[index] * coverage[index]
            previous = volume
            volume = np.where(denom > 1e-12, numer / np.where(denom > 1e-12, denom, 1.0), 0.0)
        state = Recon3dState(
            volume=volume,
            log_likelihoods=np.asarray(trace),
            converged=converged,
        )
        if best is None or state.log_likelihoods[-1] > best.log_likelihoods[-1]:
            best = state
    return best
