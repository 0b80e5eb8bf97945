"""Particle pickers: thresholding on i.i.d. candidates, greedy micrograph
picking on correlation maps, and a random baseline.

Scores are raw inner products with unit-norm templates, so a threshold T is
in units of the noise deviation. Micrograph picking treats the canvas as
periodic: correlation, patch extraction, and the overlap mask all wrap.
Every patch window, and the box of centres an accepted pick blocks, is
indexed by ``tensors.box_index``; the patches of a call are one gather.

Micrograph picking correlates a 2D canvas in overlap-save tiles (Stockham
1966, as in FindEM, Roseman 2004): ``TILE_2D``-pixel tiles, gathered with
the wrapped box index ``TILE_GROUP`` at a time, each transformed once and
multiplied by the templates' conjugate spectra at tile size, built once
per call. A tile's inverse is exact at the corners where its correlation
does not wrap, and the tiles start that far apart, so every canvas corner
is scored once. A 3D canvas is one circular tile, and its template
spectra are built one at a time in the product workspace: tiling it would
cost more in overlap than it saves. Every forward transform (a tile
group, the 2D template stack, one 3D template) is ``_spectrum``, the
passes of ``rfftn`` on arrays zero-padded to the tile. The maps of a tile
group are merged in template order, a running ``np.maximum`` of the
scores with labels written only at pixels above the threshold that beat
the best so far, and only the corners above the threshold leave the
group. A 2D call thus holds no canvas-sized spectrum, product or map: its
memory is the template spectra, one group's working set per thread, and
the candidates.

The work is split across every usable core within one process, the calling
thread alone inside a worker process of a pool: the 2D tile groups in
blocks, or each FFT pass of the 3D tile in blocks of whole lines (a pass
along the first axis on the second, any other pass on the first), its
spectrum product in blocks of rows and its merge in disjoint ranges of
fixed pixel chunks; the passes of the 2D template stack are cut the same
way. A group, a line and a pixel are computed the same way in any block,
so the picks do not depend on the number of threads. Candidates are
shifted from corners to centres and sorted only after the merge. The
pickers that record positions take the canvas array and the caller's
source id, by which the overlap check groups the picks.
"""

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ShapeError
from .noisegen import draw_positions
from .rng import STREAM_RANDOM_PICKS, generator
from .tensors import box_index, malformed, read_meta, read_table, read_tensor, write_meta, write_table, write_tensor

PICK_CHUNK_ELEMENTS = 1 << 22
# 512 KiB of float64 scores: a chunk of the running best and of one map
# stay in cache between the label pass and the maximum.
MERGE_CHUNK_ELEMENTS = 1 << 16
# Candidates the greedy loop turns into Python ints at a time; a whole
# canvas of them would be the picker's peak memory at low thresholds.
GREEDY_CHUNK_ELEMENTS = 1 << 16
# Side of the overlap-save tiles a 2D canvas is correlated in. On 2048^2
# canvases with side-16 templates (2 cores), 64 took about twice as long,
# and 256 was no faster beyond noise with 4x the working set per thread.
TILE_2D = 128
# 2D tiles one thread transforms at once: one was slower, 16 no faster.
TILE_GROUP = 4


def _check_threshold(threshold):
    """The threshold as a float; minus infinity keeps every candidate, NaN
    would silently keep none."""
    threshold = float(threshold)
    if np.isnan(threshold):
        raise ArgumentError(f"picking threshold must be a number, got {threshold}")
    return threshold


@dataclass(frozen=True)
class PickSet:
    """Selected patches with their scores and provenance.

    positions (when present) are patch centers on the source canvas, and
    any two picks from the same source keep wrapped L-infinity distance of
    at least the patch side, so their boxes never overlap.
    """

    patches: np.ndarray
    scores: np.ndarray
    threshold: float
    labels: np.ndarray | None = None
    positions: np.ndarray | None = None
    canvas_dims: tuple | None = None
    source_ids: np.ndarray | None = None

    def __post_init__(self):
        patches = np.asarray(self.patches, dtype=np.float64)
        if patches.ndim not in (3, 4):
            raise ShapeError("patches must be a stack of 2D or 3D arrays")
        if len(set(patches.shape[1:])) != 1:
            raise ShapeError(f"patches must be square or cubic, got {patches.shape[1:]}")
        count = patches.shape[0]
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (count,):
            raise ShapeError("scores must be one value per patch")
        if not np.all(np.isfinite(scores)):
            raise ArgumentError("scores contain non-finite values")
        threshold = _check_threshold(self.threshold)
        if not np.all(scores >= threshold):
            raise ArgumentError("every pick score must be at least the threshold")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (count,):
                raise ShapeError("labels must be one value per patch")
        positions = self.positions
        if positions is not None:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.shape != (count, patches.ndim - 1):
                raise ShapeError("positions must give one center per patch axis")
            if self.canvas_dims is None:
                raise ArgumentError("positions require canvas_dims")
        dims = None if self.canvas_dims is None else tuple(int(k) for k in self.canvas_dims)
        if dims is not None and len(dims) != patches.ndim - 1:
            raise ShapeError("canvas_dims rank does not match patches")
        if dims is not None and min(dims) < 1:
            raise ShapeError(f"canvas_dims must be positive, got {dims}")
        source_ids = self.source_ids
        if source_ids is None:
            source_ids = np.array([""] * count, dtype=object)
        else:
            source_ids = np.array([str(s) for s in np.asarray(source_ids, dtype=object)], dtype=object)
            if source_ids.shape != (count,):
                raise ShapeError("source_ids must be one value per patch")
        if positions is not None:
            self._check_no_overlap(positions, patches.shape[1], dims, source_ids)
        for name, value in (
            ("patches", patches),
            ("scores", scores),
            ("threshold", threshold),
            ("labels", labels),
            ("positions", positions),
            ("canvas_dims", dims),
            ("source_ids", source_ids),
        ):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @staticmethod
    def _check_no_overlap(positions, side, dims, source_ids):
        """Reject two picks of one source whose wrapped boxes share a pixel.

        Two boxes overlap exactly when their centres are closer than ``side``
        on every axis, in wrapped distance. Centres are swept in cyclic order
        along the longest axis, so each pick meets only the picks within
        ``side`` of it there. The error names the first row that overlaps an
        earlier row of its source.
        """
        extent = np.asarray(dims)
        axis = int(np.argmax(extent))
        for source in dict.fromkeys(source_ids.tolist()):
            rows = np.flatnonzero(source_ids == source)
            centres = positions[rows] % extent
            order = np.argsort(centres[:, axis], kind="stable")
            first = len(rows)
            # The forward gap along the axis only grows with the step until it
            # wraps, so once no pair is near, no later step holds an unseen one.
            for step in range(1, len(rows)):
                ahead = np.roll(order, -step)
                near = (centres[ahead, axis] - centres[order, axis]) % extent[axis] < side
                if not near.any():
                    break
                a, b = order[near], ahead[near]
                gap = np.abs(centres[a] - centres[b])
                hit = np.all(np.minimum(gap, extent - gap) < side, axis=1)
                first = min(first, int(np.maximum(a, b)[hit].min(initial=first)))
            if first < len(rows):
                i = rows[first]
                raise ArgumentError(
                    f"picks overlap within source {source!r} near center {tuple(positions[i])}"
                )

    def __len__(self):
        return self.patches.shape[0]

    @property
    def side(self):
        return self.patches.shape[1]

    # Only tests call ``subset``; perfbench's tracer wraps it by name.
    def subset(self, rows):
        rows = np.asarray(rows)
        return PickSet(
            patches=self.patches[rows],
            scores=self.scores[rows],
            threshold=self.threshold,
            labels=None if self.labels is None else self.labels[rows],
            positions=None if self.positions is None else self.positions[rows],
            canvas_dims=self.canvas_dims,
            source_ids=self.source_ids[rows],
        )

    @classmethod
    def concat(cls, sets, limit=None):
        """The picks of ``sets`` in order, only the first ``limit`` of them
        when a limit is given. Each set is cut to its share of the limit
        before the one concatenation, so the stack is copied and checked
        once."""
        sets = list(sets)
        if not sets:
            raise ArgumentError("nothing to concatenate")
        if limit is not None and limit < 0:
            raise ArgumentError(f"limit must be nonnegative, got {limit}")
        first = sets[0]
        for other in sets[1:]:
            if other.patches.shape[1:] != first.patches.shape[1:]:
                raise ShapeError("patch dims differ between pick sets")
            if other.threshold != first.threshold:
                raise ArgumentError("thresholds differ between pick sets")
            if (other.positions is None) != (first.positions is None):
                raise ArgumentError("cannot mix picks with and without positions")
            if (other.labels is None) != (first.labels is None):
                raise ArgumentError("cannot mix labeled and unlabeled picks")
            if other.canvas_dims != first.canvas_dims:
                raise ArgumentError("canvas dims differ between pick sets")
        cuts = [slice(None)] * len(sets)
        if limit is not None:
            room = limit
            for index, other in enumerate(sets):
                cuts[index] = slice(0, min(len(other), room))
                room -= cuts[index].stop

        def joined(name):
            return np.concatenate([getattr(s, name)[cut] for s, cut in zip(sets, cuts)])

        return cls(
            patches=joined("patches"),
            scores=joined("scores"),
            threshold=first.threshold,
            labels=None if first.labels is None else joined("labels"),
            positions=None if first.positions is None else joined("positions"),
            canvas_dims=first.canvas_dims,
            source_ids=joined("source_ids"),
        )


def pick_iid(candidates, template_set, threshold, source_id=""):
    """Keep every candidate whose best template correlation reaches the
    threshold (inclusive), preserving candidate order.

    Labels record the best template, ties broken toward the smaller index.
    A candidate whose best correlation is NaN or infinite raises
    ``ArgumentError`` rather than being silently dropped or kept.
    """
    threshold = _check_threshold(threshold)
    stack = np.asarray(candidates, dtype=np.float64)
    templates = template_set.templates
    if stack.ndim != templates.ndim or stack.shape[1:] != templates.shape[1:]:
        raise ShapeError(
            f"candidate dims {stack.shape[1:]} do not match template dims {templates.shape[1:]}"
        )
    flat_templates = templates.reshape(len(template_set), -1)
    width = flat_templates.shape[1]
    step = max(1, PICK_CHUNK_ELEMENTS // width)
    kept, scores, labels = [], [], []
    for start in range(0, stack.shape[0], step):
        chunk = stack[start:start + step].reshape(-1, width)
        dots = chunk @ flat_templates.T
        best = dots.max(axis=1)
        if not np.all(np.isfinite(best)):
            raise ArgumentError("candidates must have finite correlations with the templates")
        keep = best >= threshold
        if np.any(keep):
            kept.append(stack[start:start + step][keep])
            scores.append(best[keep])
            labels.append(np.argmax(dots[keep], axis=1))
    if kept:
        patches = np.concatenate(kept)
        scores = np.concatenate(scores)
        labels = np.concatenate(labels).astype(np.int64)
    else:
        patches = np.empty((0,) + templates.shape[1:])
        scores = np.empty(0)
        labels = np.empty(0, dtype=np.int64)
    return PickSet(
        patches=patches,
        scores=scores,
        threshold=threshold,
        labels=labels,
        source_ids=np.array([source_id] * len(scores), dtype=object),
    )


def _blocks(lines, workers):
    """``range(lines)`` cut into at most ``workers`` contiguous slices of
    near-equal length; empty slices are dropped."""
    bounds = [lines * k // workers for k in range(workers + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def _splitter(workers, run=map):
    """``split(task, lines)``: ``task`` on each block of
    ``_blocks(lines, workers)``, mapped with ``run``, returning once every
    block is done."""

    def split(task, lines):
        for _ in run(task, _blocks(lines, workers)):
            pass

    return split


@contextmanager
def _split_across(workers):
    """A ``split`` for ``workers`` threads: the calling thread alone for
    one, else a thread pool that lives as long as the context (numpy's FFT
    and ufunc loops release the GIL)."""
    if workers == 1:
        yield _splitter(1)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield _splitter(workers, pool.map)


def _split_pass(split, transform, source, out, axis, n=None):
    """``transform(source, n, axis, out=out)`` in blocks of lines over a
    stack of arrays (axis 0 counts the arrays). A pass along axis 1 is cut
    on axis 2, any other pass on axis 1. Every line is transformed on its
    own, so the bytes do not depend on the blocks."""
    cut = 2 if axis == 1 else 1

    def block(lines):
        index = (slice(None),) * cut + (lines,)
        transform(source[index], n, axis, out=out[index])

    split(block, out.shape[cut])


def _quietly(transform):
    """``transform`` with numpy's invalid and overflow warnings off in the
    thread that runs it; numpy's error state does not cross threads."""

    def run(*args, **kwargs):
        with np.errstate(invalid="ignore", over="ignore"):
            return transform(*args, **kwargs)

    return run


def _spectrum(stack, dims, out, split):
    """``np.fft.rfftn`` of each array of ``stack`` zero-padded to ``dims``,
    written into ``out``; axis 0 counts the arrays.

    These are the passes of ``rfftn`` (``rfft`` on the last axis, then
    ``fft`` on each other axis from the inner ones outward), all in
    ``out``. The ``rfft`` pass writes the leading block that the arrays
    span on the other axes; each ``fft`` pass zeroes the padded rest of
    its axis within its own lines and runs in place, so no pass meets a
    line that is all zero and a padded line holds the bytes that ``n=``
    padding gives. Each pass is split as in ``_split_pass``.
    """
    rank = stack.ndim - 1
    lead = (slice(None),) + tuple(slice(0, k) for k in stack.shape[1:])
    _split_pass(split, _quietly(np.fft.rfft), stack, out[lead[:-1]], rank, n=dims[-1])
    for axis in range(rank - 1, 0, -1):
        rest = (slice(None),) * axis + (slice(stack.shape[axis], None),)

        def fft(block, n, axis, out, rest=rest):
            out[rest] = 0
            np.fft.fft(block, n, axis, out=out)

        lines = out[lead[:axis]]
        _split_pass(split, _quietly(fft), lines, lines, axis)
    return out


def _conjugate_spectrum(stack, dims, out, split):
    """The conjugate of ``_spectrum``, written into ``out``."""
    _spectrum(stack, dims, out, split)
    split(lambda rows: np.conjugate(out[:, rows], out=out[:, rows]), out.shape[1])
    return out


def _correlate(spectrum, conjugate, product, scores, split):
    """Circular correlation of each tile with one template, indexed by
    corner and written into ``scores``; ``spectrum`` holds the tiles'
    ``np.fft.rfftn``, ``conjugate`` the template's conjugate spectrum with
    a leading axis of one (or ``product`` itself), and ``product`` is a
    workspace of the spectrum's shape, overwritten.

    The product is formed with the tile spectrum as the first operand:
    ``spectrum * np.conj(...)`` would let numpy reuse the right temporary
    and multiply with the operands swapped, which changes the last bits of
    the scores. The inverse runs the passes of ``irfftn``, all but the last
    in place; the last runs only on the leading lines that ``scores``
    holds, as every line is transformed on its own. Every step is split
    into blocks of lines, with numpy's overflow warnings off: a score that
    overflows is reported as an ``ArgumentError`` once the maps are
    merged.
    """

    def multiply(rows):
        np.multiply(spectrum[:, rows], conjugate[:, rows], out=product[:, rows])

    split(_quietly(multiply), product.shape[1])
    rank = scores.ndim - 1
    for axis in range(1, rank):
        _split_pass(split, _quietly(np.fft.ifft), product, product, axis)
    lines = (slice(None),) + tuple(slice(0, k) for k in scores.shape[1:-1])
    _split_pass(split, _quietly(np.fft.irfft), product[lines], scores, rank, n=scores.shape[-1])


def _worker_count(lines):
    """Threads for one field: every usable core, at most ``lines`` (the
    units the work is cut into), but only the calling one inside a worker
    process of a pool, which already owns a core."""
    if multiprocessing.parent_process() is not None:
        return 1
    return min(lines, len(os.sched_getaffinity(0)))


def _merge_maps(fill, count, dims, threshold, split):
    """Pixelwise best of ``count`` score maps, made one at a time in
    template order by ``fill(index, out)``, and the first template reaching
    it wherever that best is above ``threshold``.

    Map 0 is written straight into the running best, and every later map
    into one reused buffer. Each later map takes one pass, a chunk of
    pixels at a time, the chunks split among the workers in disjoint
    ranges: its pixels above the threshold that beat the running best get
    the map's label, then ``np.maximum(scores, best, out=best)`` takes the
    chunk in. On a tie of +0.0 and -0.0, ``np.maximum`` returns its second
    operand, so ``best`` keeps the earlier map's bytes, as does a merge
    that takes a score only where it is strictly greater. The last write at
    a pixel is by the first map reaching its final best, and a pixel whose
    best is not above the threshold is never written: its label is 0 and
    must not be read. Chunks bound the index arrays even when every pixel
    is above the threshold.
    """
    best = np.empty(dims)
    fill(0, best)
    best_label = np.zeros(dims, dtype=np.min_scalar_type(count - 1))
    # a single map needs no score buffer
    scores = np.empty(dims if count > 1 else 0)
    best_flat, label_flat, scores_flat = best.reshape(-1), best_label.reshape(-1), scores.reshape(-1)
    for index in range(1, count):
        fill(index, scores)

        def merge(chunks):
            for number in range(chunks.start, chunks.stop):
                chunk = slice(number * MERGE_CHUNK_ELEMENTS, (number + 1) * MERGE_CHUNK_ELEMENTS)
                map_chunk, running = scores_flat[chunk], best_flat[chunk]
                above = np.flatnonzero(map_chunk > threshold)
                label_flat[chunk][above[map_chunk[above] > running[above]]] = index
                np.maximum(map_chunk, running, out=running)

        split(merge, -(-best.size // MERGE_CHUNK_ELEMENTS))
    return best, best_label


def _tiling(dims, template_dims):
    """The tiles a canvas is correlated in: the tile shape, the corners a
    tile yields on each axis, and the tile origins, one row per tile in
    row-major order.

    A 3D canvas is one tile, correlated circularly, so every corner is
    valid. A 2D canvas is cut into overlap-save tiles (Stockham 1966) of
    ``TILE_2D`` pixels a side, or of the smallest power of two at least
    twice the template side when that is larger. Within a tile the
    correlation with a template zero-padded to the tile does not wrap at
    the first ``tile - side + 1`` corners on each axis, so those are the
    canvas's wrapped correlations there; the tiles start that many corners
    apart, and the last ones on each axis reach past the canvas.
    """
    if len(dims) == 3:
        return dims, dims, np.zeros((1, 3), dtype=np.intp)
    edge = max(TILE_2D, 1 << (2 * max(template_dims) - 1).bit_length())
    valid = tuple(edge - k + 1 for k in template_dims)
    starts = np.meshgrid(*(np.arange(0, dim, width) for dim, width in zip(dims, valid)), indexing="ij")
    return (edge, edge), valid, np.stack([s.reshape(-1) for s in starts], axis=1)


def _corners_above(best, labels, origins, valid, dims, threshold):
    """Flat canvas corner indices, scores and labels of the valid corners
    of a stack of tile maps whose best is above ``threshold``, in tile
    order; corners past the canvas are dropped."""
    region = (slice(None),) + tuple(slice(0, width) for width in valid)
    best, labels = best[region], labels[region]
    hit = best > threshold
    for axis, (dim, width) in enumerate(zip(dims, valid)):
        shape = [len(origins)] + [1] * len(dims)
        shape[axis + 1] = width
        hit &= (origins[:, axis, None] + np.arange(width) < dim).reshape(shape)
    tile, *local = np.nonzero(hit)
    corner = np.ravel_multi_index(tuple(origins[tile, axis] + local[axis] for axis in range(len(dims))), dims)
    return corner, best[hit], labels[hit]


def _tile_candidates(canvas, templates, threshold):
    """The corners of ``canvas`` whose best correlation over ``templates``
    is above ``threshold``: flat corner indices, scores and the first
    template reaching each score.

    The canvas is correlated tile group by tile group (``_tiling``). A
    group is ``TILE_GROUP`` 2D tiles gathered with the wrapped
    ``box_index``, or the 3D canvas itself. Its spectrum is taken once;
    each template's map is its spectrum times the template's conjugate
    spectrum, inverted, and merged into the group's best in template
    order (``_merge_maps``); only the valid corners above the threshold
    are kept. The conjugate template spectra at 2D tile size are built
    once per call; at 3D canvas size, one at a time in the product
    workspace. The threads go across the groups when there are several,
    else within the one group's passes; either way every group, line and
    pixel is computed the same way, so the result does not depend on the
    thread count.
    """
    dims = canvas.shape
    tile, valid, origins = _tiling(dims, templates.shape[1:])
    # the one tile is the canvas: read it in place, build template spectra on demand
    whole = len(origins) == 1 and tile == dims
    groups = [origins[k:k + TILE_GROUP] for k in range(0, len(origins), TILE_GROUP)]
    found = [None] * len(groups)
    with _split_across(_worker_count(len(groups) if len(groups) > 1 else tile[0])) as split:
        outer, inner = (split, _splitter(1)) if len(groups) > 1 else (_splitter(1), split)
        spectral = tile[:-1] + (tile[-1] // 2 + 1,)
        cache = None
        if not whole:
            cache = np.empty((len(templates),) + spectral, dtype=np.complex128)
            _conjugate_spectrum(templates, tile, cache, split)

        def run(numbers):
            for number in range(numbers.start, numbers.stop):
                group = groups[number]
                tiles = canvas[None] if whole else canvas[box_index(group + tile[0] // 2, tile[0], dims)]
                spectrum = np.empty((len(tiles),) + spectral, dtype=np.complex128)
                _spectrum(tiles, tile, spectrum, inner)
                # a tile's DC coefficient is its sum: not finite exactly when
                # the tile holds a NaN or an infinity or its sum overflows
                if not np.isfinite(spectrum[(slice(None),) + (0,) * len(tile)]).all():
                    raise ArgumentError("canvas must be finite, with tile sums that do not overflow")
                product = np.empty_like(spectrum)

                def fill(index, out):
                    if cache is None:
                        conjugate = product
                        _conjugate_spectrum(templates[index:index + 1], tile, product, inner)
                    else:
                        conjugate = cache[index:index + 1]
                    _correlate(spectrum, conjugate, product, out, inner)

                # the maps hold only the lines with valid corners
                maps = (len(group),) + valid[:-1] + tile[-1:]
                best, labels = _merge_maps(fill, len(templates), maps, threshold, inner)
                if not np.isfinite(best).all():
                    raise ArgumentError("canvas must be finite, with correlations that do not overflow")
                found[number] = _corners_above(best, labels, group, valid, dims, threshold)

        outer(run, len(groups))
    return tuple(np.concatenate(part) for part in zip(*found))


def correlation_map(canvas, template):
    """Circular cross-correlation scores indexed by patch center.

    Entry p is the inner product of the template with the wrapped patch
    whose center sits at p (corner at p - side//2 mod canvas dims). The
    map is made in the tiles ``pick_micrograph`` uses, so its pixelwise
    maximum over templates is bit for bit the pick scores. A canvas that
    is not finite, or whose tile sums or correlations overflow, raises
    ``ArgumentError``.
    """
    canvas = np.asarray(canvas, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    if canvas.ndim != template.ndim:
        raise ShapeError("canvas and template rank differ")
    if any(k < d for k, d in zip(canvas.shape, template.shape)):
        raise ShapeError("canvas must be at least as large as the template")
    corner, scores, _ = _tile_candidates(canvas, template[None], -np.inf)
    corner_scores = np.empty(canvas.shape)
    corner_scores.reshape(-1)[corner] = scores
    shifts = [d // 2 for d in template.shape]
    return np.roll(corner_scores, shifts, axis=tuple(range(canvas.ndim)))


def pick_micrograph(canvas, template_set, threshold, source_id):
    """Greedy correlation picker over a full canvas.

    Builds the best correlation over all templates at every corner, walks
    the corners above the threshold (strict) in descending score order,
    and accepts each whose patch box does not touch an already accepted
    box. Boxes wrap at the borders. The flattened centre index breaks ties
    only between bit-equal scores: correlations that are equal
    mathematically (say, on an integer canvas) usually differ in their
    last bits, so FFT rounding orders them. A canvas that is not finite,
    or whose tile sums or correlations overflow, raises ``ArgumentError``.

    A 2D canvas is correlated in overlap-save tiles of ``TILE_2D`` pixels,
    ``TILE_GROUP`` tiles at a time, with the templates' conjugate spectra
    at tile size built once per call; a 3D canvas is one circular tile
    (``_tile_candidates``). Only the candidates above the threshold leave a
    group, so a 2D call holds no canvas-sized spectrum or map: its memory
    is the cached template spectra, one group's tiles, spectrum, product
    and maps per thread, and the candidates. One thread per usable core
    (the calling thread alone inside a worker process of a pool) takes the
    2D groups, or the passes of the 3D tile, in blocks; no group, line or
    pixel is computed differently in any block and the merge order is
    fixed, so the result does not depend on the thread count. Scores are
    bit-identical to the pixelwise maximum of ``correlation_map`` over the
    templates, and labels record the first template reaching it. Only the
    candidates are shifted from corners to centres. Every pick carries
    ``source_id``.
    """
    threshold = _check_threshold(threshold)
    canvas = np.asarray(canvas, dtype=np.float64)
    if canvas.ndim != template_set.templates.ndim - 1:
        raise ShapeError("canvas rank does not match template rank")
    side = template_set.side
    if any(k < side for k in canvas.shape):
        raise ShapeError("canvas must be at least as large as the templates")

    dims = canvas.shape
    corner, candidate_scores, candidate_labels = _tile_candidates(canvas, template_set.templates, threshold)
    # a centre sits side // 2 past its corner on every axis, wrapped
    shifted = (axis + side // 2 for axis in np.unravel_index(corner, dims))
    centre = np.ravel_multi_index(tuple(shifted), dims, mode="wrap")
    del corner
    # descending score, ties by ascending centre index
    order = np.lexsort((centre, -candidate_scores))
    centre = centre[order]
    # Two side-boxes overlap exactly when their centres lie within side - 1
    # of each other (wrapped) on every axis, so an accepted pick blocks the
    # (2 side - 1)^d box of centres around it.
    blocked = np.zeros(dims, dtype=bool)
    blocked_flat = blocked.reshape(-1)
    ranks, centers = [], []
    for start in range(0, len(centre), GREEDY_CHUNK_ELEMENTS):
        chunk = centre[start : start + GREEDY_CHUNK_ELEMENTS].tolist()
        for rank, flat_index in enumerate(chunk, start):
            if blocked_flat[flat_index]:
                continue
            center = np.unravel_index(flat_index, dims)
            blocked[box_index(center, 2 * side - 1, dims)] = True
            ranks.append(rank)
            centers.append(center)

    accepted = order[ranks]
    positions = np.asarray(centers, dtype=np.int64).reshape(-1, canvas.ndim)
    return PickSet(
        patches=canvas[box_index(positions, side, dims)],
        scores=candidate_scores[accepted],
        threshold=threshold,
        labels=candidate_labels[accepted].astype(np.int64),
        positions=positions,
        canvas_dims=dims,
        source_ids=np.array([source_id] * len(accepted), dtype=object),
    )


def pick_random(canvas, side, count, seed, source_id):
    """Baseline that ignores content: uniform non-overlapping patches of
    the given side.

    Scores are recorded as zero and the threshold is minus infinity, so the
    score invariant is vacuous. Every pick carries ``source_id``.
    """
    canvas = np.asarray(canvas, dtype=np.float64)
    side = int(side)
    if side < 1:
        raise ArgumentError("patch side must be positive")
    rng = generator(seed, STREAM_RANDOM_PICKS)
    positions = draw_positions(canvas.shape, side, count, rng)
    positions = np.asarray(positions, dtype=np.int64).reshape(-1, canvas.ndim)
    return PickSet(
        patches=canvas[box_index(positions, side, canvas.shape)],
        scores=np.zeros(len(positions)),
        threshold=float("-inf"),
        positions=positions,
        canvas_dims=canvas.shape,
        source_ids=np.array([source_id] * len(positions), dtype=object),
    )


def tile_field(canvas, side):
    """Disjoint side-aligned tiles; the trailing remainder is dropped."""
    steps = [dim // side for dim in canvas.shape]
    trimmed = canvas[tuple(slice(0, n * side) for n in steps)]
    ndim = canvas.ndim
    tiles = trimmed.reshape([size for n in steps for size in (n, side)])
    tiles = tiles.transpose(list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2)))
    return tiles.reshape((-1,) + (side,) * ndim)


def pick_field(canvas, template_set, algorithm, threshold, count, seed, source_id):
    """Pick one canvas with the named algorithm (one of ``config.ALGORITHMS``).

    ``micrograph`` runs the greedy correlation picker, ``iid`` thresholds
    the disjoint template-sized tiles, and ``random`` draws ``count``
    content-blind patches from ``seed``; only ``random`` reads ``count``
    and ``seed``, and only the other two read ``threshold``.
    """
    if algorithm == "micrograph":
        return pick_micrograph(canvas, template_set, threshold, source_id=source_id)
    if algorithm == "iid":
        tiles = tile_field(canvas, template_set.side)
        return pick_iid(tiles, template_set, threshold, source_id=source_id)
    if algorithm == "random":
        return pick_random(canvas, template_set.side, count, seed=seed, source_id=source_id)
    raise ArgumentError(f"unknown picking algorithm {algorithm!r}")


def save_picks(picks, directory, name="picks"):
    """Write the patch stack as one tensor file plus two CSV manifests."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if len(picks) > 0:
        write_tensor(directory / f"{name}.sfn", picks.patches)
    dims = picks.canvas_dims
    write_meta(
        directory / f"{name}.meta.csv",
        [
            ("count", len(picks)),
            ("threshold", picks.threshold),
            ("patch_ndim", picks.patches.ndim - 1),
            ("patch_side", picks.side),
            ("has_labels", int(picks.labels is not None)),
            ("has_positions", int(picks.positions is not None)),
            ("canvas_dims", "" if dims is None else "x".join(str(k) for k in dims)),
        ],
    )
    axes = [] if picks.positions is None else [f"position{i}" for i in range(picks.positions.shape[1])]
    labels = [-1] * len(picks) if picks.labels is None else picks.labels
    positions = [()] * len(picks) if picks.positions is None else picks.positions
    rows = zip(range(len(picks)), picks.scores, labels, positions, picks.source_ids)
    return write_table(
        directory / f"{name}.csv",
        ["index", "score", "label", *axes, "source_id"],
        ((i, score, label, *position, source) for i, score, label, position, source in rows),
    )


def load_picks(directory, name="picks"):
    directory = Path(directory)
    meta_path = directory / f"{name}.meta.csv"
    meta = read_meta(
        meta_path,
        ("count", "threshold", "patch_ndim", "patch_side", "has_labels", "has_positions", "canvas_dims"),
    )
    with malformed(meta_path):
        count = int(meta["count"])
        ndim = int(meta["patch_ndim"])
        side = int(meta["patch_side"])
        has_labels = bool(int(meta["has_labels"]))
        has_positions = bool(int(meta["has_positions"]))
        dims = meta["canvas_dims"]
        canvas_dims = tuple(int(k) for k in dims.split("x")) if dims else None
        threshold = float(meta["threshold"])
    if count < 0 or ndim not in (2, 3):
        raise ArgumentError(f"{meta_path}: bad count {count} or patch rank {ndim}")
    if count > 0:
        patches = read_tensor(directory / f"{name}.sfn")
        if patches.shape != (count,) + (side,) * ndim:
            raise ArgumentError(
                f"patch stack {patches.shape} does not match recorded count {count}, "
                f"rank {ndim} and side {side}"
            )
    else:
        with malformed(meta_path):
            patches = np.empty((0,) + (side,) * ndim)
    table_path = directory / f"{name}.csv"
    axes = [f"position{axis}" for axis in range(ndim)] if has_positions else []
    _, rows = read_table(table_path, ["index", "score", "label", *axes, "source_id"])
    with malformed(table_path):
        if [int(row["index"]) for row in rows] != list(range(count)):
            raise ArgumentError(f"{table_path}: index column is not 0..{count - 1}")
        scores = np.array([float(row["score"]) for row in rows])
        labels = np.array([int(row["label"]) for row in rows], dtype=np.int64)
        positions = np.array([[int(row[axis]) for axis in axes] for row in rows], dtype=np.int64)
    return PickSet(
        patches=patches,
        scores=scores,
        threshold=threshold,
        labels=labels if has_labels else None,
        positions=positions.reshape(count, ndim) if has_positions else None,
        canvas_dims=canvas_dims,
        source_ids=np.array([row["source_id"] for row in rows], dtype=object),
    )
