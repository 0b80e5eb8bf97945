"""Synthetic noise canvases and particle planting.

Fields are white Gaussian noise keyed by ``(seed, stream)``; planted
canvases add variance-normalized structure at non-overlapping sites and
then the same noise field on top, so a planted canvas minus its clean
signal equals the pure-noise field for that key exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DegenerateTemplateError, SaturationError, ShapeError
from .rng import STREAM_PLACEMENT, generator
from .tensors import box_index, malformed, read_table, write_table

MAX_PLACEMENT_ATTEMPTS = 1_000_000
MAX_FILL_FRACTION = 0.25


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise scale plus the RNG key that makes a field reproducible."""

    sigma: float
    seed: int
    stream: int = 0

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ArgumentError(f"sigma must be positive and finite, got {self.sigma}")


@dataclass(frozen=True)
class PlantRecord:
    """Ground-truth location of one planted structure (center voxel)."""

    index: int
    position: tuple
    projection_index: int


@dataclass
class SyntheticField:
    """A noisy canvas and its ground-truth plant list."""

    canvas: np.ndarray
    truth: list = field(default_factory=list)


def gaussian_field(dims, spec):
    """White Gaussian noise with standard deviation ``spec.sigma``.

    The Philox key is ``(seed, stream)``, so the same key always yields
    the same field and distinct streams are independent.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) not in (2, 3) or any(d < 1 for d in dims):
        raise ShapeError(f"canvas dims must be 2D or 3D positive, got {dims}")
    field = generator(spec.seed, spec.stream).standard_normal(dims)
    # scaled in place: no second canvas-sized array
    field *= spec.sigma
    return field


def _normalize_projections(projections):
    stack = np.asarray(projections, dtype=np.float64)
    if stack.ndim not in (3, 4):
        raise ShapeError("projections must be a stack of 2D or 3D patches")
    sides = stack.shape[1:]
    if len(set(sides)) != 1:
        raise ShapeError(f"projections must be square/cubic, got {sides}")
    out = np.empty_like(stack)
    for i, proj in enumerate(stack):
        spread = proj.std()
        if spread < 1e-12:
            raise DegenerateTemplateError(f"projection {i} has zero variance")
        out[i] = proj / spread
    return out


def draw_positions(dims, side, count, rng, occupied=(), budget=MAX_PLACEMENT_ATTEMPTS):
    """Uniform centers whose boxes fit inside the canvas and never overlap.

    Overlap means L-infinity center distance below the patch side.  Draws
    are rejected and retried up to a global attempt budget; exhausting it
    raises a saturation error.  So does, before any draw, a count that
    cannot fit: every run of ``side`` consecutive cells holds one cell equal
    to ``side - 1`` mod ``side``, so disjoint in-canvas boxes number at most
    the product of ``dim // side`` over the axes.  A draw is one lookup in
    a mask of the centers that placed boxes block; once none is free, the
    saturation error comes without a further draw.
    """
    if count < 0:
        raise ArgumentError(f"count must be nonnegative, got {count}")
    dims = tuple(dims)
    room = int(np.prod([dim // side for dim in dims]))
    if count + len(occupied) > room:
        raise SaturationError(
            f"{count} patches of side {side} beside {len(occupied)} placed cannot fit in "
            f"{'x'.join(str(dim) for dim in dims)}: at most {room} disjoint boxes do"
        )
    if count == 0:
        return []
    half = side // 2
    highs = np.array([dim - side + 1 for dim in dims], dtype=np.int64)
    # blocked[offset]: center offset + half is within side - 1 of a placed one
    blocked = np.zeros(highs, dtype=bool)
    free = blocked.size

    def block(offset):
        nonlocal free
        box = blocked[tuple(slice(max(o - side + 1, 0), max(o + side, 0)) for o in offset)]
        free -= box.size - np.count_nonzero(box)
        box[...] = True

    for p in occupied:
        block([int(c) - half for c in p])
    fresh = []
    attempts = 0
    while len(fresh) < count:
        if attempts >= budget or free == 0:
            raise SaturationError(
                f"placed {len(fresh)} of {count} patches after {attempts} attempts"
            )
        attempts += 1
        offset = rng.integers(0, highs)
        key = tuple(offset.tolist())
        if not blocked[key]:
            block(key)
            fresh.append(offset + half)
    return fresh


def plant_particles(dims, projections, count, spec, target_snr):
    """Plant ``count`` variance-normalized structures in a noisy canvas.

    Each site gets a uniformly chosen projection scaled so its per-pixel
    variance over the patch is ``target_snr * sigma^2``; the full noise
    field for ``spec`` is added afterwards.  Positions are centers, drawn
    uniformly without overlap and fully inside the canvas.

    With ``count=0`` this returns a pure-noise field.
    """
    dims = tuple(int(d) for d in dims)
    canvas = gaussian_field(dims, spec)
    if count == 0:
        return SyntheticField(canvas=canvas, truth=[])
    if count < 0:
        raise ArgumentError("count must be nonnegative")
    if not np.isfinite(target_snr) or target_snr <= 0.0:
        raise ArgumentError("target_snr must be positive when planting")
    stack = _normalize_projections(projections)
    side = stack.shape[1]
    if any(side > dim for dim in dims):
        raise ShapeError(f"patch side {side} exceeds canvas dims {dims}")
    if len(dims) != stack.ndim - 1:
        raise ShapeError("projection rank must match canvas rank")
    if count * side ** len(dims) > MAX_FILL_FRACTION * np.prod(dims):
        raise ArgumentError(
            f"{count} patches of side {side} exceed {MAX_FILL_FRACTION:.0%} of the canvas"
        )
    rng = generator(spec.seed, spec.stream ^ STREAM_PLACEMENT)
    positions = draw_positions(dims, side, count, rng)
    scale = np.sqrt(target_snr) * spec.sigma
    clean = np.zeros(dims)
    truth = []
    for index, center in enumerate(positions):
        pick = int(rng.integers(0, len(stack)))
        clean[box_index(center, side, dims)] += scale * stack[pick]
        truth.append(
            PlantRecord(index=index, position=tuple(int(c) for c in center), projection_index=pick)
        )
    return SyntheticField(canvas=clean + canvas, truth=truth)


def write_truth(path, records, ndim):
    """Write plant records of an ``ndim``-axis field as CSV: index, center
    axes, projection index."""
    axes = [f"axis{i}" for i in range(ndim)]
    return write_table(
        path,
        ["index", *axes, "projection_index"],
        ((rec.index, *rec.position, rec.projection_index) for rec in records),
    )


def read_truth(path):
    header, rows = read_table(path, ("index", "projection_index"))
    if header[0] != "index" or header[-1] != "projection_index":
        raise ArgumentError(f"{path}: not a truth table")
    records = []
    with malformed(path):
        for row in rows:
            records.append(
                PlantRecord(
                    index=int(row["index"]),
                    position=tuple(int(row[axis]) for axis in header[1:-1]),
                    projection_index=int(row["projection_index"]),
                )
            )
    return records
