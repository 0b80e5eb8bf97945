"""Dense tensors, rotations, projection, and the on-disk formats.

Volumes follow the active rotation convention: the rotated volume reads
the original at inversely rotated coordinates, measured about the grid
center ``(n - 1) / 2``, and resampling is trilinear.  ``RotationPlan``
is the one resampling path: a gather, precomputed once per rotation list
over the output voxels whose source point is inside the volume, that
reproduces ``scipy.ndimage.affine_transform``'s order-1 arithmetic bit
for bit; ``rotate_volume`` is its one-rotation case.

``box_index`` is the one patch-window index: picking gathers its patches
and planting writes its particles through it, boxes wrapping at the
canvas edges.

Tensor files (``write_tensor``/``read_tensor``) hold the array's own
float64 bytes, so an artifact reads back exactly as it was computed and
a stage command that reads it repeats the run that wrote it.

Every CSV artifact is written by ``table_text``/``write_table``/
``write_meta`` and read by ``read_table``/``read_meta``: the default
``csv`` dialect (CRLF line ends), floats (numpy's included) as
``%.17g`` so they read back exactly, every other cell as ``str``.
"""

import csv
import io
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .rng import STREAM_ROTATION_GRID, generator

TENSOR_MAGIC = b"SFN2"
# The single-precision format of earlier versions; its files are rejected.
RETIRED_MAGIC = b"SFN1"

# Grid rotations closer than this (radians) count as duplicates.
MIN_GRID_ANGLE = 1e-9


def as_tensor(values, ndim=None):
    """Validate and return a float64 tensor with 1 to 3 axes."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > 3:
        raise ShapeError(f"tensors carry 1 to 3 axes, got {arr.ndim}")
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"expected {ndim} axes, got {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("tensor values must be finite")
    return arr


def _check_cubic(volume):
    v = np.asarray(volume, dtype=np.float64)
    if v.ndim != 3 or len(set(v.shape)) != 1:
        raise ShapeError(f"expected a cubic volume, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class Rotation:
    """A 3D rotation stored as a unit quaternion ``(w, x, y, z)``."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = np.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-12:
            raise ArgumentError(f"quaternion norm must be 1 within 1e-12, got {norm!r}")

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_quaternion(cls, q):
        """Build from any nonzero 4-vector, normalizing it."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (4,):
            raise ShapeError("quaternion must have 4 components")
        norm = np.linalg.norm(q)
        if not np.isfinite(norm) or norm < 1e-12:
            raise ArgumentError("quaternion must be nonzero and finite")
        q = q / norm
        return cls(*q)

    @classmethod
    def from_axis_angle(cls, axis, angle):
        axis = np.asarray(axis, dtype=np.float64)
        norm = np.linalg.norm(axis)
        if norm < 1e-12:
            raise ArgumentError("rotation axis must be nonzero")
        half = 0.5 * angle
        return cls.from_quaternion(
            np.concatenate(([np.cos(half)], np.sin(half) * axis / norm))
        )

    def compose(self, other):
        """Rotation equal to applying ``other`` first, then ``self``."""
        w1, v1 = self.w, np.array([self.x, self.y, self.z])
        w2, v2 = other.w, np.array([other.x, other.y, other.z])
        w = w1 * w2 - v1 @ v2
        v = w1 * v2 + w2 * v1 + np.cross(v1, v2)
        return Rotation.from_quaternion(np.concatenate(([w], v)))

    def inverse(self):
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def as_matrix(self):
        """3x3 matrix acting on column coordinates."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )


@dataclass(frozen=True)
class RotationGrid:
    """An ordered set of pairwise-distinct rotations plus its seed."""

    quaternions: np.ndarray
    seed: int

    def __post_init__(self):
        q = np.asarray(self.quaternions, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != 4 or q.shape[0] < 1:
            raise ShapeError("quaternions must form an (L, 4) array")
        norms = np.linalg.norm(q, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ArgumentError("grid quaternions must be unit norm")
        object.__setattr__(self, "quaternions", q)
        self._check_distinct(q)

    @staticmethod
    def _check_distinct(q):
        # Dots first (cheap); only near-duplicates get the exact chordal test.
        max_chord = 2.0 * np.sin(MIN_GRID_ANGLE / 4.0)
        block = 1024
        for start in range(0, len(q), block):
            rows = q[start : start + block]
            dots = np.abs(rows @ q.T)
            for i, j in zip(*np.nonzero(dots > 1.0 - 1e-10)):
                gi = start + i
                if gi >= j:
                    continue
                chord = min(
                    np.linalg.norm(q[gi] - q[j]), np.linalg.norm(q[gi] + q[j])
                )
                if chord < max_chord:
                    raise ArgumentError(
                        f"grid rotations {gi} and {j} coincide within {MIN_GRID_ANGLE} rad"
                    )

    def __len__(self):
        return len(self.quaternions)

    def __getitem__(self, index):
        return Rotation.from_quaternion(self.quaternions[index])

    def __iter__(self):
        for q in self.quaternions:
            yield Rotation.from_quaternion(q)

    @classmethod
    def identity(cls):
        """Single-rotation grid holding only the identity."""
        return cls(np.array([[1.0, 0.0, 0.0, 0.0]]), seed=-1)


def sample_rotation_grid(count, seed):
    """Sample ``count`` uniform rotations (normalized 4D Gaussians).

    Deterministic for a fixed ``(count, seed)`` pair.
    """
    if count < 1:
        raise ArgumentError("grid needs at least one rotation")
    rng = generator(seed, STREAM_ROTATION_GRID)
    q = rng.standard_normal((count, 4))
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    if norms.min() < 1e-12:
        raise ArgumentError("degenerate quaternion draw; use a different seed")
    return RotationGrid(q / norms, seed=seed)


def box_index(centres, side, dims):
    """Fancy index of the ``side``-wide boxes centred at the rows of
    ``centres`` on a canvas of shape ``dims``, wrapped at its edges.

    ``canvas[box_index(centres, side, canvas.shape)]`` is the
    ``(len(centres),) + (side,) * len(dims)`` stack of those boxes, each
    starting ``side // 2`` before its centre on every axis; zero centres
    give an empty stack of that shape.
    """
    ndim = len(dims)
    centres = np.asarray(centres, dtype=np.intp).reshape(-1, ndim)
    offsets = np.arange(side) - side // 2
    index = []
    for axis, dim in enumerate(dims):
        shape = [len(centres)] + [1] * ndim
        shape[axis + 1] = side
        index.append(((centres[:, axis, None] + offsets) % dim).reshape(shape))
    return tuple(index)


class RotationPlan:
    """Rotations of ``side``-cubed volumes by each rotation of a list, as
    one precomputed gather.

    Output voxel ``x`` under rotation ``R`` reads the input at
    ``R^-1 (x - c) + c``, and a point outside ``[0, side - 1]`` on any
    axis reads zero. The plan keeps only the output voxels whose point is
    inside: their flat rows in the output stack, the flat index of their
    low corner in a zero-padded source (and in a stack of them), and the
    two trilinear weights along each axis. ``apply`` gathers,
    weights and sums those voxels and scatters them into a zeroed output.
    An outside voxel would read eight zeros under nonnegative weights, a
    sum of exactly +0.0, so leaving it at +0.0 changes no byte. Built once
    per rotation list, one rotation at a time, it reproduces the
    arithmetic of ``scipy.ndimage.affine_transform(order=1,
    mode="constant", prefilter=False)`` bit for bit: the source coordinate
    on axis ``h`` is ``offset[h]`` plus ``i_l * M[h, l]`` added for ``l =
    0, 1, 2`` in turn; the trilinear weights are ``w0 = 1 - (c -
    floor(c))`` and ``w1 = 1 - w0``; the eight corners, last axis fastest,
    each add ``((v * w_axis0) * w_axis1) * w_axis2`` to a sum that starts
    at 0.0.
    """

    def __init__(self, side, rotations):
        self.side = n = int(side)
        rotations = list(rotations)
        self.count = len(rotations)
        # A source volume sits in the low corner of a (side + 1)-cubed block
        # of zeros, so a corner one past the high edge reads zero.
        pad = n + 1
        self._block = (pad, pad, pad)
        self._corners = [
            (d0, d1, d2, (d0 * pad + d1) * pad + d2)
            for d0 in (0, 1) for d1 in (0, 1) for d2 in (0, 1)
        ]
        # Counting first sizes the compact arrays, so no full-size array of
        # indices or weights is ever made.
        kept = [np.count_nonzero(self._source_point(rotation)[1]) for rotation in rotations]
        total = sum(kept)
        self._rows = np.empty(total, dtype=np.intp)
        self._base = np.empty(total, dtype=np.intp)
        self._stacked = np.empty(total, dtype=np.intp)
        self._weights = np.empty((3, 2, total))
        stop = 0
        for r, rotation in enumerate(rotations):
            part = slice(stop, stop + kept[r])
            stop = part.stop
            coords, inside = self._source_point(rotation)
            rows = np.flatnonzero(inside)
            self._rows[part] = rows + r * n ** 3
            base = self._base[part]
            base[:] = 0
            for h, c in enumerate(coords):
                c = c.reshape(-1)[rows]
                start = np.floor(c)
                base *= pad
                base += start.astype(np.intp)
                w0 = 1.0 - (c - start)
                self._weights[h, 0, part] = w0
                self._weights[h, 1, part] = 1.0 - w0
            self._stacked[part] = base + r * pad ** 3

    def _source_point(self, rotation):
        """The source coordinates of every output voxel under ``rotation``,
        one ``(side,) * 3`` array per axis, and where they are inside."""
        n = self.side
        axes = np.arange(n, dtype=np.float64)
        index = (axes[:, None, None], axes[None, :, None], axes[None, None, :])
        center = (np.full(3, n, dtype=np.float64) - 1.0) / 2.0
        inverse = rotation.as_matrix().T
        offset = center - inverse @ center
        coords = [
            ((offset[h] + index[0] * inverse[h, 0]) + index[1] * inverse[h, 1])
            + index[2] * inverse[h, 2]
            for h in range(3)
        ]
        inside = np.ones((n, n, n), dtype=bool)
        for c in coords:
            inside &= (c >= 0.0) & (c <= n - 1.0)
        return coords, inside

    def apply(self, volumes):
        """Every rotation of one ``(side,) * 3`` volume, or volume ``r`` of a
        ``(count, side, side, side)`` stack under rotation ``r``; either
        way a ``(count, side, side, side)`` stack."""
        n, count = self.side, self.count
        v = np.asarray(volumes, dtype=np.float64)
        if v.shape == (n, n, n):
            v = v[None]
            index = self._base
        elif v.shape == (count, n, n, n):
            index = self._stacked
        else:
            raise ShapeError(
                f"expected a ({n}, {n}, {n}) volume or a stack of {count}, got shape {v.shape}"
            )
        source = np.zeros((len(v),) + self._block)
        source[:, :n, :n, :n] = v
        source = source.reshape(-1)
        total = np.zeros(index.shape)
        term = np.empty(index.shape)
        for d0, d1, d2, shift in self._corners:
            # "clip" never clips here (every index is in range); unlike the
            # default mode it lets take write into ``term`` unbuffered.
            np.take(source[shift:], index, out=term, mode="clip")
            term *= self._weights[0, d0]
            term *= self._weights[1, d1]
            term *= self._weights[2, d2]
            total += term
        out = np.zeros(count * n ** 3)
        out[self._rows] = total
        return out.reshape(count, n, n, n)


def rotate_volume(volume, rotation):
    """Rotate a cubic volume about its center: a one-rotation ``RotationPlan``.

    Output voxel ``x`` reads the input at ``R^-1 (x - c) + c``; points
    falling outside the domain contribute zero.
    """
    v = _check_cubic(volume)
    return RotationPlan(v.shape[0], [rotation]).apply(v)[0]


def project_volume(volume):
    """Sum a cubic volume along its third axis: dims are the first two."""
    return _check_cubic(volume).sum(axis=2)


def write_tensor(path, values):
    """Write a tensor file: magic, ndim byte, u32 dims, float64 payload.

    Accepts 1 to 4 axes, none of length 0 (``read_tensor`` rejects such a
    file); the fourth axis covers stacked patch containers. The shape and
    the values are checked before the file is opened, so a bad array leaves
    no file. The payload is the array's own little-endian float64 bytes,
    so ``read_tensor`` returns exactly the array written.
    """
    arr = np.asarray(values, dtype="<f8")
    if arr.ndim < 1 or arr.ndim > 4:
        raise ShapeError(f"tensor files carry 1 to 4 axes, got {arr.ndim}")
    if 0 in arr.shape:
        raise ShapeError(f"tensor files carry no empty axis, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("refusing to write non-finite values")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<B", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(np.ascontiguousarray(arr).data)
    return path


def read_tensor(path):
    """Read a tensor file back as the float64 array it was written from.

    The header is parsed first and the payload is then read straight into
    the result. A file of the retired single-precision format (magic
    ``SFN1``) is rejected like any other malformed file.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic == RETIRED_MAGIC:
                raise ArgumentError(
                    f"{path}: single-precision tensor file of an older sfn "
                    "(magic SFN1); write it again with this version"
                )
            if magic != TENSOR_MAGIC:
                raise ArgumentError(f"{path}: not a tensor file (bad magic)")
            rank = fh.read(1)
            if not rank:
                raise ArgumentError(f"{path}: truncated header")
            ndim = rank[0]
            if ndim < 1 or ndim > 4:
                raise ArgumentError(f"{path}: unsupported rank {ndim}")
            header = fh.read(4 * ndim)
            if len(header) < 4 * ndim:
                raise ArgumentError(f"{path}: truncated header")
            dims = struct.unpack(f"<{ndim}I", header)
            if any(d < 1 for d in dims):
                raise ArgumentError(f"{path}: dims must be positive, got {dims}")
            count = math.prod(dims)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != 8 * count:
                raise ArgumentError(
                    f"{path}: payload holds {size} bytes, expected {8 * count}"
                )
            arr = np.fromfile(fh, dtype="<f8", count=count)
    except OSError as exc:
        raise ArgumentError(f"cannot read tensor {path}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ArgumentError(f"{path}: non-finite values in payload")
    return arr.reshape(dims)


@contextmanager
def malformed(path):
    """Report a value of ``path`` that fails to parse as an ArgumentError."""
    try:
        yield
    except ValueError as exc:
        raise ArgumentError(f"{path}: malformed value: {exc}") from exc


def _cell(value):
    return "%.17g" % value if isinstance(value, (float, np.floating)) else str(value)


def table_text(header, rows):
    """CSV text of a header and rows, in the one artifact table format."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows([header, *([_cell(cell) for cell in row] for row in rows)])
    return buffer.getvalue()


def write_table(path, header, rows):
    """Write ``table_text(header, rows)`` to ``path``; return the path."""
    with open(path, "w", newline="") as handle:
        handle.write(table_text(header, rows))
    return path


def write_meta(path, items):
    """Write ``(key, value)`` pairs as a two-column ``key,value`` table."""
    return write_table(path, ("key", "value"), items)


def read_table(path, columns):
    """Header and rows (as dicts) of a CSV file.

    Raises ArgumentError when the file cannot be read, lacks one of the
    named columns, or holds a row whose length differs from the header.
    """
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
            header = reader.fieldnames or []
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc
    missing = [column for column in columns if column not in header]
    if missing:
        raise ArgumentError(f"{path}: missing column(s) {', '.join(missing)}")
    for lineno, row in enumerate(rows, start=2):
        if None in row or None in row.values():
            raise ArgumentError(f"{path}:{lineno}: row length differs from the header")
    return header, rows


def read_meta(path, keys):
    """Values of a two-column ``key,value`` CSV; every named key must be present."""
    _, rows = read_table(path, ("key", "value"))
    meta = {row["key"]: row["value"] for row in rows}
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ArgumentError(f"{path}: missing key(s) {', '.join(missing)}")
    return meta
