"""Template sets derived from a source volume, for use by the pickers.

A template set holds L unit-norm signal patterns of equal dims, either 2D
projections of a rotated volume, 3D rotated copies of it, or externally
supplied arrays. A set made from a volume carries its rotation grid; an
external set has none. Sets are immutable once built.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateTemplateError,
    ShapeError,
    UndefinedCorrelationError,
)
from .metrics import pcc
from .tensors import (
    RotationGrid,
    RotationPlan,
    as_tensor,
    malformed,
    project_volume,
    read_table,
    read_tensor,
    sample_rotation_grid,
    write_table,
    write_tensor,
)

UNIT_NORM_TOL = 1e-9
DISTINCT_PCC_TOL = 1e-6
MANIFEST_NAME = "manifest.csv"
QUATERNION_COLUMNS = ("qw", "qx", "qy", "qz")


def _normalize(values):
    norm = float(np.linalg.norm(values))
    if norm < 1e-12:
        raise DegenerateTemplateError("template norm is below 1e-12")
    return values / norm


def _check_distinct_pair(a, b, i, j):
    try:
        score = pcc(a, b)
    except UndefinedCorrelationError:
        score = 1.0 if np.allclose(a, b, atol=1e-9) else 0.0
    if score >= 1.0 - DISTINCT_PCC_TOL:
        raise ArgumentError(f"templates {i} and {j} are not distinct (pcc={score:.9f})")


@dataclass(frozen=True)
class TemplateSet:
    """Stack of L unit-norm templates plus the rotation grid they were
    made on (None for an external set)."""

    templates: np.ndarray
    grid: RotationGrid | None = None

    def __post_init__(self):
        stack = np.asarray(self.templates, dtype=np.float64)
        if stack.ndim not in (3, 4):
            raise ShapeError(f"expected a stack of 2D or 3D templates, got {stack.ndim - 1}D")
        if stack.shape[0] < 1:
            raise ArgumentError("template set is empty")
        sides = set(stack.shape[1:])
        if len(sides) != 1:
            raise ShapeError(f"templates must be square or cubic, got dims {stack.shape[1:]}")
        if not np.all(np.isfinite(stack)):
            raise ArgumentError("templates contain non-finite values")
        norms = np.linalg.norm(stack.reshape(stack.shape[0], -1), axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise ArgumentError(f"template {worst} has norm {norms[worst]!r}, expected 1")
        for i in range(stack.shape[0]):
            for j in range(i + 1, stack.shape[0]):
                _check_distinct_pair(stack[i], stack[j], i, j)
        if self.grid is not None and len(self.grid) != stack.shape[0]:
            raise ArgumentError("rotation grid length does not match template count")
        stack.setflags(write=False)
        object.__setattr__(self, "templates", stack)

    def __len__(self):
        return self.templates.shape[0]

    def __getitem__(self, index):
        return self.templates[index]

    def __iter__(self):
        return iter(self.templates)

    @property
    def side(self):
        return self.templates.shape[1]

    @property
    def template_ndim(self):
        return self.templates.ndim - 1


def make_projection_templates(volume, count, seed):
    """Project `count` rotated copies of a cubic volume down to 2D images,
    turned by the rotation grid that `seed` samples."""
    volume = as_tensor(volume, ndim=3)
    grid = sample_rotation_grid(count, seed)
    rotated = RotationPlan(len(volume), grid).apply(volume)
    templates = np.stack([_normalize(project_volume(v)) for v in rotated])
    return TemplateSet(templates, grid=grid)


def make_rotation_templates(volume, count, seed):
    """Rotate a cubic volume `count` times without projecting, by the
    rotation grid that `seed` samples."""
    volume = as_tensor(volume, ndim=3)
    grid = sample_rotation_grid(count, seed)
    templates = np.stack([_normalize(v) for v in RotationPlan(len(volume), grid).apply(volume)])
    return TemplateSet(templates, grid=grid)


def external_templates(stack):
    """Adopt caller-supplied arrays as templates, normalizing each one."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim not in (3, 4):
        raise ShapeError("external templates must be a stack of 2D or 3D arrays")
    templates = np.stack([_normalize(t) for t in stack])
    return TemplateSet(templates)


def lowpass(template_set, cutoff):
    """Zero Fourier content beyond `cutoff` (as a fraction of Nyquist).

    Applies a hard spherical mask of radius cutoff/2 cycles per pixel and
    renormalizes. cutoff=1 keeps the full band and returns the set as is.
    """
    if not 0.0 < cutoff <= 1.0:
        raise ArgumentError(f"cutoff must lie in (0, 1], got {cutoff}")
    if cutoff == 1.0:
        return template_set
    side = template_set.side
    freqs = np.fft.fftfreq(side)
    axes = np.meshgrid(*([freqs] * template_set.template_ndim), indexing="ij")
    mask = sum(f ** 2 for f in axes) <= (0.5 * cutoff) ** 2
    filtered = np.stack(
        [_normalize(np.fft.ifftn(np.fft.fftn(t) * mask).real) for t in template_set]
    )
    return TemplateSet(filtered, grid=template_set.grid)


def save_templates(template_set, directory):
    """Write one tensor file per template plus a manifest CSV: an ``index``
    column, and the grid's quaternion rows as they are when the set has a
    grid."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for index, template in enumerate(template_set):
        write_tensor(directory / f"template_{index:03d}.sfn", template)
    header = ["index"]
    rows = [(index,) for index in range(len(template_set))]
    if template_set.grid is not None:
        header += QUATERNION_COLUMNS
        rows = [(index, *q) for index, q in enumerate(template_set.grid.quaternions)]
    return write_table(directory / MANIFEST_NAME, header, rows)


def load_templates(directory):
    """Rebuild a set saved by save_templates, bit for bit.

    Templates and grid rows are taken as read: a template whose norm is
    not 1 or a quaternion row that is not unit norm is rejected, not
    repaired. The set has a grid exactly when the manifest holds the
    quaternion columns; a manifest with only some of them is rejected.
    """
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    header, rows = read_table(manifest, ("index",))
    present = [column for column in QUATERNION_COLUMNS if column in header]
    if present and len(present) < len(QUATERNION_COLUMNS):
        missing = [column for column in QUATERNION_COLUMNS if column not in present]
        raise ArgumentError(f"{manifest}: missing column(s) {', '.join(missing)}")
    with malformed(manifest):
        indices = [int(row["index"]) for row in rows]
        quaternions = [[float(row[k]) for k in present] for row in rows]
    if not indices:
        raise ArgumentError(f"empty template manifest at {manifest}")
    if sorted(indices) != list(range(len(indices))):
        raise ArgumentError("manifest indices are not 0..L-1")
    order = np.argsort(indices)
    stack = [read_tensor(directory / f"template_{indices[i]:03d}.sfn") for i in order]
    with malformed(directory):
        templates = np.stack(stack)
    grid = None
    if present:
        grid = RotationGrid(np.array(quaternions)[order], seed=-1)
    return TemplateSet(templates, grid=grid)
