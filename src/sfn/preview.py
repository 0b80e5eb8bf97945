"""Grayscale PGM previews of tensors, with scaling bounds on the side.

Previews are binary PGM (P5): readable anywhere without an imaging
dependency.  Pixels are min-max scaled to 0..255; the bounds used for
scaling are recorded in a sidecar CSV so the mapping stays invertible.
``export_preview`` creates the directory it writes into.
"""

from pathlib import Path
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensors import write_table

MID_GRAY = 128


@dataclass(frozen=True)
class PreviewReport:
    """Files written for one tensor plus the scaling applied to each."""

    paths: tuple
    bounds: tuple
    sidecar: str
    constant: bool


def _to_bytes(image):
    lo = float(image.min())
    hi = float(image.max())
    if hi == lo:
        return np.full(image.shape, MID_GRAY, dtype=np.uint8), (lo, hi), True
    scaled = np.round((image - lo) / (hi - lo) * 255.0)
    return scaled.astype(np.uint8), (lo, hi), False


def _write_pgm(path, pixels):
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_pgm(path):
    """Parse a binary PGM written by this module back into uint8 pixels."""
    data = Path(path).read_bytes()
    magic, size, maxval, raster = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ShapeError(f"{path}: not an 8-bit P5 preview")
    width, height = (int(v) for v in size.split())
    pixels = np.frombuffer(raster[: width * height], dtype=np.uint8)
    return pixels.reshape(height, width)


def export_preview(tensor, path):
    """Write min-max scaled grayscale previews of a 2D or 3D tensor.

    A 2D tensor produces exactly ``path``.  A 3D tensor produces three
    siblings: the central slice along axis 0 and the sums over axis 0
    and axis 2, suffixed ``_slice`` / ``_sumz`` / ``_sumx``.  Constant
    inputs map to flat mid-gray (128) and set the ``constant`` flag.
    Scaling bounds per file land in ``<stem>_bounds.csv``.  The parent
    directory is created if it does not exist.
    """
    values = np.asarray(tensor, dtype=np.float64)
    path = Path(path)
    if values.ndim == 2:
        views = [(path, values)]
    elif values.ndim == 3:
        mid = values.shape[0] // 2
        views = [
            (path.with_name(f"{path.stem}_slice{path.suffix}"), values[mid]),
            (path.with_name(f"{path.stem}_sumz{path.suffix}"), values.sum(axis=0)),
            (path.with_name(f"{path.stem}_sumx{path.suffix}"), values.sum(axis=2)),
        ]
    else:
        raise ShapeError(f"previews need a 2D or 3D tensor, got {values.ndim}D")

    path.parent.mkdir(parents=True, exist_ok=True)
    paths = []
    bounds = []
    any_constant = False
    for target, image in views:
        pixels, (lo, hi), flat = _to_bytes(image)
        _write_pgm(target, pixels)
        paths.append(str(target))
        bounds.append((lo, hi))
        any_constant = any_constant or flat

    sidecar = write_table(
        path.with_name(f"{path.stem}_bounds.csv"),
        ["file", "low", "high"],
        [(Path(target).name, lo, hi) for target, (lo, hi) in zip(paths, bounds)],
    )

    return PreviewReport(
        paths=tuple(paths),
        bounds=tuple(bounds),
        sidecar=str(sidecar),
        constant=any_constant,
    )
