"""Grayscale PGM previews of tensors, with scaling bounds on the side.

Previews are binary PGM (P5): readable anywhere without an imaging
dependency.  Pixels are min-max scaled to 0..255; the bounds used for
scaling are recorded in a sidecar CSV so the mapping stays invertible.
``export_preview`` creates the directory it writes into.
"""

from pathlib import Path

import numpy as np

from .errors import ShapeError
from .tensors import write_table

MID_GRAY = 128


def _to_bytes(image):
    lo = float(image.min())
    hi = float(image.max())
    if hi == lo:
        return np.full(image.shape, MID_GRAY, dtype=np.uint8), lo, hi
    scaled = np.round((image - lo) / (hi - lo) * 255.0)
    return scaled.astype(np.uint8), lo, hi


def _write_pgm(path, pixels):
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def export_preview(tensor, path):
    """Write min-max scaled grayscale previews of a 2D or 3D tensor.

    A 2D tensor produces exactly ``path``.  A 3D tensor produces three
    siblings: the central slice along axis 0 and the sums over axis 0
    and axis 2, suffixed ``_slice`` / ``_sumz`` / ``_sumx``.  Constant
    inputs map to flat mid-gray (128).  Each file's name and scaling
    bounds (equal for a flat image) land in ``<stem>_bounds.csv``, the
    only record of the export: nothing is returned.  The parent
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
    bounds = []
    for target, image in views:
        pixels, lo, hi = _to_bytes(image)
        _write_pgm(target, pixels)
        bounds.append((target.name, lo, hi))
    write_table(path.with_name(f"{path.stem}_bounds.csv"), ["file", "low", "high"], bounds)
