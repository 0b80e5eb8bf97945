"""Small synthetic structures and markers shared by tests."""

import os

import numpy as np
import pytest

# The full-scale runs take about an hour of single-core time each, and the
# 3D one peaks near 4.5 GB of RAM: they run only when SFN_RUN_LARGE=1.
large = pytest.mark.skipif(
    os.environ.get("SFN_RUN_LARGE") != "1", reason="full-scale run; set SFN_RUN_LARGE=1 to run it"
)


def blob_volume(n, centers=None, widths=None, weights=None):
    """Sum of anisotropically placed Gaussian bumps on an n^3 grid.

    The default layout is asymmetric so rotated copies stay
    distinguishable from one another.
    """
    if centers is None:
        centers = [(0.30, 0.38, 0.52), (0.62, 0.55, 0.45), (0.48, 0.70, 0.62)]
    if widths is None:
        widths = [0.10, 0.07, 0.055]
    if weights is None:
        weights = [1.0, 0.8, 0.6]
    axes = np.arange(n) / (n - 1)
    grid = np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), axis=-1)
    vol = np.zeros((n, n, n))
    for center, width, weight in zip(centers, widths, weights):
        sq = ((grid - np.asarray(center)) ** 2).sum(axis=-1)
        vol += weight * np.exp(-sq / (2.0 * width ** 2))
    return vol


def ring_volume(n, radius=0.28, width=0.06, tilt=0.35):
    """A tilted torus-like shell, structurally unlike the blob volume."""
    axes = np.arange(n) / (n - 1) - 0.5
    x, y, z = np.meshgrid(axes, axes, axes, indexing="ij")
    yr = y * np.cos(tilt) - z * np.sin(tilt)
    zr = y * np.sin(tilt) + z * np.cos(tilt)
    in_plane = np.sqrt(x ** 2 + yr ** 2)
    dist = np.sqrt((in_plane - radius) ** 2 + zr ** 2)
    return np.exp(-(dist ** 2) / (2.0 * width ** 2))


def unit_frobenius(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return arr / np.linalg.norm(arr)
