"""Correlation metrics, shell correlation, matching, and scaling probes.

The shell-correlation definitions are fixed: ``FSC_SHELLS`` shells,
resolution at the ``FSC_CRITERION`` crossing and the mean over the
non-DC shells up to ``HALF_NYQUIST``. ``best_rotation_pcc`` scans the
identity, the gauge a volume is fitted in, before any grid rotation.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError, UndefinedCorrelationError
from .rng import STREAM_REFINE, generator
from .tensors import Rotation, rotate_volume, table_text

NYQUIST = 0.5
# Nyquist is 0.5 cycles per pixel; "below half-Nyquist" means <= 0.25.
HALF_NYQUIST = 0.25
# Shell 0 holds DC alone; the other eight evenly partition (0, Nyquist].
FSC_SHELLS = 9
# The resolution criterion of Rosenthal & Henderson (2003).
FSC_CRITERION = 0.143
# Hill-climbing steps of ``best_rotation_pcc`` after its scan.
REFINE_STEPS = 50


def pcc(a, b):
    """Pearson cross-correlation between two equally shaped tensors.

    Both inputs are centered and normalized; constant input has no
    defined correlation and raises.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError("correlation needs equally shaped inputs")
    a = a - a.mean()
    b = b - b.mean()
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-300 or nb < 1e-300:
        raise UndefinedCorrelationError("correlation against a constant input")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


@dataclass
class FscCurve:
    """Shell correlations between two volumes.

    ``radii`` are spatial frequencies in cycles per pixel; shell 0 holds
    the DC coefficient alone, the remaining shells evenly partition
    (0, Nyquist].  ``counts`` are Fourier samples per shell.
    """

    radii: np.ndarray
    correlations: np.ndarray
    counts: np.ndarray


def fsc(a, b):
    """Fourier shell correlation between two cubic volumes, in
    ``FSC_SHELLS`` shells.

    Per shell: ``Re(sum F_a conj(F_b)) / sqrt(sum |F_a|^2 sum |F_b|^2)``.
    Samples beyond Nyquist (corner frequencies) are ignored.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 3 or len(set(a.shape)) != 1:
        raise ShapeError("shell correlation needs two equal cubic volumes")
    n = a.shape[0]
    fa = np.fft.fftn(a)
    fb = np.fft.fftn(b)
    freqs = np.fft.fftfreq(n)
    radius = np.sqrt(
        sum(f ** 2 for f in np.meshgrid(freqs, freqs, freqs, indexing="ij"))
    ).ravel()
    width = NYQUIST / (FSC_SHELLS - 1)
    shell = np.where(radius == 0.0, 0, np.ceil(radius / width - 1e-12).astype(np.int64))
    valid = radius <= NYQUIST + 1e-12
    shell = shell[valid]
    cross = (fa.ravel() * np.conj(fb.ravel()))[valid]
    pa = (np.abs(fa.ravel()) ** 2)[valid]
    pb = (np.abs(fb.ravel()) ** 2)[valid]
    counts = np.bincount(shell, minlength=FSC_SHELLS)
    num = np.bincount(shell, weights=cross.real, minlength=FSC_SHELLS)
    da = np.bincount(shell, weights=pa, minlength=FSC_SHELLS)
    db = np.bincount(shell, weights=pb, minlength=FSC_SHELLS)
    denom = np.sqrt(da * db)
    corr = np.zeros(FSC_SHELLS)
    filled = denom > 0.0
    corr[filled] = np.clip(num[filled] / denom[filled], -1.0, 1.0)
    radii = np.concatenate(([0.0], (np.arange(1, FSC_SHELLS) - 0.5) * width))
    return FscCurve(radii=radii, correlations=corr, counts=counts)


def fsc_resolution(curve):
    """First ``FSC_CRITERION`` crossing as a real-space period in pixels.

    Linearly interpolates between the shells straddling the crossing.
    If the curve never falls below the criterion the Nyquist-limit
    period (2 pixels) is returned and a warning is emitted.
    """
    radii = np.asarray(curve.radii)
    corr = np.asarray(curve.correlations)
    if corr[0] < FSC_CRITERION:
        return float(1.0 / radii[1])
    for j in range(1, len(corr)):
        if corr[j] < FSC_CRITERION:
            prev_r, prev_c = radii[j - 1], corr[j - 1]
            frac = (prev_c - FSC_CRITERION) / (prev_c - corr[j])
            crossing = prev_r + frac * (radii[j] - prev_r)
            return float(1.0 / crossing)
    warnings.warn("correlation never fell below the criterion; at Nyquist limit")
    return float(1.0 / NYQUIST)


def mean_fsc_below(curve):
    """Average shell correlation for shells with radius <= ``HALF_NYQUIST``.

    DC is excluded: its correlation only reflects the sign of the two
    volume means, not structural consistency.
    """
    radii = np.asarray(curve.radii)
    mask = (radii > 0.0) & (radii <= HALF_NYQUIST)
    if not mask.any():
        raise ArgumentError("no shells below half-Nyquist")
    return float(np.asarray(curve.correlations)[mask].mean())


@dataclass
class BiasReport:
    """How closely fitted class means track the picking templates."""

    permutation: np.ndarray
    per_class_pcc: np.ndarray
    mean_pcc: float
    scaled_errors: np.ndarray
    alphas: np.ndarray

    def to_csv_text(self):
        columns = (self.permutation, self.per_class_pcc, self.scaled_errors, self.alphas)
        return table_text(
            ["template", "matched_mean", "pcc", "scaled_error", "alpha"],
            zip(range(len(self.permutation)), *columns),
        )


def _template_stack(templates):
    stack = getattr(templates, "templates", templates)
    return np.asarray(stack, dtype=np.float64)


def max_assignment(score):
    """The column of each row of a square matrix that maximizes the total.

    An exact Hungarian method: shortest augmenting paths with dual
    potentials (Kuhn 1955; Crouse 2016), O(K^3). It takes the steps of
    ``scipy.optimize.linear_sum_assignment(score, maximize=True)`` in the
    same order, the tie rule included: columns are scanned from the last,
    and among equally short paths the last one ending at a free column
    wins, else the first.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ShapeError(f"assignment needs a square matrix, got shape {score.shape}")
    if not np.isfinite(score).all():
        raise ArgumentError("assignment scores must be finite")
    cost = (-score).tolist()
    count = len(cost)
    u, v = [0.0] * count, [0.0] * count
    col4row, row4col, path = [-1] * count, [-1] * count, [-1] * count
    for current in range(count):
        shortest = [math.inf] * count
        remaining = list(range(count - 1, -1, -1))
        rows, cols = [], []
        low, row, sink = 0.0, current, -1
        while sink < 0:
            rows.append(row)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                reduced = low + cost[row][j] - u[row] - v[j]
                if reduced < shortest[j]:
                    path[j], shortest[j] = row, reduced
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    index, lowest = it, shortest[j]
            low = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                row = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[current] += low
        for i in rows[1:]:
            u[i] += low - shortest[col4row[i]]
        for j in cols:
            v[j] -= low - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    return np.array(col4row, dtype=np.int64)


def match_classes(means, templates, threshold=1.0):
    """Assign fitted means to templates by maximum total correlation.

    Uses the Hungarian method (``max_assignment``) on the pairwise PCC
    matrix.  Reported per template ``ell``: the matched mean index, PCC,
    the scaled error ``|mean / T - x|``-style residual ``|mean - T x|^2``,
    and the axis projection ``<mean, x>``.  ``T`` must be finite.
    """
    if not math.isfinite(threshold):
        raise ArgumentError(f"matching threshold must be finite, got {threshold}")
    means = np.asarray(means, dtype=np.float64)
    stack = _template_stack(templates)
    if means.shape != stack.shape:
        raise ShapeError(
            f"means {means.shape} and templates {stack.shape} must align"
        )
    count = len(stack)
    score = np.empty((count, count))
    for i in range(count):
        for j in range(count):
            score[i, j] = pcc(means[i], stack[j])
    permutation = np.empty(count, dtype=np.int64)
    permutation[max_assignment(score)] = np.arange(count)
    flat_means = means.reshape(count, -1)
    flat_templates = stack.reshape(count, -1)
    per_class = np.array([score[permutation[ell], ell] for ell in range(count)])
    scaled_errors = np.array(
        [
            np.sum((flat_means[permutation[ell]] - threshold * flat_templates[ell]) ** 2)
            for ell in range(count)
        ]
    )
    alphas = np.array(
        [flat_means[permutation[ell]] @ flat_templates[ell] for ell in range(count)]
    )
    return BiasReport(
        permutation=permutation,
        per_class_pcc=per_class,
        mean_pcc=float(per_class.mean()),
        scaled_errors=scaled_errors,
        alphas=alphas,
    )


def mean_scaled_error(report, threshold):
    """Mean over classes of ``|mean - T x| / T`` for a report matched at
    ``T``; ``""``, an empty table cell, at ``T <= 0``, where it means nothing."""
    if threshold <= 0.0:
        return ""
    return float(np.mean(np.sqrt(report.scaled_errors)) / threshold)


@dataclass
class ComplexityFit:
    """Log-log slopes of mean-square error against sample count and dimension."""

    slope_samples: float
    slope_dimension: float
    fixed_dimension: int
    fixed_samples: int


def complexity_probe(results):
    """Fit scaling exponents from ``(samples, dimension, mse)`` rows.

    The samples slope is fitted on the dimension value carrying the most
    distinct sample counts, and vice versa.  Requires at least three
    distinct values on each axis.
    """
    rows = [(int(m), int(d), float(mse)) for m, d, mse in results]
    if any(mse <= 0.0 for _, _, mse in rows):
        raise ArgumentError("mse values must be positive for log-log fits")

    def best_group(fixed_of, varying_of):
        groups = {}
        for row in rows:
            groups.setdefault(fixed_of(row), set()).add(varying_of(row))
        fixed, varying = max(groups.items(), key=lambda kv: len(kv[1]))
        if len(varying) < 3:
            raise ArgumentError("need at least three distinct values per axis")
        return fixed

    fixed_d = best_group(lambda r: r[1], lambda r: r[0])
    fixed_m = best_group(lambda r: r[0], lambda r: r[1])

    def fit(points):
        xs = np.log([p[0] for p in points])
        ys = np.log([p[1] for p in points])
        return float(np.polyfit(xs, ys, 1)[0])

    slope_m = fit([(m, mse) for m, d, mse in rows if d == fixed_d])
    slope_d = fit([(d, mse) for m, d, mse in rows if m == fixed_m])
    return ComplexityFit(
        slope_samples=slope_m,
        slope_dimension=slope_d,
        fixed_dimension=fixed_d,
        fixed_samples=fixed_m,
    )


def best_rotation_pcc(volume, reference, grid):
    """Maximum PCC of ``volume`` against rotated copies of ``reference``.

    Scans the identity (the gauge a volume is fitted in), then the grid,
    then hill-climbs with ``REFINE_STEPS`` random perturbations of
    shrinking angle around the best rotation scanned, drawn from the
    refinement stream at seed 0; a repeated identity cannot win. Returns
    ``(pcc, rotation)``.
    """
    best_corr = -np.inf
    best_rot = None
    for rotation in (Rotation.identity(), *grid):
        corr = pcc(volume, rotate_volume(reference, rotation))
        if corr > best_corr:
            best_corr, best_rot = corr, rotation
    rng = generator(0, STREAM_REFINE)
    angle = 0.35
    for _ in range(REFINE_STEPS):
        axis = rng.standard_normal(3)
        delta = rng.uniform(-angle, angle)
        candidate = Rotation.from_axis_angle(axis, delta).compose(best_rot)
        corr = pcc(volume, rotate_volume(reference, candidate))
        if corr > best_corr:
            best_corr, best_rot = corr, candidate
        angle = max(angle * 0.93, 0.02)
    return best_corr, best_rot
