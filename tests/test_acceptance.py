"""Acceptance suite: one test per numbered criterion, in order.

Run ``pytest -v tests/test_acceptance.py`` for the per-criterion
pass/fail listing; each test also prints its measured values and wall
time (shown with ``-s`` or on failure).  Every data path is seeded, so
the asserted numbers are reproducible on a fixed dependency stack.

The spatial picking criteria register their pick sets in a module-level
list; the final test re-validates the non-overlap invariant on all of
them.  Sampler-backed pick sets carry no positions, so the invariant is
vacuous for those and they are recorded as such.  Because of that
registry, the module is meant to run as a whole and in file order
(pytest's default).
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from fixtures import large
from oracles import (
    brute_force_correlation_map,
    min_circular_linf,
    quadrature_tail_moments,
)
from sfn.config import parse_config_text
from sfn.em import (
    Gmm2dConfig,
    Recon3dConfig,
    em_classify2d,
    em_reconstruct3d,
)
from sfn.experiments import phantom_volume, run_experiment
from sfn.metrics import best_rotation_pcc, match_classes, mean_scaled_error
from sfn.noisegen import NoiseSpec, gaussian_field
from sfn.picker import PickSet, correlation_map, load_picks, pick_iid, pick_micrograph
from sfn.templates import external_templates, make_rotation_templates
from sfn.truncgauss import (
    TruncMixture,
    TruncSpec,
    effective_variance,
    sample_component,
    sample_mixture,
    trunc_mean,
    trunc_var,
)


@dataclass
class RegisteredPicks:
    """Lightweight record of one pick set for the final invariant check."""

    tag: str
    side: int
    positions: np.ndarray | None
    canvas_dims: tuple | None
    source_ids: np.ndarray | None


_REGISTRY: list[RegisteredPicks] = []


def _register(tag, picks, side):
    _REGISTRY.append(
        RegisteredPicks(
            tag=tag,
            side=side,
            positions=None if picks is None or picks.positions is None
            else np.array(picks.positions),
            canvas_dims=None if picks is None else picks.canvas_dims,
            source_ids=None if picks is None or picks.source_ids is None
            else np.array(picks.source_ids),
        )
    )
    return picks


def _orthonormal_templates(side, count, seed):
    """Exactly orthonormal random templates via QR on white noise."""
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal((count, side * side))
    q, _ = np.linalg.qr(flat.T)
    return external_templates(q.T.reshape(count, side, side))


def _collect_micrograph_picks(template_set, sigma, threshold, target,
                              canvas, seed, max_fields):
    """Pick noise fields until ``target`` patches accumulate, then trim.

    Picks stream into preallocated buffers in field order, so peak memory
    stays near one copy of the trimmed stack even when that stack runs to
    gigabytes (the full-size 3D run holds 20000 patches of 24 cubed).
    """
    side = template_set.side
    patches = np.empty((target,) + (side,) * len(canvas), dtype=np.float64)
    scores = np.empty(target, dtype=np.float64)
    labels = np.empty(target, dtype=np.int64)
    positions = np.empty((target, len(canvas)), dtype=np.int64)
    source_ids = np.empty(target, dtype=object)
    total, index = 0, 0
    while total < target and index < max_fields:
        field = gaussian_field(canvas, NoiseSpec(sigma=sigma, seed=seed, stream=index))
        picks = pick_micrograph(field, template_set, threshold,
                                source_id=f"field_{index:04d}")
        keep = min(len(picks), target - total)
        patches[total:total + keep] = picks.patches[:keep]
        scores[total:total + keep] = picks.scores[:keep]
        labels[total:total + keep] = picks.labels[:keep]
        positions[total:total + keep] = picks.positions[:keep]
        source_ids[total:total + keep] = picks.source_ids[:keep]
        total += keep
        index += 1
    assert total >= target, f"only {total} picks from {index} fields"
    return PickSet(patches=patches, scores=scores, threshold=float(threshold),
                   labels=labels, positions=positions, canvas_dims=canvas,
                   source_ids=source_ids)


def _mixture_pickset(template_set, sigma, threshold, count, seed):
    """Draw the labeled picked-particle law directly, bypassing scanning."""
    mixture = TruncMixture(spec=TruncSpec(sigma, threshold), templates=template_set)
    samples, _ = sample_mixture(mixture, count, seed=seed)
    flat = np.asarray(template_set.templates).reshape(len(template_set), -1)
    scores = np.max(samples.reshape(count, -1) @ flat.T, axis=1)
    return PickSet(patches=samples, scores=scores, threshold=float(threshold))


def _report(number, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"CRITERION {number}: PASS  {detail}  [{elapsed:.1f}s < {budget:.0f}s]")


def test_criterion_01_truncated_moments():
    """Exact tail moments against quadrature, plus their deep-tail forms."""
    start = time.monotonic()
    worst_mean = worst_var = 0.0
    for threshold in (-2.0, 0.0, 1.0, 3.0, 5.0, 8.0, 20.0, 30.0):
        spec = TruncSpec(1.0, threshold)
        ref_mean, ref_var = quadrature_tail_moments(1.0, threshold)
        worst_mean = max(worst_mean, abs(trunc_mean(spec) - ref_mean) / abs(ref_mean))
        worst_var = max(worst_var, abs(trunc_var(spec) - ref_var) / ref_var)
    assert worst_mean <= 1e-9
    assert worst_var <= 1e-9
    # Deep tail: the mean approaches T + sigma^2/T, and the variance
    # collapses so that sigma^2 - trunc_var tracks sigma^2 (1 - sigma^2/T^2).
    worst_tail = 0.0
    for threshold in (8.0, 20.0, 30.0):
        spec = TruncSpec(1.0, threshold)
        mean_asym = threshold + 1.0 / threshold
        worst_tail = max(
            worst_tail, abs(trunc_mean(spec) - mean_asym) / trunc_mean(spec)
        )
        complement = 1.0 - trunc_var(spec)
        worst_tail = max(
            worst_tail,
            abs(complement - effective_variance(spec)) / effective_variance(spec),
        )
    assert worst_tail <= 5e-3
    _report(1, time.monotonic() - start, 1.0,
            f"quadrature rel err {max(worst_mean, worst_var):.2e}, "
            f"tail rel err {worst_tail:.2e}")


def test_criterion_02_labeled_means_from_pure_noise():
    """One million iid noise patches, three orthogonal templates, T = 3.

    Each label's mean must sit on its template at height trunc_mean(1, 3)
    within four standard errors, with the off-template component compatible
    with a zero-mean residual, and the on-template height at least T.
    """
    start = time.monotonic()
    template_set = _orthonormal_templates(16, 3, seed=14)
    flat_templates = np.asarray(template_set.templates).reshape(3, -1)
    sums = np.zeros((3, 256))
    counts = np.zeros(3, dtype=np.int64)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        chunk = rng.standard_normal((50_000, 16, 16))
        picks = pick_iid(chunk, template_set, 3.0)
        flat = picks.patches.reshape(len(picks), -1)
        for ell in range(3):
            rows = picks.labels == ell
            sums[ell] += flat[rows].sum(axis=0)
            counts[ell] += int(rows.sum())
    expected = trunc_mean(TruncSpec(1.0, 3.0))
    spread = np.sqrt(trunc_var(TruncSpec(1.0, 3.0)))
    heights = []
    for ell in range(3):
        count = counts[ell]
        assert count > 0
        mean_vec = sums[ell] / count
        along = float(mean_vec @ flat_templates[ell])
        assert abs(along - expected) <= 4.0 * spread / np.sqrt(count)
        residual = mean_vec - along * flat_templates[ell]
        # Norm of a 255-dim unit-variance sample mean: sqrt(255/n) typical
        # size plus four standard deviations of the chi fluctuation.
        bound = (np.sqrt(255.0) + 4.0 / np.sqrt(2.0)) / np.sqrt(count)
        assert np.linalg.norm(residual) <= bound
        assert along >= 3.0
        heights.append(along)
    _report(2, time.monotonic() - start, 120.0,
            f"heights {np.round(heights, 4)} vs {expected:.4f}, "
            f"labels {counts.tolist()}")


def test_criterion_03_alpha_over_threshold_decreases():
    """The picked-mean height ratio alpha/T falls toward 1 as T grows.

    The per-component law of a picked patch is sampled directly; under
    orthogonal templates each component behaves identically and
    independently, so one component per threshold suffices.
    """
    start = time.monotonic()
    template = np.asarray(_orthonormal_templates(16, 3, seed=14).templates)[0]
    flat = template.reshape(-1)
    ratios = []
    for index, threshold in enumerate((2.0, 3.0, 4.0, 6.0)):
        spec = TruncSpec(1.0, threshold)
        total, drawn = 0.0, 0
        for chunk in range(4):
            samples = sample_component(template, spec, 50_000,
                                       seed=900 + 10 * index + chunk)
            total += float((samples.reshape(len(samples), -1) @ flat).sum())
            drawn += len(samples)
        ratio = (total / drawn) / threshold
        assert 1.0 <= ratio <= 1.0 + 2.0 / threshold ** 2
        ratios.append(ratio)
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    _report(3, time.monotonic() - start, 300.0,
            f"alpha/T = {np.round(ratios, 5)} at T = (2, 3, 4, 6)")


def test_criterion_04_classes_from_pure_noise_2d():
    """Micrograph-scale 2D pipeline: 50k picks of pure noise at T = 5
    hand reference-free EM class means that match the picking templates."""
    start = time.monotonic()
    sigma, threshold = 1.25, 5.0
    template_set = _orthonormal_templates(16, 5, seed=42)
    picks = _collect_micrograph_picks(template_set, sigma, threshold, 50_000,
                                      canvas=(2048, 2048), seed=1000,
                                      max_fields=120)
    _register("c4", picks, side=16)
    state = em_classify2d(
        picks, Gmm2dConfig(class_count=5, sigma=sigma, restarts=2, seed=7)
    )
    report = match_classes(state.means, template_set, threshold=threshold)
    scaled_error = mean_scaled_error(report, threshold)
    assert report.mean_pcc >= 0.95
    assert scaled_error <= 0.15
    _report(4, time.monotonic() - start, 600.0,
            f"mean pcc {report.mean_pcc:.4f}, scaled error {scaled_error:.4f}, "
            f"{len(picks)} picks")


def test_criterion_05_threshold_sweep_monotone():
    """Class recovery improves with threshold: PCC non-decreasing over
    T = 1..5 at fixed sample count, gaining at least 0.3 end to end."""
    start = time.monotonic()
    sigma = 1.25
    template_set = _orthonormal_templates(16, 5, seed=42)
    pccs = []
    for index, threshold in enumerate((1.0, 2.0, 3.0, 4.0, 5.0)):
        picks = _mixture_pickset(template_set, sigma, threshold, 20_000,
                                 seed=500 + index)
        _register(f"c5:T{threshold:g}", picks, side=16)
        state = em_classify2d(
            picks, Gmm2dConfig(class_count=5, sigma=sigma, restarts=2, seed=7)
        )
        report = match_classes(state.means, template_set, threshold=threshold)
        pccs.append(report.mean_pcc)
    assert all(b >= a for a, b in zip(pccs, pccs[1:])), pccs
    assert pccs[-1] - pccs[0] >= 0.3
    _report(5, time.monotonic() - start, 900.0,
            f"pcc by threshold {np.round(pccs, 4)}")


def test_criterion_06_volume_from_pure_noise_3d():
    """Tomogram-scale 3D pipeline at the reduced size: 16-cubed patches,
    twenty aligned rotations, pure noise in, picking template out."""
    start = time.monotonic()
    sigma, threshold = 1.25, 3.5
    volume = phantom_volume(16)
    template_set = make_rotation_templates(volume, 20, seed=42)
    picks = _collect_micrograph_picks(template_set, sigma, threshold, 6_000,
                                      canvas=(128, 128, 128), seed=3000,
                                      max_fields=100)
    _register("c6", picks, side=16)
    state = em_reconstruct3d(
        picks,
        Recon3dConfig(grid=template_set.grid, sigma=sigma, seed=9,
                      restarts=2, max_iters=60),
    )
    # The recovered volume sits in the identity gauge, which
    # best_rotation_pcc scans before the training grid.
    corr, _ = best_rotation_pcc(state.volume, volume, template_set.grid)
    assert corr >= 0.85
    _report(6, time.monotonic() - start, 600.0,
            f"best-rotation pcc {corr:.4f}, {len(picks)} picks")


@large
def test_criterion_06_volume_from_pure_noise_3d_full_size():
    """Full-size variant: 24-cubed patches, fifty rotations, 20k picks.

    The timed gate for this criterion is the reduced configuration above;
    this run asserts the recovery quality at the published size and is
    opt-in because its wall time is hardware-bound.
    """
    start = time.monotonic()
    sigma, threshold = 1.25, 3.5
    volume = phantom_volume(24)
    template_set = make_rotation_templates(volume, 50, seed=42)
    picks = _collect_micrograph_picks(template_set, sigma, threshold, 20_000,
                                      canvas=(192, 192, 192), seed=4000,
                                      max_fields=400)
    _register("c6-full", picks, side=24)
    state = em_reconstruct3d(
        picks,
        Recon3dConfig(grid=template_set.grid, sigma=sigma, seed=9,
                      restarts=2, max_iters=60),
    )
    corr, _ = best_rotation_pcc(state.volume, volume, template_set.grid)
    assert corr >= 0.85
    print(f"CRITERION 6 (full size): PASS  best-rotation pcc {corr:.4f}  "
          f"[{time.monotonic() - start:.1f}s]")


def test_criterion_07_error_scaling_slopes(tmp_path):
    """Mean-squared class error scales like 1/M in samples and like d in
    patch dimension, read as log-log slopes over decade grids."""
    start = time.monotonic()
    config = parse_config_text(
        f"""
        experiment.kind = complexity-scan
        experiment.seed = 41
        experiment.out = {tmp_path / 'scan'}
        geometry.patch_side = 8
        geometry.template_count = 3
        geometry.sample_target = 20000
        picker.threshold = 6.0
        noise.sigma = 1.0
        em.sigma = 1.0
        em.restarts = 2
        scan.samples = 1000, 10000, 100000
        scan.sides = 8, 16, 32
        """,
        origin="<acceptance>",
    )
    summary = run_experiment(config).summary
    # Sampler-backed pick sets inside the scan have no positions; recorded
    # for completeness so the invariant check sees every suite.
    _register("c7", None, side=8)
    assert -1.3 <= summary["slope_samples"] <= -0.7
    assert 0.7 <= summary["slope_dimension"] <= 1.3
    _report(7, time.monotonic() - start, 1200.0,
            f"slope vs samples {summary['slope_samples']:.3f}, "
            f"slope vs dimension {summary['slope_dimension']:.3f}")


def test_criterion_08_halfmap_fsc_separates_pickers(tmp_path):
    """Half-map FSC flags template picking on pure noise: high coherence
    below half-Nyquist for template picks, none for random picks."""
    start = time.monotonic()
    out = tmp_path / "halfmap"
    config = parse_config_text(
        f"""
        experiment.kind = halfmap-fsc
        experiment.seed = 8
        experiment.out = {out}
        geometry.canvas = 128x128x128
        geometry.field_count = 12
        geometry.patch_side = 16
        geometry.template_count = 12
        geometry.sample_target = 6000
        noise.sigma = 1.25
        picker.threshold = 3.5
        em.sigma = 1.25
        em.restarts = 2
        em.max_iters = 60
        """,
        origin="<acceptance>",
    )
    summary = run_experiment(config).summary
    for name in ("picks_template_a", "picks_template_b",
                 "picks_random_a", "picks_random_b"):
        _register(f"c8:{name}", load_picks(out, name=name), side=16)
    assert summary["template_mean_fsc"] >= 0.5
    assert summary["random_mean_fsc"] <= 0.1
    _report(8, time.monotonic() - start, 1200.0,
            f"mean FSC below half-Nyquist: template "
            f"{summary['template_mean_fsc']:.4f}, "
            f"random {summary['random_mean_fsc']:.4f}")


def test_criterion_09_planted_particles_matched_vs_mismatched(tmp_path):
    """Planted particles at SNR 1/25: picking with the true templates beats
    picking with a different structure, in truth PCC and in resolution."""
    start = time.monotonic()
    results = {}
    for variant in ("matched", "mismatched"):
        out = tmp_path / variant
        config = parse_config_text(
            f"""
            experiment.kind = planted-3d
            experiment.seed = 17
            experiment.out = {out}
            geometry.canvas = 96x96x96
            geometry.field_count = 16
            geometry.patch_side = 16
            geometry.template_count = 8
            geometry.sample_target = 4000
            noise.sigma = 1.0
            noise.snr = 0.04
            noise.plant_count = 40
            picker.threshold = 4.2
            em.sigma = 1.0
            em.restarts = 2
            em.max_iters = 60
            templates.variant = {variant}
            """,
            origin="<acceptance>",
        )
        results[variant] = run_experiment(config).summary
        for name in ("picks_a", "picks_b"):
            _register(f"c9:{variant}:{name}", load_picks(out, name=name), side=16)
    gap = results["matched"]["best_pcc"] - results["mismatched"]["best_pcc"]
    assert gap >= 0.1
    assert results["matched"]["fsc_resolution"] < results["mismatched"]["fsc_resolution"]
    _report(9, time.monotonic() - start, 1800.0,
            f"truth pcc {results['matched']['best_pcc']:.4f} vs "
            f"{results['mismatched']['best_pcc']:.4f}, resolution "
            f"{results['matched']['fsc_resolution']:.2f} vs "
            f"{results['mismatched']['fsc_resolution']:.2f} px")


def test_criterion_10_picker_correctness():
    """FFT correlation equals brute force, and no registered pick set
    violates the non-overlap invariant."""
    start = time.monotonic()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10):
        canvas = rng.standard_normal((64, 64))
        template_set = external_templates(rng.standard_normal((3, 8, 8)))
        for template in template_set:
            fast = correlation_map(canvas, template)
            slow = brute_force_correlation_map(canvas, template)
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    assert worst <= 1e-6

    if not _REGISTRY:
        pytest.skip("pick-set registry is empty; run the full acceptance module")
    tags = {entry.tag.split(":")[0] for entry in _REGISTRY}
    assert {"c4", "c5", "c6", "c7", "c8", "c9"} <= tags, tags
    checked = 0
    for entry in _REGISTRY:
        if entry.positions is None:
            continue
        for source in np.unique(entry.source_ids):
            positions = entry.positions[entry.source_ids == source]
            if len(positions) >= 2:
                gap = min_circular_linf(positions, entry.canvas_dims)
                assert gap >= entry.side, (entry.tag, source, gap)
                checked += 1
    assert checked > 0
    _report(10, time.monotonic() - start, 60.0,
            f"max |fft - brute| {worst:.2e}, "
            f"{checked} per-field position sets checked")
