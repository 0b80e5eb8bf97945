"""End-to-end experiment pipelines with deterministic artifacts.

Each experiment kind composes the synthesis, picking, fitting, and
metric modules into one reproducible run: same config, same bytes.
``_KINDS`` gives each kind its handler, field rank and planting. The
template side is ``geometry.patch_side`` for every kind; every picking
kind builds its templates and picks its fields through
``_picked_fields``, each field from ``synth_field`` as in ``sfn synth``.
Independent fields are scheduled across worker processes and always
reassembled in index order, so the thread count never changes results.
The 3D kinds then fit capped halves through ``_fit_halves``, which drops
the per-field picks it is handed once the halves are cut from them.
"""

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import resolved_items
from .em import (
    Gmm2dConfig,
    Recon3dConfig,
    em_classify2d,
    em_reconstruct3d,
    save_gmm_state,
    save_recon_state,
)
from .errors import ArgumentError, ConfigError, DegenerateTemplateError, SfnError
from .metrics import (
    best_rotation_pcc,
    complexity_probe,
    fsc,
    fsc_resolution,
    match_classes,
    mean_fsc_below,
    mean_scaled_error,
)
from .noisegen import NoiseSpec, plant_particles, write_truth
from .picker import PickSet, pick_field, save_picks
from .preview import export_preview
from .rng import STREAM_FIELD, STREAM_SPLIT, generator
from .templates import (
    lowpass,
    make_projection_templates,
    make_rotation_templates,
    save_templates,
)
from .tensors import write_meta, write_table, write_tensor
from .truncgauss import (
    TruncMixture,
    TruncSpec,
    effective_variance,
    normalizer,
    sample_mixture,
    trunc_mean,
    trunc_var,
)

MANIFEST_NAME = "manifest.csv"

_PHANTOM_BLOBS = (
    ((0.38, 0.42, 0.50), 0.16, 1.00),
    ((0.60, 0.58, 0.44), 0.11, 0.75),
    ((0.50, 0.62, 0.64), 0.08, 0.55),
)

_DECOY_BLOBS = (
    ((0.25, 0.25, 0.70), 0.07, 1.00),
    ((0.75, 0.30, 0.30), 0.07, 0.90),
    ((0.30, 0.75, 0.35), 0.07, 0.80),
    ((0.70, 0.70, 0.65), 0.07, 0.70),
)


def _blob_sum(side, blobs):
    axes = np.arange(side, dtype=np.float64)
    zz, yy, xx = np.meshgrid(axes, axes, axes, indexing="ij")
    volume = np.zeros((side, side, side))
    for center, width, weight in blobs:
        cz, cy, cx = (c * (side - 1) for c in center)
        radius_sq = (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2
        volume += weight * np.exp(-radius_sq / (2.0 * (width * side) ** 2))
    return volume


def phantom_volume(side):
    """Deterministic asymmetric three-blob structure, the default truth."""
    return _blob_sum(side, _PHANTOM_BLOBS)


def decoy_volume(side):
    """A clearly different four-blob structure for mismatched templates."""
    return _blob_sum(side, _DECOY_BLOBS)


def split_halves(fields, seed):
    """Deterministic disjoint halves: seeded shuffle, then index parity."""
    items = list(fields)
    if len(items) < 2:
        raise ConfigError(f"need at least 2 fields to split, got {len(items)}")
    order = generator(seed, STREAM_SPLIT).permutation(len(items))
    half_a = [items[i] for i in order[0::2]]
    half_b = [items[i] for i in order[1::2]]
    return half_a, half_b


def git_blob_hash(data):
    """SHA-1 of the git blob header plus content, as ``git hash-object``."""
    digest = hashlib.sha1()
    digest.update(b"blob %d\x00" % len(data))
    digest.update(data)
    return digest.hexdigest()


@contextmanager
def _stage(name):
    """Prefix any domain error with the pipeline stage that raised it."""
    try:
        yield
    except SfnError as exc:
        exc.args = (f"[stage {name}] {exc}",)
        raise


@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    out_dir: str
    summary: dict


def _write_manifest(out_dir, cfg):
    entries = [("config", key, value) for key, value in resolved_items(cfg)]
    manifest = Path(out_dir) / MANIFEST_NAME
    files = sorted(p for p in Path(out_dir).rglob("*") if p.is_file() and p != manifest)
    for path in files:
        relative = path.relative_to(out_dir).as_posix()
        entries.append(("file", relative, git_blob_hash(path.read_bytes())))
    return write_table(manifest, ["entry", "key", "value"], entries)


def _side_templates(maker, volume, cfg, key):
    """``maker(volume, cfg.template_count, seed=cfg.seed)``, where a side
    too small for the structure to give that many distinct unit templates
    is a ConfigError naming ``key``, the config key of the side."""
    try:
        return maker(volume, cfg.template_count, seed=cfg.seed)
    except (ArgumentError, DegenerateTemplateError) as exc:
        raise ConfigError(
            f"{key} = {len(volume)} is too small for {cfg.template_count} templates: {exc}"
        ) from exc


def _build_templates(cfg, three_d):
    """Truth structure, its template set, and the picking template set.

    The picking set equals the truth set for the matched variant; the
    mismatched variant reuses the same rotation grid on a different
    structure, so only the assumed shape is wrong, not the grid.
    """
    maker = make_rotation_templates if three_d else make_projection_templates
    source = phantom_volume(cfg.patch_side)
    truth_set = pick_set = _side_templates(maker, source, cfg, "geometry.patch_side")
    if cfg.template_variant == "mismatched":
        pick_set = _side_templates(maker, decoy_volume(cfg.patch_side), cfg, "geometry.patch_side")
    return source, truth_set, lowpass(pick_set, cfg.lowpass)


def synth_field(cfg, index, plant_stack):
    """Field ``index``: noise keyed by ``(cfg.seed, STREAM_FIELD + index)``
    with ``cfg.plant_count`` patches of ``plant_stack`` planted at ``cfg.snr``."""
    spec = NoiseSpec(sigma=cfg.sigma, seed=cfg.seed, stream=STREAM_FIELD + index)
    return plant_particles(cfg.canvas, plant_stack, cfg.plant_count, spec, cfg.snr)


def _field_stem(prefix, index):
    """``<prefix>_<index, 4 digits>``: the file stem of field ``index``'s
    canvas (``field``, also its picks' source id) or truth table (``truth``)."""
    return f"{prefix}_{index:04d}"


def _per_field(cfg):
    """Picks asked of each field: ``geometry.sample_target`` spread over
    ``geometry.field_count``, rounded up (the ``random`` algorithm's count)."""
    return math.ceil(cfg.sample_target / cfg.field_count)


def _field_task(task):
    """Synthesize one field and pick it; runs in a worker process."""
    index, cfg, templates, plant_stack, per_field, want_random = task
    field = synth_field(cfg, index, plant_stack)
    source_id = _field_stem("field", index)
    seed = cfg.seed + index
    picks = pick_field(
        field.canvas, templates, cfg.algorithm, cfg.threshold, per_field, seed, source_id
    )
    random_picks = None
    if want_random:
        random_picks = pick_field(
            field.canvas, templates, "random", cfg.threshold, max(len(picks), 1), seed, source_id
        )
    return picks, random_picks, field.truth


def _pool_map(function, tasks, threads):
    """``function`` over ``tasks`` in ``threads`` worker processes, results
    in task order; a single thread runs in this process."""
    if threads <= 1:
        return [function(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(function, tasks, chunksize=1))


def _picked_fields(cfg, out_dir, threads, want_random=False):
    """The templates and pick stages of every picking kind: save the
    picking templates, then synthesize (planting for a planted kind, whose
    truth tables are written) and pick every field. Returns the truth
    structure, both template sets, each field's picks and random picks
    (all None unless ``want_random``) and the planted total (None for a
    kind that plants nothing)."""
    _, rank, planted = _KINDS[cfg.kind]
    with _stage("templates"):
        source, truth_set, pick_set = _build_templates(cfg, three_d=rank == 3)
        save_templates(pick_set, out_dir / "templates")
    with _stage("pick"):
        plant_stack = np.asarray(truth_set.templates) if planted else None
        per_field = _per_field(cfg)
        tasks = [
            (index, cfg, pick_set, plant_stack, per_field, want_random)
            for index in range(cfg.field_count)
        ]
        results = _pool_map(_field_task, tasks, threads)
        picks, randoms, truths = (list(column) for column in zip(*results))
        if planted:
            for index, truth in enumerate(truths):
                write_truth(out_dir / f"{_field_stem('truth', index)}.csv", truth, ndim=rank)
    plant_total = sum(map(len, truths)) if planted else None
    return source, truth_set, pick_set, picks, randoms, plant_total


def _fit_halves(cfg, parts, grid, out_dir, key=None):
    """Split per-field picks into seeded halves capped at half the sample
    target, save them as ``picks[_key]_a|b``, fit and save one volume per
    half as ``recon[_key]_a|b``; return both states and the pick count.
    ``parts`` is emptied once the capped halves exist, so a caller that
    hands over its only reference keeps no uncapped pick set alive during
    the fits."""
    stem = "" if key is None else f"_{key}"
    with _stage("pick"):
        halves = split_halves(range(cfg.field_count), seed=cfg.seed)
        target = cfg.sample_target // 2
        picks = [PickSet.concat([parts[i] for i in half], limit=target) for half in halves]
        parts.clear()
        for half, half_picks in zip("ab", picks):
            save_picks(half_picks, out_dir, name=f"picks{stem}_{half}")
    with _stage("reconstruct"):
        recon_cfg = Recon3dConfig(grid=grid, **_em_settings(cfg))
        states = [em_reconstruct3d(half_picks, recon_cfg) for half_picks in picks]
        for half, state in zip("ab", states):
            save_recon_state(state, out_dir / f"recon{stem}_{half}")
    return states, len(picks[0]) + len(picks[1])


def _save_classes(state, out_dir, report=None):
    """Write a 2D fit under ``out_dir``: the state as ``classes/``, one
    preview per class mean and, when given, the bias report."""
    save_gmm_state(state, out_dir / "classes")
    for ell, mean in enumerate(state.means):
        export_preview(mean, out_dir / "previews" / f"mean_{ell:02d}.pgm")
    if report is not None:
        (out_dir / "report.csv").write_text(report.to_csv_text())


def _write_fsc(path, radii, **columns):
    """Write curves sampled at ``radii`` as ``shell,frequency`` plus one column per keyword."""
    return write_table(
        path, ["shell", "frequency", *columns], zip(range(len(radii)), radii, *columns.values())
    )


def _em_settings(cfg):
    """The ``Gmm2dConfig``/``Recon3dConfig`` settings of the config."""
    return dict(
        sigma=cfg.em_sigma,
        max_iters=cfg.em_max_iters,
        rel_tol=cfg.em_rel_tol,
        restarts=cfg.em_restarts,
        seed=cfg.seed,
    )


def _gmm_config(cfg):
    return Gmm2dConfig(class_count=cfg.template_count, **_em_settings(cfg))


def _run_oracle_check(cfg, out_dir, threads):
    rows = []
    for threshold in cfg.oracle_thresholds:
        spec = TruncSpec(cfg.sigma, threshold)
        asymptotic = "" if threshold == 0.0 else effective_variance(spec)
        moments = (trunc_mean(spec), trunc_var(spec), asymptotic, normalizer(spec))
        rows.append((cfg.sigma, threshold, *moments))
    write_table(
        Path(out_dir) / "oracle.csv",
        ["sigma", "threshold", "trunc_mean", "trunc_var", "effective_variance", "normalizer"],
        rows,
    )
    return {"rows": len(rows)}


def _classify_pipeline(cfg, out_dir, threads):
    _, truth_set, pick_set, parts, _, plant_total = _picked_fields(cfg, out_dir, threads)
    with _stage("pick"):
        picks = PickSet.concat(parts, limit=cfg.sample_target)
        del parts
        save_picks(picks, out_dir / "picks")
    with _stage("classify"):
        state = em_classify2d(picks, _gmm_config(cfg))
    with _stage("report"):
        report = match_classes(state.means, truth_set, threshold=cfg.threshold)
        _save_classes(state, out_dir, report)
    summary = {
        "sample_count": len(picks),
        "mean_pcc": report.mean_pcc,
        "mean_scaled_error": mean_scaled_error(report, cfg.threshold),
        "min_alpha": float(report.alphas.min()),
    }
    if plant_total is not None:
        summary["plant_total"] = plant_total
    return summary


def _recon_pipeline(cfg, out_dir, threads):
    source, _, pick_set, parts, _, _ = _picked_fields(cfg, out_dir, threads)
    (state_a, state_b), sample_count = _fit_halves(cfg, parts, pick_set.grid, out_dir)
    with _stage("reconstruct"):
        combined = 0.5 * (state_a.volume + state_b.volume)
        write_tensor(out_dir / "volume.sfn", combined)
        write_tensor(out_dir / "truth_volume.sfn", source)
    with _stage("report"):
        corr, _ = best_rotation_pcc(combined, source, pick_set.grid)
        curve = fsc(state_a.volume, state_b.volume)
        resolution = fsc_resolution(curve)
        mean_low = mean_fsc_below(curve)
        _write_fsc(out_dir / "fsc.csv", curve.radii, correlation=curve.correlations)
        export_preview(combined, out_dir / "previews" / "volume.pgm")
    return {
        "sample_count": sample_count,
        "best_pcc": float(corr),
        "fsc_resolution": float(resolution),
        "mean_fsc": float(mean_low),
    }


def _run_threshold_sweep(cfg, out_dir, threads):
    with _stage("templates"):
        _, truth_set, pick_set = _build_templates(cfg, three_d=False)
        save_templates(pick_set, Path(out_dir) / "templates")
    rows = []
    for index, threshold in enumerate(cfg.sweep_thresholds):
        with _stage(f"sweep T={threshold:g}"):
            mixture = TruncMixture(TruncSpec(cfg.sigma, threshold), pick_set)
            samples, _ = sample_mixture(mixture, cfg.sample_target, seed=cfg.seed + index)
            state = em_classify2d(samples, _gmm_config(cfg))
            report = match_classes(state.means, truth_set, threshold=threshold)
            error = mean_scaled_error(report, threshold)
            rows.append((threshold, report.mean_pcc, error, float(report.alphas.min())))
    write_table(
        Path(out_dir) / "sweep.csv",
        ["threshold", "mean_pcc", "mean_scaled_error", "min_alpha"],
        rows,
    )
    gains = [rows[j + 1][1] - rows[j][1] for j in range(len(rows) - 1)]
    return {
        "pcc_first": rows[0][1],
        "pcc_last": rows[-1][1],
        "pcc_gain": rows[-1][1] - rows[0][1],
        "non_decreasing": int(all(g >= 0.0 for g in gains)),
    }


def _run_halfmap_fsc(cfg, out_dir, threads):
    _, _, pick_set, parts, randoms, _ = _picked_fields(cfg, out_dir, threads, want_random=True)
    curves = {}
    summary = {}
    for key, column in (("template", parts), ("random", randoms)):
        (state_a, state_b), summary[f"{key}_count"] = _fit_halves(
            cfg, column, pick_set.grid, out_dir, key
        )
        with _stage("reconstruct"):
            curves[key] = fsc(state_a.volume, state_b.volume)
            summary[f"{key}_mean_fsc"] = mean_fsc_below(curves[key])
            summary[f"{key}_resolution"] = fsc_resolution(curves[key])
            export_preview(state_a.volume, out_dir / "previews" / f"{key}_half_a.pgm")
    with _stage("report"):
        columns = {key: curve.correlations for key, curve in curves.items()}
        _write_fsc(out_dir / "fsc.csv", curves["template"].radii, **columns)
    return summary


def _run_complexity_scan(cfg, out_dir, threads):
    # (stage, side, samples, sampler seed offset) of every scan point
    points = [(f"scan M={samples}", cfg.patch_side, samples, index)
              for index, samples in enumerate(cfg.scan_samples)]
    points += [(f"scan d={side}^2", side, cfg.sample_target, 100 + index)
               for index, side in enumerate(cfg.scan_sides)]
    # every point's templates are built, and so checked, before any draw or fit
    templates = {}
    for side in dict.fromkeys(side for _, side, _, _ in points):
        key = "geometry.patch_side" if side == cfg.patch_side else "scan.sides"
        with _stage(f"templates d={side}^2"):
            templates[side] = _side_templates(
                make_projection_templates, phantom_volume(side), cfg, key
            )
    spec = TruncSpec(cfg.sigma, cfg.threshold)
    rows = []
    for stage, side, samples, seed_offset in points:
        with _stage(stage):
            mixture = TruncMixture(spec, templates[side])
            draws, _ = sample_mixture(mixture, samples, seed=cfg.seed + seed_offset)
            state = em_classify2d(draws, _gmm_config(cfg))
            report = match_classes(state.means, templates[side], threshold=trunc_mean(spec))
            rows.append((samples, side * side, float(report.scaled_errors.mean())))
    write_table(Path(out_dir) / "scan.csv", ["samples", "dimension", "mse"], rows)
    with _stage("fit"):
        fit = complexity_probe(rows)
    write_table(
        Path(out_dir) / "slopes.csv",
        ["slope_samples", "slope_dimension", "fixed_dimension", "fixed_samples"],
        [(fit.slope_samples, fit.slope_dimension, fit.fixed_dimension, fit.fixed_samples)],
    )
    return {
        "slope_samples": fit.slope_samples,
        "slope_dimension": fit.slope_dimension,
    }


# kind -> (handler, rank of the fields ``_picked_fields`` picks or None, planted)
_KINDS = {
    "oracle-check": (_run_oracle_check, None, False),
    "pure-noise-2d": (_classify_pipeline, 2, False),
    "planted-2d": (_classify_pipeline, 2, True),
    "pure-noise-3d": (_recon_pipeline, 3, False),
    "planted-3d": (_recon_pipeline, 3, True),
    "threshold-sweep": (_run_threshold_sweep, None, False),
    "halfmap-fsc": (_run_halfmap_fsc, 3, False),
    "complexity-scan": (_run_complexity_scan, None, False),
}


def check_experiment(cfg):
    """The settings checks of an experiment, run before anything is
    written; returns the kind's handler."""
    if cfg.kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    handler, rank, planted = _KINDS[cfg.kind]
    if not 0.0 < cfg.sigma < np.inf:
        # every kind reads the noise scale, as its fields or its truncation
        raise ConfigError(f"noise.sigma must be positive and finite, got {cfg.sigma}")
    if cfg.plant_count < 0 and rank is not None:
        raise ConfigError(f"noise.plant_count must be at least 0, got {cfg.plant_count}")
    if cfg.plant_count > 0 and rank is not None and not planted:
        raise ConfigError(f"noise.plant_count must be 0 for {cfg.kind}, got {cfg.plant_count}")
    if cfg.plant_count > 0 and not 0.0 < cfg.snr < np.inf:
        raise ConfigError(f"planting requires a positive, finite noise.snr, got {cfg.snr}")
    if (rank is not None or handler is _run_threshold_sweep) and not 0.0 < cfg.lowpass <= 1.0:
        # the kinds that build their templates with ``_build_templates``
        raise ConfigError(f"templates.lowpass must lie in (0, 1], got {cfg.lowpass}")
    if handler is _classify_pipeline and not np.isfinite(cfg.threshold):
        # the bias report is matched at the picking threshold
        raise ConfigError(f"{cfg.kind} needs a finite picker.threshold, got {cfg.threshold}")
    if handler is not _run_oracle_check:
        # every other kind fits EM: check its keys before any field is picked
        least_one = {
            "geometry.template_count": cfg.template_count,
            "geometry.sample_target": cfg.sample_target,
        }
        if rank is not None:
            least_one["geometry.field_count"] = cfg.field_count
        least_one["geometry.patch_side"] = cfg.patch_side
        if handler is _run_complexity_scan:
            least_one["scan.sides"] = min(cfg.scan_sides)
        for key, value in least_one.items():
            if value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")
        if rank != 3:
            # a 2D fit of geometry.template_count classes is given at most
            # geometry.sample_target patches, or scan.samples draws at a scan point
            draws = {"geometry.sample_target": cfg.sample_target}
            if handler is _run_complexity_scan:
                draws["scan.samples"] = min(cfg.scan_samples)
            for key, value in draws.items():
                if value < cfg.template_count:
                    raise ConfigError(
                        f"{key} must be at least geometry.template_count = {cfg.template_count}, got {value}"
                    )
        if rank == 3 and cfg.field_count < 2:
            # the fields are split into two halves, one volume each
            raise ConfigError(f"{cfg.kind} needs at least 2 fields, got {cfg.field_count}")
        _gmm_config(cfg)
        if rank is not None and len(cfg.canvas) != rank:
            raise ConfigError(f"{cfg.kind} needs a {rank}D canvas, got {'x'.join(map(str, cfg.canvas))}")
        if rank is not None and cfg.patch_side > min(cfg.canvas):
            raise ConfigError(f"patch side {cfg.patch_side} exceeds canvas {cfg.canvas}")
    return handler


def run_experiment(cfg, threads=1):
    """Run one configured experiment and write its artifact directory."""
    with _stage("configure"):
        handler = check_experiment(cfg)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    summary = handler(cfg, out_dir, max(1, int(threads)))
    write_meta(out_dir / "summary.csv", sorted(summary.items()))
    _write_manifest(out_dir, cfg)
    return ExperimentResult(kind=cfg.kind, out_dir=str(out_dir), summary=summary)
