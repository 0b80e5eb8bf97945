"""End-to-end experiment pipelines with deterministic artifacts.

Each experiment kind composes the synthesis, picking, fitting, and
metric modules into one reproducible run: same config, same bytes.
``_KINDS`` gives each kind its handler, field rank and planting. Each
stage is one function here, called by a run's pipeline and by the
matching ``sfn`` stage command alike: ``build_templates``,
``field_picks``, ``save_capped_picks``, ``fit_classes``,
``write_bias_report``, ``fit_volume`` and ``write_fsc``. Every picking
kind picks its fields through ``_picked_fields``, each field from
``synth_field`` as in ``sfn synth``, across worker processes, always
reassembled in index order, so the thread count never changes results.
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
    fit_axes,
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


def build_templates(cfg, out_dir):
    """Templates stage: the truth structure, its template set (rotations
    for a 3D kind, else projections), and the picking set, low-passed and
    saved as ``templates/``. The mismatched variant picks with a different
    structure on the same rotation grid: only the assumed shape is wrong."""
    _, rank, _ = _KINDS[cfg.kind]
    maker = make_rotation_templates if rank == 3 else make_projection_templates
    with _stage("templates"):
        source = phantom_volume(cfg.patch_side)
        truth_set = pick_set = _side_templates(maker, source, cfg, "geometry.patch_side")
        if cfg.template_variant == "mismatched":
            pick_set = _side_templates(maker, decoy_volume(cfg.patch_side), cfg, "geometry.patch_side")
        pick_set = lowpass(pick_set, cfg.lowpass)
        save_templates(pick_set, out_dir / "templates")
    return source, truth_set, pick_set


def picking_kind(cfg):
    """Check the config and return ``(rank, planted)`` of its kind, which
    must pick fields."""
    check_experiment(cfg)
    _, rank, planted = _KINDS[cfg.kind]
    if rank is None:
        raise ConfigError(f"{cfg.kind} picks no fields")
    return rank, planted


def synth_field(cfg, index, plant_stack):
    """Field ``index``: noise keyed by ``(cfg.seed, STREAM_FIELD + index)``
    with ``cfg.plant_count`` patches of ``plant_stack`` planted at ``cfg.snr``."""
    spec = NoiseSpec(sigma=cfg.sigma, seed=cfg.seed, stream=STREAM_FIELD + index)
    return plant_particles(cfg.canvas, plant_stack, cfg.plant_count, spec, cfg.snr)


def field_stem(prefix, index):
    """``<prefix>_<index, 4 digits>``: the file stem of field ``index``'s
    canvas (``field``, also its picks' source id) or truth table (``truth``)."""
    return f"{prefix}_{index:04d}"


def field_picks(cfg, templates, index, canvas):
    """One field's picks stage: field ``index``'s ``canvas`` picked at
    seed ``cfg.seed + index``, asking ``geometry.sample_target`` over
    ``geometry.field_count`` picks, rounded up. Returns them by pick-file
    key: ``None``, or ``template`` and as many ``random`` picks for ``halfmap-fsc``."""
    source_id = field_stem("field", index)
    seed = cfg.seed + index
    count = math.ceil(cfg.sample_target / cfg.field_count)
    picks = pick_field(canvas, templates, cfg.algorithm, cfg.threshold, count, seed, source_id)
    if cfg.kind != "halfmap-fsc":
        return {None: picks}
    random_picks = pick_field(canvas, templates, "random", cfg.threshold, max(len(picks), 1), seed, source_id)
    return {"template": picks, "random": random_picks}


def _field_task(task):
    """Synthesize one field and pick it; runs in a worker process."""
    index, cfg, templates, plant_stack = task
    field = synth_field(cfg, index, plant_stack)
    return field_picks(cfg, templates, index, field.canvas), field.truth


def pool_map(function, tasks, threads):
    """``function`` over ``tasks`` in ``threads`` worker processes, results
    in task order; a single thread runs in this process."""
    if threads <= 1:
        return [function(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(function, tasks, chunksize=1))


def _picked_fields(cfg, out_dir, threads):
    """The templates and pick stages of every picking kind: save the
    picking templates, then synthesize (planting for a planted kind, whose
    truth tables are written) and pick every field. Returns the truth
    structure, both template sets, the per-field picks by pick-file key
    and the planted total (None for a kind that plants nothing)."""
    _, rank, planted = _KINDS[cfg.kind]
    source, truth_set, pick_set = build_templates(cfg, out_dir)
    with _stage("pick"):
        plant_stack = np.asarray(truth_set.templates) if planted else None
        tasks = [(index, cfg, pick_set, plant_stack) for index in range(cfg.field_count)]
        results = pool_map(_field_task, tasks, threads)
        if planted:
            for index, (_, truth) in enumerate(results):
                write_truth(out_dir / f"{field_stem('truth', index)}.csv", truth, ndim=rank)
    parts = {key: [picks[key] for picks, _ in results] for key in results[0][0]}
    plant_total = sum(len(truth) for _, truth in results) if planted else None
    return source, truth_set, pick_set, parts, plant_total


def save_capped_picks(cfg, parts, out_dir, key=None):
    """Pick-files stage: a 2D kind saves its per-field picks, in field
    order up to ``geometry.sample_target``, as ``picks/``; a 3D kind saves
    seeded halves of the fields, each up to half the target, as
    ``picks[_key]_a|b``. Returns the saved sets. ``parts`` is emptied, so
    a caller handing over its only reference keeps no uncapped picks."""
    _, rank, _ = _KINDS[cfg.kind]
    with _stage("pick"):
        if rank == 2:
            saved = [PickSet.concat(parts, limit=cfg.sample_target)]
            parts.clear()
            save_picks(saved[0], out_dir / "picks")
            return saved
        halves = split_halves(range(len(parts)), seed=cfg.seed)
        saved = [PickSet.concat([parts[i] for i in half], limit=cfg.sample_target // 2) for half in halves]
        parts.clear()
        stem = "" if key is None else f"_{key}"
        for half, half_picks in zip("ab", saved):
            save_picks(half_picks, out_dir, name=f"picks{stem}_{half}")
    return saved


def fit_classes(cfg, picks, out_dir):
    """2D fit stage: ``geometry.template_count`` classes fitted with the
    ``em.*`` settings, saved as ``classes/`` with one preview per mean."""
    with _stage("classify"):
        state = em_classify2d(picks, _gmm_config(cfg))
        save_gmm_state(state, out_dir / "classes")
        for ell, mean in enumerate(state.means):
            export_preview(mean, out_dir / "previews" / f"mean_{ell:02d}.pgm")
    return state


def write_bias_report(cfg, means, template_set, out_dir):
    """Bias report stage: class ``means`` matched to ``template_set`` at
    ``picker.threshold``, written as ``report.csv``."""
    with _stage("report"):
        report = match_classes(means, template_set, threshold=cfg.threshold)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.csv").write_text(report.to_csv_text())
    return report


def fit_volume(cfg, picks, grid, directory):
    """3D fit stage: a volume fitted on ``grid`` with the ``em.*``
    settings, saved under ``directory``."""
    with _stage("reconstruct"):
        state = em_reconstruct3d(picks, Recon3dConfig(grid=grid, **_em_settings(cfg)))
        save_recon_state(state, directory)
    return state


def write_fsc(out_dir, **pairs):
    """FSC stage: the FSC curve of each named pair of volumes, returned by
    name and written as ``fsc.csv``, ``shell,frequency`` and one column each."""
    curves = {name: fsc(*volumes) for name, volumes in pairs.items()}
    radii = next(iter(curves.values())).radii
    rows = zip(range(len(radii)), radii, *(curve.correlations for curve in curves.values()))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(out_dir / "fsc.csv", ["shell", "frequency", *curves], rows)
    return curves


def _fit_halves(cfg, parts, grid, out_dir, key=None):
    """Save the capped halves of ``parts`` (``save_capped_picks``), fit and
    save one volume per half as ``recon[_key]_a|b``; return both states
    and the pick count."""
    halves = save_capped_picks(cfg, parts, out_dir, key)
    stem = "" if key is None else f"_{key}"
    states = [fit_volume(cfg, picks, grid, out_dir / f"recon{stem}_{half}") for half, picks in zip("ab", halves)]
    return states, sum(map(len, halves))


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
    _, truth_set, _, parts, plant_total = _picked_fields(cfg, out_dir, threads)
    (picks,) = save_capped_picks(cfg, parts[None], out_dir)
    state = fit_classes(cfg, picks, out_dir)
    report = write_bias_report(cfg, state.means, truth_set, out_dir)
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
    source, _, pick_set, parts, _ = _picked_fields(cfg, out_dir, threads)
    (state_a, state_b), sample_count = _fit_halves(cfg, parts[None], pick_set.grid, out_dir)
    with _stage("reconstruct"):
        combined = 0.5 * (state_a.volume + state_b.volume)
        write_tensor(out_dir / "volume.sfn", combined)
        write_tensor(out_dir / "truth_volume.sfn", source)
    with _stage("report"):
        corr, _ = best_rotation_pcc(combined, source, pick_set.grid)
        curve = write_fsc(out_dir, correlation=(state_a.volume, state_b.volume))["correlation"]
        resolution = fsc_resolution(curve)
        mean_low = mean_fsc_below(curve)
        export_preview(combined, out_dir / "previews" / "volume.pgm")
    return {
        "sample_count": sample_count,
        "best_pcc": float(corr),
        "fsc_resolution": float(resolution),
        "mean_fsc": float(mean_low),
    }


def _run_threshold_sweep(cfg, out_dir, threads):
    _, truth_set, pick_set = build_templates(cfg, out_dir)
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
    _, _, pick_set, parts, _ = _picked_fields(cfg, out_dir, threads)
    volumes = {}
    summary = {}
    for key, column in parts.items():  # cut each key's halves just before its fits, for memory
        (state_a, state_b), summary[f"{key}_count"] = _fit_halves(cfg, column, pick_set.grid, out_dir, key)
        volumes[key] = (state_a.volume, state_b.volume)
        export_preview(state_a.volume, out_dir / "previews" / f"{key}_half_a.pgm")
    with _stage("report"):
        for key, curve in write_fsc(out_dir, **volumes).items():
            summary[f"{key}_mean_fsc"] = mean_fsc_below(curve)
            summary[f"{key}_resolution"] = fsc_resolution(curve)
    return summary


def _scan_points(cfg):
    """``(stage, side, samples, sampler seed offset)`` of every scan point."""
    points = [(f"scan M={samples}", cfg.patch_side, samples, index)
              for index, samples in enumerate(cfg.scan_samples)]
    points += [(f"scan d={side}^2", side, cfg.sample_target, 100 + index)
               for index, side in enumerate(cfg.scan_sides)]
    return points


def _run_complexity_scan(cfg, out_dir, threads):
    points = _scan_points(cfg)
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
        # the kinds that build their templates with ``build_templates``
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
        if handler is _run_complexity_scan:
            # the slopes need three distinct values on each axis of the scan
            points = [(samples, side * side) for _, side, samples, _ in _scan_points(cfg)]
            try:
                fit_axes(points, ("scan.samples", "scan.sides"))
            except ArgumentError as exc:
                raise ConfigError(str(exc)) from exc
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
