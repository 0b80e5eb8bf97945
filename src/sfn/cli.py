"""Command line driver.

Every subcommand is a thin wrapper over the library: either a full
configured experiment (``run``) or one pipeline stage operating on
artifact directories (``synth``, ``pick``, ``classify2d``, ``recon3d``,
``metrics``, the one stage that writes a bias report), which share the
experiments' field, template, EM-settings and output code.
Domain errors map onto stable exit codes; 0 means success.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ALGORITHMS, ExperimentConfig, _parse_dims, parse_config
from .em import (
    Gmm2dConfig,
    Recon3dConfig,
    em_classify2d,
    em_reconstruct3d,
    load_gmm_state,
    save_recon_state,
)
from .errors import ConfigError, SfnError, ShapeError
from .experiments import (
    _build_templates,
    _field_stem,
    _pool_map,
    _save_classes,
    _write_fsc,
    check_experiment,
    run_experiment,
    synth_field,
)
from .metrics import best_rotation_pcc, fsc, fsc_resolution, match_classes, pcc
from .noisegen import write_truth
from .picker import PickSet, load_picks, pick_field, save_picks
from .preview import export_preview
from .templates import load_templates, save_templates
from .tensors import read_tensor, write_tensor


def _out_dir(args):
    return Path(args.out if args.out is not None else "artifacts")


def _cmd_run(args, threads):
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    result = run_experiment(cfg, threads=threads)
    print(f"wrote {result.out_dir}")
    for key, value in sorted(result.summary.items()):
        print(f"  {key} = {value}")
    return 0


def _parse_canvas(text):
    try:
        return _parse_dims(text)
    except ValueError as exc:
        raise ConfigError(f"bad --canvas {text!r}: {exc}") from exc


def _cmd_synth(args, threads):
    """Write the fields and templates of a planted experiment with these settings."""
    canvas = _parse_canvas(args.canvas)
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    cfg = ExperimentConfig(
        kind=f"planted-{len(canvas)}d", seed=args.seed if args.seed is not None else 0,
        canvas=canvas, patch_side=args.patch_side, template_count=args.template_count,
        sigma=args.sigma, snr=args.snr, plant_count=args.plants,
    )
    if args.plants > 0:
        # unplanted fields are pure noise, which reads no template setting
        check_experiment(cfg)
    out_dir = _out_dir(args)
    fields_dir = out_dir / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    plant_stack = None
    if args.plants > 0:
        _, truth_set, pick_set = _build_templates(cfg, three_d=len(canvas) == 3)
        save_templates(pick_set, out_dir / "templates")
        plant_stack = np.asarray(truth_set.templates)
    total = 0
    for index in range(args.count):
        field = synth_field(cfg, index, plant_stack)
        write_tensor(fields_dir / f"{_field_stem('field', index)}.sfn", field.canvas)
        write_truth(fields_dir / f"{_field_stem('truth', index)}.csv", field.truth, ndim=len(canvas))
        total += len(field.truth)
    print(f"wrote {args.count} fields ({total} planted) to {fields_dir}")
    return 0


def _pick_task(task):
    """Read one saved field and pick it; runs in a worker process."""
    path, template_set, algorithm, threshold, count, seed = task
    return pick_field(read_tensor(path), template_set, algorithm, threshold, count, seed, path.stem)


def _cmd_pick(args, threads):
    """Pick every saved field, seeding field ``i`` with ``seed + i`` as a run does."""
    template_set = load_templates(args.templates)
    paths = {}
    for path in Path(args.fields).glob("field_*.sfn"):
        index = path.stem.removeprefix("field_")
        if not (index.isdecimal() and path.stem == _field_stem("field", int(index))):
            raise ConfigError(f"{path.name} is not a field name sfn synth writes: field_0000.sfn, ...")
        paths[int(index)] = path
    if not paths:
        raise ConfigError(f"no field_*.sfn files under {args.fields}")
    seed = args.seed if args.seed is not None else 0
    tasks = [
        (paths[index], template_set, args.algorithm, args.threshold, args.count, seed + index)
        for index in sorted(paths)
    ]
    picks = PickSet.concat(_pool_map(_pick_task, tasks, threads))
    save_picks(picks, _out_dir(args) / "picks")
    print(f"picked {len(picks)} patches from {len(paths)} fields")
    return 0


def _em_settings(args):
    """The ``Gmm2dConfig``/``Recon3dConfig`` settings of the stage flags."""
    return dict(
        sigma=args.em_sigma,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        restarts=args.restarts,
        seed=args.seed if args.seed is not None else 0,
    )


def _cmd_classify2d(args, threads):
    picks = load_picks(args.picks, name=args.name)
    config = Gmm2dConfig(class_count=args.class_count, **_em_settings(args))
    state = em_classify2d(picks, config)
    _save_classes(state, _out_dir(args))
    print(f"classified {len(picks)} patches into {args.class_count} classes")
    return 0


def _cmd_recon3d(args, threads):
    picks = load_picks(args.picks, name=args.name)
    template_set = load_templates(args.templates)
    if template_set.grid is None:
        raise ConfigError("recon3d needs templates that carry a rotation grid")
    reference = None
    if args.reference is not None:
        reference = read_tensor(args.reference)
        if reference.shape != picks.patches.shape[1:]:
            raise ShapeError(
                f"reference {reference.shape} does not match the patch shape {picks.patches.shape[1:]}"
            )
    config = Recon3dConfig(grid=template_set.grid, **_em_settings(args))
    state = em_reconstruct3d(picks, config)
    out_dir = _out_dir(args)
    save_recon_state(state, out_dir / "recon")
    export_preview(state.volume, out_dir / "previews" / "volume.pgm")
    if reference is not None:
        corr, _ = best_rotation_pcc(state.volume, reference, template_set.grid)
        print(f"best rotation pcc = {corr:.6f}")
    print(f"reconstructed from {len(picks)} patches")
    return 0


def _cmd_metrics(args, threads):
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.means is not None and args.templates is not None:
        state = load_gmm_state(args.means)
        report = match_classes(state.means, load_templates(args.templates), threshold=args.threshold)
        (out_dir / "report.csv").write_text(report.to_csv_text())
        print(f"mean matched pcc = {report.mean_pcc:.6f}")
        return 0
    if args.volume is not None and args.reference is not None:
        volume = read_tensor(args.volume)
        reference = read_tensor(args.reference)
        correlation = pcc(volume, reference)
        curve = fsc(volume, reference)
        _write_fsc(out_dir / "fsc.csv", curve.radii, correlation=curve.correlations)
        print(f"pcc = {correlation:.6f}")
        print(f"fsc resolution = {fsc_resolution(curve):.6f} px")
        return 0
    raise ConfigError("metrics needs either --means and --templates, or --volume and --reference")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sfn",
        description="Synthetic template-picking experiments and their metrics.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    parser.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    parser.add_argument("--out", default=None, help="artifact directory (default: artifacts)")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("run", help="run a configured experiment")
    cmd.add_argument("config", help="path to a section.key = value config file")
    cmd.set_defaults(handler=_cmd_run)

    cmd = commands.add_parser("synth", help="write synthetic noise fields")
    cmd.add_argument("--canvas", default="256x256")
    cmd.add_argument("--count", type=int, default=4)
    cmd.add_argument("--sigma", type=float, default=1.0)
    cmd.add_argument("--snr", type=float, default=0.0)
    cmd.add_argument("--plants", type=int, default=0)
    cmd.add_argument("--patch-side", type=int, default=16)
    cmd.add_argument("--template-count", type=int, default=5)
    cmd.set_defaults(handler=_cmd_synth)

    cmd = commands.add_parser("pick", help="pick particles from saved fields")
    cmd.add_argument("--fields", required=True, help="directory of field_*.sfn")
    cmd.add_argument("--templates", required=True, help="saved template directory")
    cmd.add_argument("--threshold", type=float, default=5.0)
    cmd.add_argument("--algorithm", choices=ALGORITHMS, default="micrograph")
    cmd.add_argument("--count", type=int, default=100, help="random picks per field")
    cmd.set_defaults(handler=_cmd_pick)

    cmd = commands.add_parser("classify2d", help="fit a Gaussian mixture to picks")
    cmd.add_argument("--picks", required=True, help="directory holding saved picks")
    cmd.add_argument("--name", default="picks")
    cmd.add_argument("--class-count", type=int, required=True)
    cmd.add_argument("--em-sigma", type=float, default=1.0)
    cmd.add_argument("--max-iters", type=int, default=200)
    cmd.add_argument("--rel-tol", type=float, default=1e-8)
    cmd.add_argument("--restarts", type=int, default=3)
    cmd.set_defaults(handler=_cmd_classify2d)

    cmd = commands.add_parser("recon3d", help="reconstruct a volume from picks")
    cmd.add_argument("--picks", required=True)
    cmd.add_argument("--name", default="picks")
    cmd.add_argument("--templates", required=True, help="grid source")
    cmd.add_argument("--em-sigma", type=float, default=1.0)
    cmd.add_argument("--max-iters", type=int, default=200)
    cmd.add_argument("--rel-tol", type=float, default=1e-8)
    cmd.add_argument("--restarts", type=int, default=1)
    cmd.add_argument("--reference", default=None, help="optional truth volume tensor")
    cmd.set_defaults(handler=_cmd_recon3d)

    cmd = commands.add_parser("metrics", help="bias report or volume comparison")
    cmd.add_argument("--means", default=None, help="classes directory")
    cmd.add_argument("--templates", default=None)
    cmd.add_argument("--threshold", type=float, default=1.0)
    cmd.add_argument("--volume", default=None)
    cmd.add_argument("--reference", default=None)
    cmd.set_defaults(handler=_cmd_metrics)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"thread count must be >= 1, got {args.threads}")
        return args.handler(args, args.threads)
    except SfnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
