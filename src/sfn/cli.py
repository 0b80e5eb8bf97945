"""Command line driver.

Every subcommand takes the run's config file as its first argument and
reads its settings from it alone; ``--seed`` and ``--out`` stand in for
``experiment.seed`` and ``experiment.out``, and the other flags name
input paths. ``run`` runs the configured experiment. The stage commands
(``synth``, ``pick``, ``classify2d``, ``recon3d``, ``metrics``, the one
stage that writes a bias report) each run one of its stages on artifact
directories through the experiments' own template, field, picking, EM
and output code, after ``check_experiment`` has passed the config, so on
a run's artifacts they write the run's bytes.
Domain errors map onto stable exit codes; 0 means success.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import parse_config
from .em import (
    Recon3dConfig,
    em_classify2d,
    em_reconstruct3d,
    load_gmm_state,
    save_recon_state,
)
from .errors import ConfigError, SfnError, ShapeError
from .experiments import (
    _KINDS,
    _build_templates,
    _em_settings,
    _field_stem,
    _gmm_config,
    _per_field,
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


def _load_config(args):
    """The run's config file, with ``--seed`` and ``--out`` in place of
    ``experiment.seed`` and ``experiment.out`` when given."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def _cmd_run(cfg, args):
    result = run_experiment(cfg, threads=args.threads)
    print(f"wrote {result.out_dir}")
    for key, value in sorted(result.summary.items()):
        print(f"  {key} = {value}")
    return 0


def _field_kind(cfg):
    """Check the config and return ``(rank, planted)`` of its kind, which
    must pick fields."""
    check_experiment(cfg)
    _, rank, planted = _KINDS[cfg.kind]
    if rank is None:
        raise ConfigError(f"{cfg.kind} picks no fields")
    return rank, planted


def _cmd_synth(cfg, args):
    """Write the picking templates, fields and truth tables of the run."""
    rank, planted = _field_kind(cfg)
    out_dir = Path(cfg.out)
    _, truth_set, pick_set = _build_templates(cfg, three_d=rank == 3)
    save_templates(pick_set, out_dir / "templates")
    plant_stack = np.asarray(truth_set.templates) if planted else None
    fields_dir = out_dir / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for index in range(cfg.field_count):
        field = synth_field(cfg, index, plant_stack)
        write_tensor(fields_dir / f"{_field_stem('field', index)}.sfn", field.canvas)
        write_truth(fields_dir / f"{_field_stem('truth', index)}.csv", field.truth, ndim=rank)
        total += len(field.truth)
    print(f"wrote {cfg.field_count} fields ({total} planted) to {fields_dir}")
    return 0


def _pick_task(task):
    """Read one saved field and pick it; runs in a worker process."""
    path, template_set, algorithm, threshold, count, seed = task
    return pick_field(read_tensor(path), template_set, algorithm, threshold, count, seed, path.stem)


def _cmd_pick(cfg, args):
    """Pick every saved field, seeding field ``i`` with ``seed + i`` as a run does."""
    _field_kind(cfg)
    template_set = load_templates(args.templates)
    paths = {}
    for path in Path(args.fields).glob("field_*.sfn"):
        index = path.stem.removeprefix("field_")
        if not (index.isdecimal() and path.stem == _field_stem("field", int(index))):
            raise ConfigError(f"{path.name} is not a field name sfn synth writes: field_0000.sfn, ...")
        paths[int(index)] = path
    if not paths:
        raise ConfigError(f"no field_*.sfn files under {args.fields}")
    per_field = _per_field(cfg)
    tasks = [
        (paths[index], template_set, cfg.algorithm, cfg.threshold, per_field, cfg.seed + index)
        for index in sorted(paths)
    ]
    picks = PickSet.concat(_pool_map(_pick_task, tasks, args.threads))
    save_picks(picks, Path(cfg.out) / "picks")
    print(f"picked {len(picks)} patches from {len(paths)} fields")
    return 0


def _cmd_classify2d(cfg, args):
    check_experiment(cfg)
    picks = load_picks(args.picks, name=args.name)
    state = em_classify2d(picks, _gmm_config(cfg))
    _save_classes(state, Path(cfg.out))
    print(f"classified {len(picks)} patches into {cfg.template_count} classes")
    return 0


def _cmd_recon3d(cfg, args):
    check_experiment(cfg)
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
    config = Recon3dConfig(grid=template_set.grid, **_em_settings(cfg))
    state = em_reconstruct3d(picks, config)
    out_dir = Path(cfg.out)
    save_recon_state(state, out_dir / "recon")
    export_preview(state.volume, out_dir / "previews" / "volume.pgm")
    if reference is not None:
        corr, _ = best_rotation_pcc(state.volume, reference, template_set.grid)
        print(f"best rotation pcc = {corr:.6f}")
    print(f"reconstructed from {len(picks)} patches")
    return 0


def _cmd_metrics(cfg, args):
    check_experiment(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.means is not None and args.templates is not None:
        state = load_gmm_state(args.means)
        report = match_classes(state.means, load_templates(args.templates), threshold=cfg.threshold)
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


def _add_command(commands, name, handler, help):
    """A subcommand whose first argument is the run's config file."""
    cmd = commands.add_parser(name, help=help)
    cmd.add_argument("config", help="path to the run's section.key = value config file")
    cmd.set_defaults(handler=handler)
    return cmd


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sfn",
        description="Synthetic template-picking experiments and their metrics.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    parser.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    parser.add_argument("--out", default=None, help="artifact directory (default: artifacts)")
    commands = parser.add_subparsers(dest="command", required=True)

    _add_command(commands, "run", _cmd_run, "run a configured experiment")

    _add_command(commands, "synth", _cmd_synth, "write the run's templates and fields")

    cmd = _add_command(commands, "pick", _cmd_pick, "pick particles from saved fields")
    cmd.add_argument("--fields", required=True, help="directory of field_*.sfn")
    cmd.add_argument("--templates", required=True, help="saved template directory")

    cmd = _add_command(commands, "classify2d", _cmd_classify2d, "fit a Gaussian mixture to picks")
    cmd.add_argument("--picks", required=True, help="directory holding saved picks")
    cmd.add_argument("--name", default="picks")

    cmd = _add_command(commands, "recon3d", _cmd_recon3d, "reconstruct a volume from picks")
    cmd.add_argument("--picks", required=True)
    cmd.add_argument("--name", default="picks")
    cmd.add_argument("--templates", required=True, help="grid source")
    cmd.add_argument("--reference", default=None, help="optional truth volume tensor")

    cmd = _add_command(commands, "metrics", _cmd_metrics, "bias report or volume comparison")
    cmd.add_argument("--means", default=None, help="classes directory")
    cmd.add_argument("--templates", default=None)
    cmd.add_argument("--volume", default=None)
    cmd.add_argument("--reference", default=None)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"thread count must be >= 1, got {args.threads}")
        return args.handler(_load_config(args), args)
    except SfnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
