"""Command line driver.

Every subcommand takes the run's config file as its first argument and
reads its settings from it alone; ``--seed`` and ``--out`` stand in for
``experiment.seed`` and ``experiment.out``, and the other flags name
input paths. ``run`` runs the configured experiment. The stage commands
(``synth``, ``pick``, ``classify2d``, ``recon3d``, ``metrics``, the one
stage that writes a bias report) each check the config as a run does
and call that stage's function in ``experiments``, the one a run calls,
on artifact directories; this module only reads their inputs and prints
what they wrote, so on a run's artifacts they write the run's bytes.
Domain errors map onto stable exit codes; 0 means success.
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import parse_config
from .em import load_gmm_state
from .errors import ConfigError, SfnError, ShapeError
from .experiments import (
    build_templates,
    check_experiment,
    field_picks,
    field_stem,
    fit_classes,
    fit_volume,
    picking_kind,
    pool_map,
    run_experiment,
    save_capped_picks,
    split_halves,
    synth_field,
    write_bias_report,
    write_fsc,
)
from .metrics import best_rotation_pcc, fsc_resolution, pcc
from .noisegen import write_truth
from .picker import load_picks
from .preview import export_preview
from .templates import load_templates
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


def _cmd_synth(cfg, args):
    """Write the picking templates, fields and truth tables of the run."""
    rank, planted = picking_kind(cfg)
    out_dir = Path(cfg.out)
    _, truth_set, _ = build_templates(cfg, out_dir)
    plant_stack = np.asarray(truth_set.templates) if planted else None
    fields_dir = out_dir / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for index in range(cfg.field_count):
        field = synth_field(cfg, index, plant_stack)
        write_tensor(fields_dir / f"{field_stem('field', index)}.sfn", field.canvas)
        write_truth(fields_dir / f"{field_stem('truth', index)}.csv", field.truth, ndim=rank)
        total += len(field.truth)
    print(f"wrote {cfg.field_count} fields ({total} planted) to {fields_dir}")
    return 0


def _pick_task(task):
    """Read one saved field and pick it; runs in a worker process."""
    path, index, cfg, template_set = task
    return field_picks(cfg, template_set, index, read_tensor(path))


def _cmd_pick(cfg, args):
    """Pick every saved field as a run picks its field of that index, then
    save the run's capped pick files."""
    rank, _ = picking_kind(cfg)
    template_set = load_templates(args.templates)
    paths = {}
    for path in Path(args.fields).glob("field_*.sfn"):
        index = path.stem.removeprefix("field_")
        if not (index.isdecimal() and path.stem == field_stem("field", int(index))):
            raise ConfigError(f"{path.name} is not a field name sfn synth writes: field_0000.sfn, ...")
        if int(index) >= cfg.field_count:
            raise ConfigError(f"{path.name} is not a field of this run: geometry.field_count = {cfg.field_count}")
        paths[int(index)] = path
    if not paths:
        raise ConfigError(f"no field_*.sfn files under {args.fields}")
    if rank == 3:
        # a 3D kind saves seeded halves of the fields: refuse too few before picking
        split_halves(paths, seed=cfg.seed)
    tasks = [(paths[index], index, cfg, template_set) for index in sorted(paths)]
    fields = pool_map(_pick_task, tasks, args.threads)
    for key in fields[0]:
        saved = save_capped_picks(cfg, [picks[key] for picks in fields], Path(cfg.out), key)
        name = "picks" if key is None else f"{key} picks"
        print(f"kept {sum(map(len, saved))} {name} of {len(paths)} fields")
    return 0


def _cmd_classify2d(cfg, args):
    check_experiment(cfg)
    picks = load_picks(args.picks, name=args.name)
    fit_classes(cfg, picks, Path(cfg.out))
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
    out_dir = Path(cfg.out)
    state = fit_volume(cfg, picks, template_set.grid, out_dir / "recon")
    export_preview(state.volume, out_dir / "previews" / "volume.pgm")
    if reference is not None:
        corr, _ = best_rotation_pcc(state.volume, reference, template_set.grid)
        print(f"best rotation pcc = {corr:.6f}")
    print(f"reconstructed from {len(picks)} patches")
    return 0


def _cmd_metrics(cfg, args):
    means = args.means is not None and args.templates is not None
    if not means and (args.volume is None or args.reference is None):
        raise ConfigError("metrics needs either --means and --templates, or --volume and --reference")
    check_experiment(cfg)
    if means:
        state = load_gmm_state(args.means)
        report = write_bias_report(cfg, state.means, load_templates(args.templates), Path(cfg.out))
        print(f"mean matched pcc = {report.mean_pcc:.6f}")
        return 0
    volume = read_tensor(args.volume)
    reference = read_tensor(args.reference)
    # a pair with no defined correlation fails here, before fsc.csv is written
    score = pcc(volume, reference)
    curve = write_fsc(Path(cfg.out), correlation=(volume, reference))["correlation"]
    print(f"pcc = {score:.6f}")
    print(f"fsc resolution = {fsc_resolution(curve):.6f} px")
    return 0


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
        code = args.handler(_load_config(args), args)
        sys.stdout.flush()
        return code
    except SfnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader of stdout is gone (``sfn run CONFIG | head``). As in
        # Python's SIGPIPE note: point stdout at devnull so the exit flush
        # cannot fail again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
