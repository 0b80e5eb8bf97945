"""One repetition of a benchmark workload, run in a fresh process.

Usage (from the checkout root)::

    python3 perfbench/rep.py --workload sampled-em --seed 0 [--trace 1] [--setup-only]

Set-up time runs from the top of this script (before ``import sfn``) to
the first field synthesis or sample draw. The solve is timed from there to
the workload's final quality number. The last line of standard output is
one JSON object with the timings, quality, checks, digest and, when
tracing, the per-layer metrics. Correctness checks run after the timed
region and after the peak RSS is read.
"""

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import checks as ck  # noqa: E402

# Workload sizes: see perfbench/README.md for why each was chosen.
SIGMA = 1.25
T_2D = 5.0
T_3D = 3.5
FIELDS_2D = 12
CANVAS_2D = (2048, 2048)
SAMPLES_3D = 6_000
# Below any likelihood change EM can reach: the fit runs its full schedule.
FIXED_SCHEDULE_TOL = 1e-300


def import_sfn():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sfn
    import sfn.cli  # noqa: F401  (loaded before the tracer wraps names)

    if not Path(sfn.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"sfn imported from {sfn.__file__}, not from {src}")
    return sfn


def orthonormal_templates(sfn, count=5, side=16, seed=42):
    """Exactly orthonormal random 2D templates: QR of white noise."""
    import numpy as np

    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((count, side * side)).T)
    return sfn.external_templates(q.T.reshape(count, side, side))


class Noise2dClasses:
    """Library path of the README example and criterion 4: pick pure-noise
    2048^2 fields, classify the picks, match classes to templates."""

    def setup(self, sfn, seed, workers):
        self.sfn = sfn
        self.seed = seed
        self.templates = orthonormal_templates(sfn)
        self.config = sfn.Gmm2dConfig(class_count=5, sigma=SIGMA, restarts=2, seed=7)

    def solve(self):
        sfn = self.sfn
        parts = []
        for index in range(FIELDS_2D):
            spec = sfn.NoiseSpec(sigma=SIGMA, seed=1000 + self.seed, stream=index)
            field = sfn.gaussian_field(CANVAS_2D, spec)
            parts.append(
                sfn.pick_micrograph(field, self.templates, T_2D, source_id=f"field_{index:04d}")
            )
        self.picks = sfn.PickSet.concat(parts)
        self.state = sfn.em_classify2d(self.picks, self.config)
        self.pcc_2d = sfn.match_classes(self.state.means, self.templates, threshold=T_2D).mean_pcc
        return self.pcc_2d

    def check(self, checks):
        picks = self.picks
        checks.add("threshold recorded", picks.threshold == T_2D, picks.threshold)
        checks.scores_at_least("picks", picks.scores, T_2D)
        checks.no_overlap("picks", picks.positions, picks.source_ids, CANVAS_2D, picks.side)
        checks.trace_non_decreasing("classify2d", self.state.log_likelihoods)
        checks.at_least("pcc_2d", self.pcc_2d, ck.PCC_2D_FLOOR)
        return {"pcc_2d": self.pcc_2d}, {
            "picks": len(picks),
            "picks_sha": ck.array_digest(picks.positions, picks.scores),
            "em_iters": [len(self.state.log_likelihoods)],
        }


HALFMAP_CONFIG = """\
experiment.kind = halfmap-fsc
experiment.seed = {seed}
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
"""


class Noise3dHalfmap:
    """Criterion 8's half-map FSC experiment through the command line:
    config, process pool, artifacts and manifest."""

    def setup(self, sfn, seed, workers):
        self.sfn = sfn
        self.workers = workers
        # A path relative to the checkout root keeps the manifest, which
        # records it, identical across checkouts.
        self.dir = (WORK / "halfmap").relative_to(ROOT)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out = self.dir / "out"
        self.config_path = self.dir / "halfmap.cfg"
        self.config_path.write_text(HALFMAP_CONFIG.format(seed=8 + seed, out=self.out.as_posix()))
        config = sfn.parse_config(self.config_path)
        # The experiment builds its templates again inside the solve; this
        # copy puts template building into set-up time, as for the others.
        sfn.make_rotation_templates(sfn.phantom_volume(config.patch_side),
                                    config.template_count, seed=config.seed)

    def solve(self):
        argv = ["--threads", str(self.workers), "run", str(self.config_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.sfn.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sfn {' '.join(argv)} exited with {code}")
        with open(self.out / "summary.csv", newline="") as handle:
            self.summary = {row["key"]: float(row["value"]) for row in csv.DictReader(handle)}
        return self.summary["template_mean_fsc"]

    def check(self, checks):
        sfn = self.sfn
        digest = {"picks": {}, "em_iters": []}
        shas = []
        for key in ("template", "random"):
            for half in ("a", "b"):
                name = f"picks_{key}_{half}"
                picks = sfn.load_picks(self.out, name=name)
                if key == "template":
                    checks.add(f"{name}: threshold recorded", picks.threshold == T_3D,
                               picks.threshold)
                    checks.scores_at_least(name, picks.scores, T_3D)
                checks.no_overlap(name, picks.positions, picks.source_ids,
                                  picks.canvas_dims, picks.side)
                digest["picks"][name] = len(picks)
                shas.append(ck.array_digest(picks.positions, picks.scores))
                state = sfn.load_recon_state(self.out / f"recon_{key}_{half}")
                checks.trace_non_decreasing(f"recon_{key}_{half}", state.log_likelihoods)
                digest["em_iters"].append(len(state.log_likelihoods))
        template = self.summary["template_mean_fsc"]
        random = self.summary["random_mean_fsc"]
        checks.at_least("template_mean_fsc", template, ck.TEMPLATE_FSC_FLOOR)
        checks.at_least("fsc_gap (template - random)", template - random, ck.FSC_GAP_FLOOR)
        checks.note_at_most("random_mean_fsc", random, ck.RANDOM_FSC_CEILING)
        digest["picks_sha"] = hashlib.sha256("".join(shas).encode()).hexdigest()[:16]
        digest["manifest_sha"] = hashlib.sha256(
            (self.out / "manifest.csv").read_bytes()).hexdigest()[:16]
        return {"template_fsc": template, "random_fsc": random, "fsc_gap": template - random}, digest

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class SampledEm:
    """EM without picking: exact truncated-mixture draws around criterion
    6's rotation templates, at its sample count, feed 3D reconstruction.

    The fit runs a fixed schedule of restarts x max_iters iterations: its
    tolerance is set below any reachable likelihood change, so only an
    exactly repeated likelihood or a rejected step ends a restart early.
    With the default tolerance the iteration count to convergence swung
    from 81 to 109 between inputs and spread the time by 15 to 21%.
    """

    def setup(self, sfn, seed, workers):
        import numpy as np

        self.sfn = sfn
        self.seed = seed
        self.phantom = sfn.phantom_volume(16)
        self.templates = sfn.make_rotation_templates(self.phantom, 20, seed=42)
        grid = self.templates.grid
        self.probe = sfn.RotationGrid(
            np.concatenate([[[1.0, 0.0, 0.0, 0.0]], grid.quaternions]), seed=-1)
        self.mixture = sfn.TruncMixture(sfn.TruncSpec(SIGMA, T_3D), self.templates)
        self.recon = sfn.Recon3dConfig(grid=grid, sigma=SIGMA, seed=9, restarts=2,
                                       max_iters=60, rel_tol=FIXED_SCHEDULE_TOL)

    def solve(self):
        sfn = self.sfn
        self.samples, _ = sfn.sample_mixture(self.mixture, SAMPLES_3D, seed=3000 + self.seed)
        self.state = sfn.em_reconstruct3d(self.samples, self.recon)
        self.pcc_3d, _ = sfn.best_rotation_pcc(self.state.volume, self.phantom, self.probe)
        return self.pcc_3d

    def check(self, checks):
        import numpy as np

        flat = np.asarray(self.templates.templates).reshape(len(self.templates), -1)
        scores = (self.samples.reshape(len(self.samples), -1) @ flat.T).max(axis=1)
        # A draw is score * x + noise projected off x, so its score matches
        # the drawn one up to float64 rounding.
        checks.scores_at_least("samples", scores, T_3D, slack=1e-9 * T_3D)
        checks.notes.append("overlap check not applicable: samples carry no positions")
        checks.trace_non_decreasing("recon3d", self.state.log_likelihoods)
        checks.at_least("pcc_3d", self.pcc_3d, ck.PCC_3D_FLOOR)
        return {"pcc_3d": float(self.pcc_3d)}, {
            "samples": len(self.samples),
            "samples_sha": ck.array_digest(self.samples),
            "em_iters": [len(self.state.log_likelihoods)],
            "em_converged": [bool(self.state.converged)],
        }


WORKLOADS = {
    "noise2d-classes": Noise2dClasses,
    "noise3d-halfmap": Noise3dHalfmap,
    "sampled-em": SampledEm,
}


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib():
    """Larger of this process's peak RSS and its largest child's (Linux
    reports kilobytes)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sfn = import_sfn()
    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from tracing import Tracer

        trace_dir = WORK / f"trace-{os.getpid()}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(trace_dir)
        tracer.install()
    out = {"workload": args.workload, "seed": args.seed}
    try:
        workload.setup(sfn, args.seed, args.workers)
        out["setup_s"] = time.perf_counter() - SCRIPT_START
        if args.setup_only:
            out["environment"] = environment()
            return out
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        quality = workload.solve()
        out["wall_s"] = time.perf_counter() - wall0
        out["cpu_s"] = cpu_seconds() - cpu0
        out["peak_rss_mb"] = peak_rss_mib()
        out["quality"] = float(quality)
        if tracer is not None:
            from tracing import layer_metrics

            tracer.uninstall()
            out["layers"] = layer_metrics(tracer.collect(), tracer.main_pid)
        checks = ck.Checks()
        out["details"], out["digest"] = workload.check(checks)
        out["checks"] = checks.results
        out["notes"] = checks.notes
    except Exception:
        traceback.print_exc()
        out["error"] = traceback.format_exc().strip().splitlines()[-1]
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()
        if tracer is not None:
            shutil.rmtree(tracer.out_dir, ignore_errors=True)
    return out


if __name__ == "__main__":
    result = main()
    print(json.dumps(result))
