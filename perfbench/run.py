"""Benchmark of the sfn package: time to solution, CPU, memory, set-up
time and recovery quality on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload noise2d-classes --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh process (``perfbench/rep.py``). With
``--trace 0`` the run repeats the workload on the seed's inputs while the
time budget allows and reports medians of the end-to-end metrics. With
``--trace 1`` it runs one untraced and one traced repetition and reports
the per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
# Workload and metric names with units; BENCHMARK.json is their one source.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Set-up is sampled this many times besides once per repetition.
SETUP_ONLY_RUNS = 3
# A run must finish within 180 s; children get what remains of this.
RUN_BUDGET_S = 170.0
MAX_REPS = 64
POOL_WORKERS = 2


class Run:
    """Child processes of one benchmark run and what they reported."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.workers = max(1, min(POOL_WORKERS, len(os.sched_getaffinity(0))))

    def child(self, *extra):
        """Run ``rep.py`` in its own process group; return its JSON line."""
        argv = [sys.executable, str(REP), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--workers", str(self.workers), *extra]
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.start)
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"repetition exceeded the {RUN_BUDGET_S:.0f} s run budget"}
        finally:
            # Reap anything the child left in its group (pool workers).
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"rep.py exited with {proc.returncode}"}
        return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else None


def report_rep(label, rep):
    if "error" in rep:
        print(f"{label}: ERROR {rep['error']}")
        return
    print(f"{label}: setup_s={rep['setup_s']:.4f} wall_s={rep['wall_s']:.4f} "
          f"cpu_s={rep['cpu_s']:.4f} peak_rss_mb={rep['peak_rss_mb']:.1f} "
          f"quality={rep['quality']:.6f} details={json.dumps(rep['details'])}")
    print(f"{label}: digest {json.dumps(rep['digest'], sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the acceptance-criteria inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; repetitions start only while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "sfn" / "__init__.py").is_file():
        print(f"error: no sfn package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    run = Run(args)
    setups, reps = [], []
    environment = None
    for _ in range(SETUP_ONLY_RUNS):
        result = run.child("--setup-only")
        if "error" in result:
            print(f"setup: ERROR {result['error']}")
            continue
        setups.append(result["setup_s"])
        environment = environment or result["environment"]
    if environment is None:
        print("error: set-up failed in every attempt", file=sys.stderr)
        return 1

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(
        [f"nproc={len(os.sched_getaffinity(0))}", f"cpu_count={os.cpu_count()}"]
        + [f"{key}={value}" for key, value in environment.items()]
        + [f"pool_workers={run.workers}"]))

    if args.trace:
        untraced = run.child()
        traced = run.child("--trace", "1")
        report_rep("untraced", untraced)
        report_rep("traced", traced)
        reps = [untraced, traced]
    else:
        measure_start = time.perf_counter()
        longest = 0.0
        while len(reps) < MAX_REPS:
            began = time.perf_counter()
            reps.append(run.child())
            longest = max(longest, time.perf_counter() - began)
            used = time.perf_counter() - measure_start
            if used + longest > args.seconds:
                break
        for index, rep in enumerate(reps):
            report_rep(f"rep {index}", rep)

    good = [rep for rep in reps if "error" not in rep]
    attempted = failed = 0
    for rep in reps:
        attempted += 1
        if "error" in rep:
            failed += 1
            continue
        for name, ok, detail in rep["checks"]:
            attempted += 1
            failed += not ok
            print(f"check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
        for note in rep["notes"]:
            print(f"note {note}")
    digests = {json.dumps(rep["digest"], sort_keys=True) for rep in good}
    if len(good) > 1:
        attempted += 1
        failed += len(digests) != 1
        print(f"check {'ok  ' if len(digests) == 1 else 'FAIL'} "
              f"repetitions agree exactly ({len(good)} digests, {len(digests)} distinct)")
    if not good:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    setups += [rep["setup_s"] for rep in good]

    if args.trace:
        layers = dict(traced.get("layers") or {})
        if "wall_s" in traced and "wall_s" in untraced:
            layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": median([rep["wall_s"] for rep in good]),
            "setup_s": median(setups),
            "cpu_s": median([rep["cpu_s"] for rep in good]),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in good]),
            "quality": median([rep["quality"] for rep in good]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"samples: {len(good)} repetition(s), {len(setups)} set-up(s)")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']} {entry['unit']}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")

    shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
