"""Span tracing around the public functions of the ``sfn`` package.

The tracer wraps each traced function wherever a loaded ``sfn`` module
binds it, because modules import functions by name (``experiments`` and
``em`` hold their own references to ``pick_micrograph`` and
``rotate_volume``). Nothing inside the package is edited.

Spans are kept in memory. Pool workers are forked from the traced process
and inherit the wrappers; a worker writes its spans to its own
``spans-<pid>.jsonl`` file each time its outermost span closes, and the
parent merges those files when the run ends.
"""

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (span name, module that defines the function, attribute name)
FUNCTIONS = (
    ("noisegen.gaussian_field", "sfn.noisegen", "gaussian_field"),
    ("picker.correlation_map", "sfn.picker", "correlation_map"),
    ("picker.pick_micrograph", "sfn.picker", "pick_micrograph"),
    ("picker.pick_random", "sfn.picker", "pick_random"),
    ("picker.save_picks", "sfn.picker", "save_picks"),
    ("tensors.write_tensor", "sfn.tensors", "write_tensor"),
    ("tensors.rotate_volume", "sfn.tensors", "rotate_volume"),
    ("experiments.git_blob_hash", "sfn.experiments", "git_blob_hash"),
    ("experiments.run_experiment", "sfn.experiments", "run_experiment"),
    ("truncgauss.sample_mixture", "sfn.truncgauss", "sample_mixture"),
    ("em.classify2d", "sfn.em", "em_classify2d"),
    ("em.recon3d", "sfn.em", "em_reconstruct3d"),
    ("metrics.match_classes", "sfn.metrics", "match_classes"),
    ("metrics.best_rotation_pcc", "sfn.metrics", "best_rotation_pcc"),
    ("metrics.fsc", "sfn.metrics", "fsc"),
    ("templates.build", "sfn.templates", "make_projection_templates"),
    ("templates.build", "sfn.templates", "make_rotation_templates"),
    ("templates.build", "sfn.templates", "external_templates"),
)

# Time the tracer spends on its own counts; recorded as a child span so
# that it is excluded from the self time of the span it sits in.
BOOKKEEPING = "trace.bookkeeping"
POOL = "experiments.pool"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _counts(name, args, kwargs, result):
    """Work counts of one call, taken from its arguments and result."""
    if name == "noisegen.gaussian_field":
        return {"bytes": result.nbytes}
    if name == "picker.correlation_map":
        # Forward transforms of canvas and padded template plus the inverse,
        # each over a canvas-sized float64 array (computed, not measured).
        return {"bytes": 3 * result.nbytes}
    if name == "picker.save_picks":
        directory = Path(_arg(args, kwargs, 1, "directory"))
        stem = kwargs.get("name", args[2] if len(args) > 2 else "picks")
        files = (f"{stem}.sfn", f"{stem}.meta.csv", f"{stem}.csv")
        return {"bytes": sum(_file_size(directory / f) for f in files)}
    if name == "tensors.write_tensor":
        return {"bytes": _file_size(result)}
    if name == "experiments.git_blob_hash":
        return {"bytes": len(_arg(args, kwargs, 0, "data"))}
    if name == "truncgauss.sample_mixture":
        return {"samples": len(result[0])}
    if name in ("em.classify2d", "em.recon3d"):
        return {"iters": len(result.log_likelihoods), "converged": int(result.converged)}
    return {}


class Tracer:
    """Records spans ``[name, start, end, parent, pid, counts]``.

    ``parent`` is the index of the enclosing span in the same process.
    """

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans = []
        self.stack = []
        self.installed = []

    # -- recording --------------------------------------------------------
    def _own(self):
        pid = os.getpid()
        if pid != self.pid:
            # Forked worker: drop the parent's spans and open frames.
            self.pid = pid
            self.spans = []
            self.stack = []

    def _open(self, name, start):
        self._own()
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, None, parent, self.pid, {}])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index, end, counts):
        span = self.spans[index]
        span[2] = end
        span[5].update(counts)
        self.stack.pop()
        # The counts above were taken after ``end``; book that time to the
        # enclosing span's bookkeeping child, not to its self time.
        self.spans.append([BOOKKEEPING, end, time.perf_counter(), span[3], self.pid, {}])
        if not self.stack and self.pid != self.main_pid:
            self._flush()

    def _flush(self):
        """Append this worker's finished spans as one batch; parent indices
        in a batch count from the batch's first span."""
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def wrap(self, name, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer._open(name, time.perf_counter())
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.spans[index][5].pop("_best", None)
                tracer._close(index, time.perf_counter(), {"raised": 1})
                raise
            end = time.perf_counter()
            counts = _counts(name, args, kwargs, result)
            if name == "picker.correlation_map":
                tracer._merge_best(result)
            elif name == "picker.pick_micrograph":
                counts.update(tracer._pick_counts(index, args, kwargs, result))
            tracer._close(index, end, counts)
            return result

        return traced

    # -- picker candidate counts ------------------------------------------
    def _merge_best(self, scores):
        """Keep the pixelwise best correlation of the enclosing pick call."""
        for index in reversed(self.stack):
            span = self.spans[index]
            if span[0] == "picker.pick_micrograph":
                best = span[5].get("_best")
                if best is None:
                    span[5]["_best"] = np.array(scores, copy=True)
                else:
                    np.maximum(best, scores, out=best)
                return

    def _pick_counts(self, index, args, kwargs, result):
        best = self.spans[index][5].pop("_best", None)
        threshold = float(_arg(args, kwargs, 2, "threshold"))
        candidates = 0 if best is None else int(np.count_nonzero(best > threshold))
        return {"candidates": candidates, "picks": len(result)}

    # -- installation -----------------------------------------------------
    def _replace(self, original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "sfn" or module_name.startswith("sfn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self.installed.append((module, attr, original))

    def install(self):
        """Wrap every traced function where a loaded sfn module binds it."""
        import sfn.experiments
        import sfn.picker

        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            self._replace(original, self.wrap(name, original))

        pick_set = sfn.picker.PickSet
        for attr in ("concat", "subset"):
            raw = pick_set.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap("picker.pickset", raw.__func__))
            else:
                wrapped = self.wrap("picker.pickset", raw)
            setattr(pick_set, attr, wrapped)
            self.installed.append((pick_set, attr, raw))

        tracer = self
        base = sfn.experiments.ProcessPoolExecutor

        class TracedPool(base):
            """Records the pool's lifetime as one span in the parent."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._bench_span = tracer._open(POOL, time.perf_counter())
                tracer.spans[self._bench_span][5]["workers"] = self._max_workers

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._bench_span is not None:
                    tracer._close(self._bench_span, time.perf_counter(), {})
                    self._bench_span = None

        sfn.experiments.ProcessPoolExecutor = TracedPool
        self.installed.append((sfn.experiments, "ProcessPoolExecutor", base))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def collect(self):
        """All spans of this process and of its pool workers."""
        keys = ("name", "start", "end", "parent", "pid", "counts")
        spans = [dict(zip(keys, s)) for s in self.spans]
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    offset = len(spans)
                    for row in json.loads(line):
                        entry = dict(zip(keys, row))
                        if entry["parent"] is not None:
                            entry["parent"] += offset
                        spans.append(entry)
        return spans


def _outermost(spans, name):
    """Spans of ``name`` that are not nested in another span of ``name``."""
    result = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        nested = False
        while parent is not None:
            if spans[parent]["name"] == name:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            result.append(span)
    return result


def _busy(spans):
    return sum(s["end"] - s["start"] for s in spans)


def layer_metrics(spans, main_pid):
    """Per-layer counts and times from a merged span list."""
    by_index = {id(s): i for i, s in enumerate(spans)}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(name, key):
        return sum(s["counts"].get(key, 0) for s in _outermost(spans, name))

    metrics = {}
    for name in sorted({n for n, _, _ in FUNCTIONS} | {"picker.pickset"}):
        outer = _outermost(spans, name)
        metrics[f"{name}.calls"] = len(outer)
        metrics[f"{name}.busy_s"] = _busy(outer)

    micro = _outermost(spans, "picker.pick_micrograph")
    self_s = 0.0
    for s in micro:
        inner = children.get(by_index[id(s)], [])
        self_s += (s["end"] - s["start"]) - _busy(inner)
    metrics["picker.pick_micrograph.self_s"] = self_s
    candidates = total("picker.pick_micrograph", "candidates")
    picks = total("picker.pick_micrograph", "picks")
    metrics["picker.candidates"] = candidates
    metrics["picker.picks"] = picks
    metrics["picker.accept_ratio"] = picks / candidates if candidates else 0.0

    for name in ("noisegen.gaussian_field", "picker.correlation_map", "picker.save_picks",
                 "tensors.write_tensor", "experiments.git_blob_hash"):
        metrics[f"{name}.bytes"] = total(name, "bytes")
    metrics["truncgauss.sample_mixture.samples"] = total("truncgauss.sample_mixture", "samples")
    for name in ("em.classify2d", "em.recon3d"):
        metrics[f"{name}.iters"] = total(name, "iters")
        metrics[f"{name}.converged"] = total(name, "converged")

    pools = [s for s in spans if s["name"] == POOL]
    busy, capacity, waits = 0.0, 0.0, []
    for pool in pools:
        workers = pool["counts"].get("workers", 1)
        capacity += workers * (pool["end"] - pool["start"])
        inside = [s for s in spans
                  if s["pid"] != pool["pid"] and s["parent"] is None
                  and pool["start"] <= s["start"] <= pool["end"]]
        busy += _busy([s for s in inside if s["name"] != BOOKKEEPING])
        waits += [s["start"] - pool["start"] for s in inside
                  if s["name"] == "noisegen.gaussian_field"]
    metrics["experiments.pool.busy_frac"] = busy / capacity if capacity else 0.0
    metrics["experiments.pool.wait_s"] = statistics.median(waits) if waits else 0.0
    metrics["experiments.pool.worker_pids"] = len({s["pid"] for s in spans} - {main_pid})
    metrics["trace.bookkeeping_s"] = _busy([s for s in spans if s["name"] == BOOKKEEPING])
    return metrics
