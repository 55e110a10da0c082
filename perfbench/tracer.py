"""Spans around calls into lagcast's public functions, for the traced run.

Each layer function is wrapped at every lagcast module attribute that
holds it, because that is where its callers look it up (``polynomial``
calls ``solve_spd`` through its own namespace, ``cli`` calls
``run_comparison`` through its own).  A span records name, start, end and
parent; spans stay in memory until the run writes them out.  A layer
whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# layer name -> (defining module, function name)
LAYERS = {
    "cli.main": ("lagcast.cli", "main"),
    "numerics.solve_spd": ("lagcast.numerics", "solve_spd"),
    "numerics.gram": ("lagcast.numerics", "gram"),
    "polynomial.fit": ("lagcast.polynomial", "fit"),
    "polynomial.rolling_forecast": ("lagcast.polynomial", "rolling_forecast"),
    "polynomial.from_json": ("lagcast.polynomial", "from_json"),
    "rbf.from_json": ("lagcast.rbf", "from_json"),
    "data.load_csv": ("lagcast.data", "load_csv"),
    "data.make_windows": ("lagcast.data", "make_windows"),
    "rbf.init_centers": ("lagcast.rbf", "init_centers"),
    "rbf.set_widths": ("lagcast.rbf", "set_widths"),
    "rbf.grow_until_target": ("lagcast.rbf", "grow_until_target"),
    "rbf.train": ("lagcast.rbf", "train"),
    "rbf.batch_forward": ("lagcast.rbf", "batch_forward"),
    "stats.paired_t_test": ("lagcast.stats", "paired_t_test"),
    "stats.wilcoxon_signed_rank": ("lagcast.stats", "wilcoxon_signed_rank"),
    "harness.run_comparison": ("lagcast.harness", "run_comparison"),
    "harness.run_degree_sweep": ("lagcast.harness", "run_degree_sweep"),
    "harness.render_report": ("lagcast.harness", "render_report"),
    "metrics.metric_report": ("lagcast.metrics", "metric_report"),
}


def _train_steps(args, kwargs) -> int:
    """Optimizer steps of one rbf.train call: epochs * ceil(N / batch)."""
    inputs = kwargs.get("inputs", args[0] if args else None)
    config = kwargs.get("config", args[4] if len(args) > 4 else None)
    return config.epochs * math.ceil(len(inputs) / config.batch_size)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, extra)
        self.recording = False
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, extra):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, extra))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, {})

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            extra = {}
            if layer == "rbf.train":
                extra["steps"] = _train_steps(args, kwargs)
            watch_memory = layer == "rbf.init_centers"
            if watch_memory:
                tracemalloc.start()
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "SingularSystemError":
                    extra["refused"] = 1
                raise
            finally:
                if watch_memory:
                    extra["peak_mib"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                tracer._close(sid, parent, layer, start, extra)

        return wrapper

    def install(self):
        """Wrap every layer function at each lagcast attribute that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lagcast" or name.startswith("lagcast.")]
        self.absent = []
        for layer, (module_name, attr) in LAYERS.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches = []

    def write(self, path, source: str):
        with open(path, "a") as fh:
            for sid, parent, name, start, end, extra in self.spans:
                fh.write(json.dumps({"source": source, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     **extra}) + "\n")


def summarize(spans) -> dict:
    """Per layer: summed self time, call count and summed or peak extras.

    Self time is a span's duration minus the durations of its direct
    children; spans never overlap their siblings in one process, so that
    is the time no child span covers.
    """
    child_time = defaultdict(float)
    for sid, parent, name, start, end, extra in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "refused": 0,
                               "steps": 0, "peak_mib": 0.0})
    for sid, parent, name, start, end, extra in spans:
        row = out[name]
        row["self_s"] += (end - start) - child_time[sid]
        row["calls"] += 1
        row["refused"] += extra.get("refused", 0)
        row["steps"] += extra.get("steps", 0)
        row["peak_mib"] = max(row["peak_mib"], extra.get("peak_mib", 0.0))
    return dict(out)


def read_spans(path) -> dict:
    """Spans written by write(), grouped by the process that recorded them."""
    by_source = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            by_source[d["source"]].append(
                (d["id"], d["parent"], d["name"], d["start"], d["end"],
                 {k: d[k] for k in ("refused", "steps", "peak_mib") if k in d}))
    return dict(by_source)
