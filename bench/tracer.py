"""Span tracer installed around the program's public functions from outside.

The program carries no tracing of its own. `Tracer.install` replaces each
listed function (and `WarpPlan.__init__`) with a wrapper that records a
span, and patches every `groundflow` module that imported the function by
name, so calls made through `from .track import build_graph` are seen
too. A listed name the program no longer has is skipped: it records
nothing and breaks nothing. `Tracer.uninstall` puts the originals back.

Spans stay in memory as (name, start, end, parent, segment) and are
written as JSONL when the run ends. A segment labels the part of the run
a span belongs to ("setup", "round1", ...). Self time is a span's
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap. `span_cost` measures what one
span adds to a call, so that a run can state the tracer's own overhead as
spans × cost.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time


def _add(counts: dict, name: str, n) -> None:
    counts[name] = counts.get(name, 0) + n


# -- probes: counts read from a wrapped call's arguments or result ---------
# Each takes (counts, span_duration, args, kwargs, result). A probe that
# finds an attribute missing records nothing.

def _probe_split(counts, _dur, args, _kw, result):
    kept, _ = result
    _add(counts, "detect.kept", len(kept))
    _add(counts, "detect.dropped", len(args[0]) - len(kept))


def _probe_forward(counts, _dur, args, _kw, _result):
    plan = args[0]
    sources = getattr(plan, "num_sources", None)
    window = getattr(plan, "window", None)
    if sources is not None and window is not None:
        _add(counts, "warp.block_elems", int(sources) * int(window) ** 2)


def _probe_fit(counts, _dur, _args, _kw, result):
    _add(counts, "fit.pair_epochs", sum(len(getattr(r, "trace", ())) for r in result))


def _probe_graph(counts, _dur, _args, _kw, result):
    trans = getattr(result, "trans", None)
    if trans is not None:
        _add(counts, "track.arcs", len(trans))


def _probe_solve(counts, _dur, _args, _kw, result):
    _add(counts, "track.tracks", len(result))
    _add(counts, "track.links", sum(len(tr.points) - 1 for tr in result))


def _probe_track_mode(counts, dur, args, kwargs, _result):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
    _add(counts, f"pipeline.track.{mode}_s", dur)


# (module, attribute, probe); an attribute "Class.method" patches the class
TARGETS = (
    ("sim", "generate_scene", None),
    ("sim", "corrupt_detections", None),
    ("sim", "render_heatmap", None),
    ("detect", "select_true_detections", _probe_split),
    ("warp", "WarpPlan.__init__", None),
    ("warp", "reconstruct_with_plan", _probe_forward),
    ("warp", "grad_offsets_with_plan", None),
    ("warp", "smoothed_target", None),
    ("losses", "loss_total", None),
    ("losses", "loss_fb_grad", None),
    ("losses", "loss_se_grad_hoods", None),
    ("losses", "se_neighborhoods", None),
    ("fit", "fit_offsets", _probe_fit),
    ("track", "build_graph", _probe_graph),
    ("track", "solve_ssp", _probe_solve),
    ("track", "run_two_stage", None),
    ("track", "kalman_predict", None),
    ("track", "kalman_update", None),
    ("track", "associate_hungarian", None),
    ("metrics", "clear_mot", None),
    ("metrics", "offset_error", None),
    ("pipeline", "fit_scene_offsets", None),
    ("pipeline", "track_detections", _probe_track_mode),
)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: an empty function called through a
    wrapper against called directly, the median of `repeats` batches. The
    wrapper is the one `Tracer` installs, without a probe."""
    def empty():
        return None

    wrapped = Tracer()._wrap("empty", empty, None)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, segment]
        self.counts: dict[str, dict] = {}
        self.segment = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.segment]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if probe is not None:
                probe(tracer.counts.setdefault(rec[4], {}), rec[2] - rec[1], args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target the program still has; returns the span names."""
        installed = []
        for module_name, attr, probe in targets:
            module = importlib.import_module(f"groundflow.{module_name}")
            name = f"{module_name}.{attr.split('.')[0]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    continue
                setattr(cls, meth, self._wrap(name, orig, probe))
                self._undo.append((cls, meth, orig))
            else:
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                wrapper = self._wrap(name, orig, probe)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "groundflow" or mod_name.startswith("groundflow.")) \
                            and getattr(mod, attr, None) is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
            installed.append(name)
        return installed

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def layer_times(self, segment: str) -> tuple[dict, dict, dict]:
        """Per span name: (calls, total seconds, self seconds) in one segment."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, seg in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for k, (name, t0, t1, _parent, seg) in enumerate(self.spans):
            if seg != segment:
                continue
            _add(calls, name, 1)
            _add(total, name, t1 - t0)
            _add(own, name, t1 - t0 - child[k])
        return calls, total, own

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, seg in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "segment": seg}) + "\n")
