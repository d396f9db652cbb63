"""In-memory span tracer and the wrappers that attach it to rotorsense.

A span records its name, start, end, parent span and op id. Wrappers
replace a public function at the name its caller looks it up by, so the
package itself is never edited; `installed` puts them in place for one
traced run and restores every original on exit.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: str


class Tracer:
    """Spans and counters, both tagged with the current op id."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.op = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = self.clock()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.op, name)] += value

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out = []
        for idx, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for lo, hi in sorted(children.get(idx, [])):
                lo, hi = max(lo, reach), min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((span.end - span.start) - covered)
        return out

    def totals(self, op: str) -> dict[str, float]:
        """`<name>_s`, `<name>_self_s` and `<name>_calls` summed over one
        op's spans, plus that op's counters."""
        out: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            if span.op != op:
                continue
            out[f"{span.name}_s"] += span.end - span.start
            out[f"{span.name}_self_s"] += self_s
            out[f"{span.name}_calls"] += 1
        for (count_op, name), value in self.counts.items():
            if count_op == op:
                out[name] += value
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op,
                }) + "\n")


def _nth(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# --- per-wrapper counters read from arguments and return values ---


def _read(tr, args, kwargs, result):
    tr.count("events.bytes_read", os.path.getsize(_nth(args, kwargs, 0, "path")))


def _write(tr, args, kwargs, result):
    tr.count("events.bytes_written", os.path.getsize(_nth(args, kwargs, 2, "path")))


def _slice(tr, args, kwargs, result):
    tr.count("events.bundles", len(result))


def _filter(tr, args, kwargs, result):
    tr.count("preprocess.filter_in", len(_nth(args, kwargs, 0, "events")))
    tr.count("preprocess.filter_out", len(result))


def _kmeans(tr, args, kwargs, result):
    tr.count("preprocess.kmeans_points", len(_nth(args, kwargs, 0, "events")))


def _grow(tr, args, kwargs, result):
    tr.count("batching.bundles", len(result.batch.bundles))
    tr.count(f"batching.stop_{result.reason.value}")


def _downsample(tr, args, kwargs, result):
    tr.count("batching.downsample_in", len(_nth(args, kwargs, 0, "batch")))
    tr.count("batching.downsample_out", len(result))


def _value(tr, args, kwargs, result):
    # a non-uniform grid falls back to one value() per candidate; the
    # grid wrapper has already counted those
    if tr.current() != "motion.grid":
        tr.count("motion.warp_evals", args[0].n_events)


def _grid(tr, args, kwargs, result):
    tr.count("motion.warp_evals", args[0].n_events * len(_nth(args, kwargs, 1, "omegas")))


def _fusion(tr, args, kwargs, result):
    tr.count("fusion.states", len(result.states))
    tr.count("fusion.gps_updates", len(result.nis))


def _manifest(tr, args, kwargs, result):
    tr.count("pipeline.artifact_bytes", sum(os.path.getsize(p) for p in _nth(args, kwargs, 3, "artifacts")))


def _sim_propellers(tr, args, kwargs, result):
    tr.count("sim.events", len(result[0]))


def _sim_flight(tr, args, kwargs, result):
    tr.count("sim.events", len(result.events))


# (module, class or None, attribute, span name, counter hook). The module
# and attribute are where the caller looks the function up.
WRAPS = [
    ("rotorsense.pipeline", None, "read_events", "events.read", _read),
    ("rotorsense.pipeline", None, "write_events", "events.write", _write),
    ("rotorsense.pipeline", None, "slice_bundles", "events.slice", _slice),
    ("rotorsense.pipeline", None, "preprocess_stream", "preprocess.stream", None),
    ("rotorsense.pipeline", None, "build_heatmaps", "preprocess.heatmap", None),
    ("rotorsense.pipeline", None, "filter_noise", "preprocess.filter", _filter),
    ("rotorsense.pipeline", None, "segment_propellers", "preprocess.kmeans", _kmeans),
    ("rotorsense.pipeline", None, "robust_center", "preprocess.center", None),
    ("rotorsense.pipeline", None, "grow_batch", "batching.grow", _grow),
    ("rotorsense.pipeline", None, "density_downsample", "batching.downsample", _downsample),
    ("rotorsense.batching", None, "local_density", "batching.density", None),
    ("rotorsense.pipeline", None, "estimate_speed", "motion.estimate", None),
    ("rotorsense.motion", "ObjectiveEvaluator", "__init__", "motion.evaluator_init", None),
    ("rotorsense.motion", "ObjectiveEvaluator", "value", "motion.value", _value),
    ("rotorsense.motion", "ObjectiveEvaluator", "value_grid", "motion.grid", _grid),
    ("rotorsense.cli", None, "train_command_model", "commands.train", None),
    ("rotorsense.cli", None, "resample_zero_order_hold", "commands.resample", None),
    ("rotorsense.cli", None, "predict_command", "commands.predict", None),
    ("rotorsense.cli", None, "run_fusion", "fusion.run", _fusion),
    ("rotorsense.fusion", None, "predict", "fusion.predict", None),
    ("rotorsense.pipeline", None, "run_pipeline", "pipeline.run", None),
    ("rotorsense.pipeline", None, "estimate_track", "pipeline.estimate", None),
    ("rotorsense.pipeline", None, "write_manifest", "pipeline.manifest", _manifest),
    ("rotorsense.pipeline", None, "read_speed_csv", "pipeline.speed_csv_read", None),
    ("rotorsense.cli", None, "localization_error", "metrics.loc", None),
    ("rotorsense.sim", None, "simulate_propellers", "sim.propellers", _sim_propellers),
    ("rotorsense.sim", None, "simulate_flight", "sim.flight", _sim_flight),
]


def _traced(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(f"{name}_failed")
                raise
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def _owner(module_name: str, class_name: str | None):
    owner = importlib.import_module(module_name)
    return owner if class_name is None else getattr(owner, class_name)


@contextmanager
def installed(tracer: Tracer):
    """Replace every target in WRAPS with a traced wrapper; restore the
    originals on exit, even when the body raises."""
    saved = []
    try:
        for module_name, class_name, attr, name, hook in WRAPS:
            owner = _owner(module_name, class_name)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, original, name, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_targets() -> list[str]:
    """Targets whose current value is still a tracer wrapper."""
    return [
        f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
        for module_name, class_name, attr, _, _ in WRAPS
        if hasattr(_owner(module_name, class_name).__dict__[attr], "__wrapped__")
    ]
