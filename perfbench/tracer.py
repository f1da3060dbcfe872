"""Spans around the calls into each avagrad-lab module, recorded from outside
the package by wrapping public functions in the namespaces that call them.

Coarse calls (a CLI command, run_sweep, each run_trial, run_synth_replicas,
each export) are kept one by one as spans with name, start, end, parent and
self time. Per-step calls (sample, grad, step, RNG draws, schedule_eval) are
aggregated per coarse parent into a count and a total time, so memory stays
bounded. Every wrapped call adds its self time (its duration minus that of
the wrapped calls inside it) to its module's total.

Pool workers inherit the wrappers under fork. `atexit` does not run in them,
so a worker appends its spans and self times to a file in `span_dir`
whenever its outermost wrapped call returns.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("core", "optim", "problems", "runner", "sweep", "cli")

# (namespace, attribute, module the function belongs to, kept as a coarse span)
FUNCTION_TARGETS = [
    ("cli", "run_trial", "runner", True),
    ("cli", "run_synth_replicas", "runner", True),
    ("cli", "export_trajectory", "runner", True),
    ("cli", "eval_bound", "runner", True),
    ("cli", "bias_gap", "runner", False),
    ("cli", "summary_line", "runner", False),
    ("cli", "run_sweep", "sweep", True),
    ("cli", "export_heatmap", "sweep", True),
    ("cli", "separability_index", "sweep", False),
    ("cli", "default_grid", "sweep", False),
    ("cli", "fd_check", "problems", False),
    ("cli", "load_csv_dataset", "problems", False),
    ("cli", "synth_make", "problems", False),
    ("cli", "quadratic_make", "problems", False),
    ("cli", "mlp_make", "problems", False),
    ("cli", "init_state", "optim", False),
    ("cli", "mix_seed", "core", False),
    ("sweep", "run_trial", "runner", True),
    ("sweep", "mix_seed", "core", False),
    ("runner", "step", "optim", False),
    ("runner", "init_state", "optim", False),
    ("runner", "schedule_eval", "core", False),
    ("runner", "clamp_box", "core", False),
    ("runner", "mix_seed", "core", False),
    ("optim", "schedule_eval", "core", False),
]

# (module, class, methods): patched on the class, so every instance is traced
METHOD_TARGETS = [
    ("core", "RngStream", ("random", "normal", "choice")),
    ("problems", "SynthProblem", ("sample", "grad", "loss", "full_grad", "objective")),
    ("problems", "QuadraticProblem", ("sample", "grad", "loss", "full_grad", "objective")),
    ("problems", "MlpProblem", ("sample", "grad", "loss", "full_grad", "objective",
                                "dataset_loss", "dataset_error")),
]


class Tracer:
    """Per-process span and self-time recorder; create one per process."""

    def __init__(self):
        self.enabled = False
        self.span_dir: Path | None = None
        self._ids = itertools.count(1)
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        self.stack: list[list[float]] = []  # child seconds of each open call
        self.open_spans: list[dict] = []
        self.spans: list[dict] = []
        self.root_calls: dict[str, list] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.worker = False
        self._file = None

    def _after_fork(self) -> None:
        if self.enabled:
            self.reset()
            self.worker = True

    def flush(self) -> None:
        """Append this worker's records to its span file and start afresh."""
        record = {"self_s": dict(self.self_s), "spans": self.spans, "calls": self.root_calls}
        if self._file is None:  # open once; the worker's exit closes it
            path = self.span_dir / f"worker-{os.getpid()}.jsonl"
            self._file = open(path, "a", encoding="utf-8")  # noqa: SIM115
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()
        self.self_s.clear()
        self.spans = []
        self.root_calls = {}

    def worker_records(self) -> list[dict]:
        records = []
        for path in sorted(self.span_dir.glob("worker-*.jsonl")):
            records += [json.loads(line) for line in path.read_text().splitlines()]
        return records

    def _close(self, module: str, frame: list[float], dur: float) -> float:
        """Book a finished call; returns its self time."""
        self_time = dur - frame[0]
        self.self_s[module] += self_time
        if self.stack:
            self.stack[-1][0] += dur
        return self_time

    def wrap(self, fn, name: str, module: str, coarse: bool):
        tracer = self
        clock = time.perf_counter

        if coarse:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = [0.0]
                parent = tracer.open_spans[-1]["id"] if tracer.open_spans else None
                span = {"id": next(tracer._ids), "name": name, "parent": parent, "calls": {}}
                tracer.stack.append(frame)
                tracer.open_spans.append(span)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    tracer.stack.pop()
                    tracer.open_spans.pop()
                    span.update(start=t0, end=t1, self=tracer._close(module, frame, t1 - t0))
                    tracer.spans.append(span)
                    if tracer.worker and not tracer.stack:
                        tracer.flush()
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = [0.0]
                tracer.stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    tracer.stack.pop()
                    tracer._close(module, frame, dur)
                    calls = tracer.open_spans[-1]["calls"] if tracer.open_spans else tracer.root_calls
                    agg = calls.get(name)
                    if agg is None:
                        calls[name] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                    if tracer.worker and not tracer.stack:
                        tracer.flush()
        return traced


def install(tracer: Tracer, package) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what `uninstall` needs to restore them."""
    saved = []
    for namespace, attr, module, coarse in FUNCTION_TARGETS:
        ns = getattr(package, namespace)
        original = getattr(ns, attr)
        saved.append((ns, attr, original))
        setattr(ns, attr, tracer.wrap(original, f"{module}.{attr}", module, coarse))
    for module, cls_name, methods in METHOD_TARGETS:
        cls = getattr(getattr(package, module), cls_name)
        for attr in methods:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(original, f"{module}.{attr}", module, False))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


class StampedStream(io.TextIOBase):
    """Text sink that records the time at which each line ends; stands in for
    stderr so the sweep's `done/total` progress lines time each cell."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []
        self.parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        for _ in range(s.count("\n")):
            self.stamps.append(time.perf_counter())
        self.parts.append(s)
        return len(s)

    def getvalue(self) -> str:
        return "".join(self.parts)
