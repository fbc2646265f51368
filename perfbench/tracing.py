"""Span tracing of the package's public functions, from the benchmark's side.

`Tracer.install()` wraps each traced function and rebinds the wrapper under
every name that refers to the original in any loaded `nlslab` module, so a
function imported by name into several modules (`free_propagate` lives in
`spectral` and is imported into `dynamics`, `scattering` and `cli`) is traced
wherever it is called.  `numpy.fft.fft` and `numpy.fft.ifft` are rebound on
`numpy.fft`, which the package reaches by attribute at call time.
`ComplexField.__post_init__` (validation per construction) and
`TrajectoryRecorder.__call__` (the per-step observer) are patched on their
classes.

Spans (id, name, parent id, start, end) stay in memory; `self_times` turns
them into self time, a span's duration minus the part of it that its child
spans cover.  Every traced interval lies under one root span, so the self
times of all spans sum to the root's duration.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

import nlslab

# (span name, module, attribute) for each traced function; the module is
# where the function is defined, and every nlslab module holding the same
# object under any name is rebound too.
FUNCTIONS = (
    ("spectral.forward_ft", "nlslab.spectral", "forward_ft"),
    ("spectral.free_propagate", "nlslab.spectral", "free_propagate"),
    ("spectral.j_norm", "nlslab.spectral", "j_norm"),
    ("dynamics.nonlinear_substep", "nlslab.dynamics", "nonlinear_substep"),
    ("dynamics.strang_step", "nlslab.dynamics", "strang_step"),
    ("dynamics.evolve", "nlslab.dynamics", "evolve"),
    ("scattering.modified_amplitudes", "nlslab.scattering", "modified_amplitudes"),
    ("scattering.rho", "nlslab.scattering", "rho"),
    ("scattering.m_integral", "nlslab.scattering", "m_integral"),
    ("scattering.m_endpoint", "nlslab.scattering", "m_endpoint"),
    ("scattering.classify", "nlslab.scattering", "classify"),
    ("experiments.run_case", "nlslab.experiments", "run_case"),
    ("tables.write_table", "nlslab.tables", "write_table"),
    ("config.parse_config", "nlslab.config", "parse_config"),
    ("cli.main", "nlslab.cli", "main"),
)
METHODS = (
    ("spectral.ComplexField", "nlslab.spectral", "ComplexField", "__post_init__"),
    ("dynamics.observer", "nlslab.dynamics", "TrajectoryRecorder", "__call__"),
)
FFT_NAME = "spectral.fft"
ROOT_NAME = "bench.run"
SPAN_NAMES = {name for name, *_ in FUNCTIONS + METHODS} | {FFT_NAME}
COUNTERS = (
    "dynamics.steps",
    "dynamics.snapshots",
    "spectral.fft.bytes_computed",
    "spectral.fft.flops_computed",
    "tables.write_table.bytes",
)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = [-1]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, kwargs, result) adds counters."""
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, parent, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def traced(self, fn):
        """Run fn() under the root span; returns its result."""
        return self.span(ROOT_NAME, fn)()

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        """Rebind every traced name; `uninstall` restores the originals."""

        def count_steps(args, kwargs, result):
            schedule = args[1] if len(args) > 1 else kwargs["schedule"]
            self.counters["dynamics.steps"] += nlslab.count_steps(schedule)
            self.counters["dynamics.snapshots"] += len(result)

        def table_bytes(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            self.counters["tables.write_table.bytes"] += os.path.getsize(path)

        def fft_work(args, kwargs, result):
            n = result.shape[-1]
            self.counters["spectral.fft.bytes_computed"] += 2 * result.nbytes
            self.counters["spectral.fft.flops_computed"] += (
                5.0 * n * math.log2(n) * (result.size // n)
            )

        after = {"dynamics.evolve": count_steps, "tables.write_table": table_bytes}
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._rebind(original, self.span(name, original, after.get(name)))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, attr, self.span(name, getattr(cls, attr)))
        for attr in ("fft", "ifft"):
            self._set(np.fft, attr, self.span(FFT_NAME, getattr(np.fft, attr), fft_work))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "nlslab" or mod_name.startswith("nlslab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------- analysis


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span id: duration minus its children's coverage."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, start, end in spans:
        children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, []), start, end)
        for span_id, _, _, start, end in spans
    }


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed duration."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
    for span_id, name, _, start, end in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
        entry["wall_s"] += end - start
    return out


def write_spans(path: str, spans) -> None:
    """Write spans as tab-separated id, name, parent, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# id\tname\tparent\tstart_s\tend_s\n")
        for span_id, name, parent, start, end in spans:
            fh.write(f"{span_id}\t{name}\t{parent}\t{start!r}\t{end!r}\n")
