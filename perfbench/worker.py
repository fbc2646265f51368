"""Child process of the benchmark: one fresh process per measurement.

    worker.py setup|measure WORKLOAD SEED WORKDIR LAUNCH [SECONDS TRACE]

LAUNCH is the CLOCK_MONOTONIC reading the parent took just before starting
this process; the clock is system-wide, so `setup_s` is the time from launch
until the first run could start, interpreter start-up and imports included.
Modes:

* setup   -- set up, report `setup_s`, exit;
* measure -- set up, run the workload once and read the peak RSS, then time
  checked runs until SECONDS have passed.  The first run is a warm-up: it is
  checked but not timed.  With TRACE = 1 untraced and traced runs alternate
  and the per-layer metrics come from the traced ones.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from runner import Runner
from metrics import PER_LAYER
from tracing import ROOT_NAME, SPAN_NAMES, Tracer, layer_totals, write_spans
from workloads import WORKLOADS


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> dict:
    mode, workload_name, seed, workdir, launch = argv[:5]
    runner = Runner(WORKLOADS[workload_name], int(seed), workdir)
    runner.setup()
    result = {"setup_s": _now() - float(launch), "numpy": np.__version__}
    if mode == "measure":
        seconds, trace = float(argv[5]), argv[6] == "1"
        result.update(Measurement(runner, trace).loop(seconds))
    return result


class Measurement:
    """Timed, checked runs of one workload; traced ones when asked."""

    def __init__(self, runner, trace: bool):
        self.runner = runner
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.overheads: list[float] = []
        self.cpu: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.observations: dict[str, list[float]] = {}
        self.spans: list = []
        self.peak_mem_mb = 0.0

    def loop(self, seconds: float) -> dict:
        self.one(timed=False)
        deadline = time.perf_counter() + seconds
        while True:
            untraced, traced = len(self.walls), len(self.traced_walls)
            self.one(timed=True)
            if self.trace:
                self.one(timed=True, traced=True)
                # Adjacent runs share the machine's state, so their
                # difference is the steadiest estimate of the overhead.
                if len(self.walls) > untraced and len(self.traced_walls) > traced:
                    self.overheads.append(self.traced_walls[-1] - self.walls[-1])
            if time.perf_counter() >= deadline:
                break
        out = {
            "peak_mem_mb": self.peak_mem_mb,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "walls": self.walls,
            "observations": self.observations,
        }
        if self.trace:
            out["layers"] = self.layer_metrics()
            write_spans(os.path.join(os.path.dirname(self.runner.workdir), "spans.tsv"), self.spans)
        return out

    def one(self, timed: bool, traced: bool = False) -> None:
        """One checked run; a failed check, an abort or an exception counts as failed."""
        self.attempted += 1
        tracer = Tracer() if traced else None
        wall = None
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            if traced:
                with tracer:
                    outcome = tracer.traced(self.runner.run)
            else:
                outcome = self.runner.run()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if self.attempted == 1:
                # The first run of a fresh process; RSS is a high-water
                # mark, so read it before any check allocates.
                self.peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failures, obs = self.runner.check(outcome)
        except Exception:  # a crashed run is a failed run; keep measuring
            failures, obs = [traceback.format_exc(limit=3)], {}
        # Free this run's outputs now, not inside the next timed run.
        outcome = None
        self.runner.captured = {}
        if traced and not failures:
            failures = self.add_layers(tracer, wall, obs)
        if failures:
            self.failed += 1
            self.failures.extend(failures)
        else:
            for key, value in obs.items():
                self.observations.setdefault(key, []).append(value)
        if wall is None or not timed:
            return
        if traced:
            self.traced_walls.append(wall)
        else:
            self.walls.append(wall)
            self.cpu.append(cpu)

    def add_layers(self, tracer, wall: float, obs: dict) -> list[str]:
        """Per-layer metrics of one traced run, after its sanity checks."""
        totals = layer_totals(tracer.spans)
        counts = tracer.counters
        self.spans.extend(tracer.spans)

        m = {}
        for name, _, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if name in counts:
                m[name] = counts[name]
            elif field in ("calls", "self_s", "wall_s") and layer in SPAN_NAMES:
                m[name] = totals[layer][field] if layer in totals else 0
        steps, snapshots = counts["dynamics.steps"], counts["dynamics.snapshots"]
        m["dynamics.us_per_step"] = 1e6 * m["dynamics.evolve.wall_s"] / steps if steps else 0.0
        m["scattering.modified_amplitudes.per_snapshot"] = (
            m["scattering.modified_amplitudes.calls"] / snapshots if snapshots else 0.0
        )
        m["scattering.c_quad"] = obs.get("c_quad", 0.0)
        m["bench.glue_s"] = totals[ROOT_NAME]["self_s"]
        m["trace.wall_s"] = wall
        self.layers.append(m)

        failures = []
        substeps = m["dynamics.nonlinear_substep.calls"]
        if substeps != steps:
            failures.append(f"nonlinear_substep calls {substeps:g} != steps {steps:g}")
        if self.runner.w.kind == "case":
            for name in ("dynamics.strang_step.calls", "tables.write_table.calls"):
                if m[name] != 0:
                    failures.append(f"{name} = {m[name]:g} on a run_case workload")
        self_sum = sum(t["self_s"] for t in totals.values())
        root = totals[ROOT_NAME]["wall_s"]
        if abs(self_sum - root) > 1e-9 * root:
            failures.append(f"self times sum to {self_sum!r}, root span lasts {root!r}")
        return failures

    def layer_metrics(self) -> dict[str, float]:
        """Medians over the traced runs; metrics without samples are left out."""
        if not self.layers:
            return {}
        out = {key: statistics.median(m[key] for m in self.layers) for key in self.layers[0]}
        if self.overheads:
            out["trace.overhead_s"] = statistics.median(self.overheads)
        if self.walls:
            out["process.cpu_s"] = statistics.median(self.cpu)
            out["process.cpu_util"] = statistics.median(c / w for c, w in zip(self.cpu, self.walls))
        if self.observations.get("m_ref_gap"):
            out["check.m_ref_gap"] = max(self.observations["m_ref_gap"])
        return out

if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
