"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json lists the same metrics; tests/test_metrics.py keeps the two
in step.  Each per-layer metric is listed under the end-to-end metric and
workload it should move (see README.md).
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_mem_mb", "MB", "lower"),
)


def _layer(prefix: str, *fields: str):
    units = {"calls": "count", "self_s": "s", "wall_s": "s"}
    return tuple((f"{prefix}.{f}", units[f], "lower") for f in fields)


PER_LAYER = (
    *_layer("spectral.fft", "calls", "self_s"),
    ("spectral.fft.bytes_computed", "B", "lower"),
    ("spectral.fft.flops_computed", "flop", "lower"),
    *_layer("spectral.free_propagate", "calls", "self_s"),
    *_layer("spectral.forward_ft", "calls", "self_s"),
    *_layer("spectral.j_norm", "calls", "self_s"),
    *_layer("spectral.ComplexField", "calls", "self_s"),
    *_layer("dynamics.nonlinear_substep", "calls", "self_s"),
    *_layer("dynamics.evolve", "wall_s", "self_s"),
    *_layer("dynamics.strang_step", "calls", "self_s"),
    *_layer("dynamics.observer", "calls", "self_s"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.us_per_step", "us", "lower"),
    ("dynamics.snapshots", "count", "lower"),
    *_layer("scattering.modified_amplitudes", "calls", "self_s"),
    ("scattering.modified_amplitudes.per_snapshot", "ratio", "lower"),
    *_layer("scattering.rho", "calls", "self_s"),
    *_layer("scattering.m_integral", "self_s"),
    *_layer("scattering.m_endpoint", "self_s"),
    *_layer("scattering.classify", "self_s"),
    ("scattering.c_quad", "1", "lower"),
    *_layer("experiments.run_case", "self_s"),
    *_layer("tables.write_table", "calls", "self_s"),
    ("tables.write_table.bytes", "B", "lower"),
    *_layer("config.parse_config", "self_s"),
    *_layer("cli.main", "wall_s"),
    ("bench.glue_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.cpu_util", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("check.m_ref_gap", "1", "lower"),
    ("check_fail_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
