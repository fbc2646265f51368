"""The names and results the benchmark's tracer and runner use must resolve in the package.

`perfbench/tracing.py` wraps the functions and methods it lists by module
and attribute name, and the benchmark runner patches `run_case` and
`write_table` on `nlslab.cli` by name and checks each run through the
attributes of the `CaseResult` it gets back.  A refactor that renames or
moves one of them would break the benchmark without failing any other test.
"""

import functools
import importlib
import importlib.util
import io
import re
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nlslab
import nlslab.cli
import nlslab.dynamics
import nlslab.experiments
import nlslab.tables
from nlslab.config import SCENARIO_B, parse_config
from nlslab.experiments import _run_inputs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered while it runs: dataclasses look their module up by name
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def runner():
    """perfbench/runner.py, loaded with perfbench/ on sys.path for its `workloads` import."""
    saved_path = list(sys.path)
    had_workloads = "workloads" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("perfbench_runner", PERFBENCH / "runner.py")
    finally:
        sys.path[:] = saved_path
        if not had_workloads:
            sys.modules.pop("workloads", None)


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", PERFBENCH / "tracing.py")


def test_traced_functions_and_methods_resolve(tracing):
    assert tracing.FUNCTIONS and tracing.METHODS
    for span, module, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for span, module, cls, method in tracing.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), span


def test_cli_binds_the_package_functions_the_runner_patches():
    assert nlslab.cli.run_case is nlslab.experiments.run_case
    assert nlslab.cli.write_table is nlslab.tables.write_table


def test_count_steps_counts_the_substeps_evolve_takes(monkeypatch):
    # the benchmark's us_per_step divides evolve's wall time by count_steps
    schedule = nlslab.make_schedule(dt=0.01, t_final=20.0)
    grid = nlslab.make_grid(64, 32.0)
    psi1 = nlslab.gaussian_profile(grid, 1.0, 1.0)
    psi2 = nlslab.gaussian_profile(grid, 0.5, 1.0)
    calls = []
    substep = nlslab.dynamics.nonlinear_substep

    def counting_substep(*args, **kwargs):
        calls.append(1)
        return substep(*args, **kwargs)

    monkeypatch.setattr(nlslab.dynamics, "nonlinear_substep", counting_substep)
    nlslab.evolve(nlslab.initial_state(grid, psi1, psi2, 0.2), schedule)
    assert len(calls) == nlslab.count_steps(schedule)
    assert len(calls) == 254  # 200 base steps to t = 2, grown steps after


def test_workload_step_counts_are_pinned():
    # the benchmark's runs take these many steps under the default plan; a
    # change to the plan changes every workload's wall time and must say so
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    steps = {}
    for name, w in workloads.WORKLOADS.items():
        cfg = parse_config(workloads.config_text(w, 0, "out"))
        steps[name] = nlslab.count_steps(_run_inputs(cfg, w.epsilon)[1])
    assert steps == {"case-bigbox": 223, "cli-evolve": 223, "profile-dense": 263}


def test_runner_checks_pass_on_a_small_case(runner):
    case = nlslab.run_case(replace(SCENARIO_B, grid_n=256, grid_length=64.0, t_final=20.0))
    # every CaseResult attribute Runner.check, m_profile and threshold read
    masses = [(nlslab.mass(s.u1), nlslab.mass(s.u2)) for s in case.states]
    assert runner.check_masses(masses) == []
    assert np.isfinite(case.record.c_quad)
    assert case.m_end.m_values.shape == (256,)
    assert case.record.threshold > 0
    assert runner.check_bigbox(case) == []
    assert str(PERFBENCH) not in sys.path


@pytest.mark.parametrize("entry", ["run_case", "mprofile", "evolve"])
def test_evolve_is_reached_through_a_name_the_tracer_rebinds(tracing, entry, tmp_path):
    # the tracer counts steps and snapshots in a hook on dynamics.evolve that
    # takes len() of its result, so evolve must be called by a rebound name
    # and return a sized sequence
    path = tmp_path / "run.cfg"
    path.write_text(f"grid.n = 64\ngrid.length = 32\ntime.t_final = 20\noutputs.directory = {tmp_path}\n")
    cfg = parse_config(path.read_text())
    schedule = _run_inputs(cfg, cfg.epsilon_single())[1]
    tracer = tracing.Tracer()
    with tracer, redirect_stdout(io.StringIO()):
        if entry == "run_case":
            nlslab.run_case(cfg)
        else:
            assert nlslab.cli.main([entry, str(path)]) == 0
    assert [span[1] for span in tracer.spans].count("dynamics.evolve") == 1
    assert tracer.counters["dynamics.snapshots"] == len(schedule.snapshot_steps)
    assert tracer.counters["dynamics.steps"] == nlslab.count_steps(schedule)
    assert nlslab.evolve is nlslab.dynamics.evolve  # the tracer restored it


def test_case_result_has_every_attribute_the_runner_reads():
    source = (PERFBENCH / "runner.py").read_text(encoding="utf-8")
    chains = set(re.findall(r"\bcase(?:_result\(outcome\))?((?:\.\w+)+)", source))
    # the pattern still sees the runner's reads
    assert {".states", ".record.c_quad", ".m_end.m_values", ".psi1_hat.values"} <= chains
    case = nlslab.run_case(replace(SCENARIO_B, grid_n=256, grid_length=64.0, t_final=20.0))
    for chain in chains:
        functools.reduce(getattr, chain.split(".")[1:], case)  # raises AttributeError if gone
