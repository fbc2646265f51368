"""Self-checks shared by `nlslab verify` and the acceptance suite (`tests/test_acceptance.py`).

Criteria 01, 02, 03, 05 and 06 are one function each, holding the criterion's
computation and bound, taking its size as arguments and returning `(ok, detail)`.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np

from .config import SCENARIO_A, parse_config, serialize_config
from .spectral import SPACE, ComplexField, Grid, forward_ft, free_propagate, gaussian_profile, inverse_ft, l2_norm
from .spectral import make_grid, zero_field
from .dynamics import TrajectoryRecorder, evolve, make_schedule, mass, nonlinear_substep
from .scattering import m_endpoint, modified_amplitudes, rho
from .experiments import CaseResult, fit_order, initial_state, run_case
from .tables import read_table, write_table


def decoupled_exactness(grid: Grid, t_final: float) -> tuple[bool, str]:
    """Criterion 01: with u2 = 0 the mass of u1 is kept, u2 stays zero and m = eps^2 |psi1_hat|^2."""
    eps = 0.1
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    recorder = TrajectoryRecorder(with_j_norm=False)
    schedule = make_schedule(dt=0.01, t_final=t_final)
    snapshots = evolve(initial_state(grid, psi1, zero_field(grid), eps), schedule, recorder)
    data = recorder.as_array()
    drift = np.max(np.abs(data[:, 1] / data[0, 1] - 1.0))
    second_zero = bool(np.all(data[:, 2] == 0.0))
    expected = eps**2 * np.abs(forward_ft(psi1).values) ** 2
    m_err = np.max(np.abs(m_endpoint(modified_amplitudes(snapshots[-1])).m_values - expected))
    detail = f"mass drift {drift:.2e} (<1e-10), second component zero: {second_zero}, "
    return drift < 1e-10 and second_zero and m_err < 1e-10, detail + f"profile error {m_err:.2e} (<1e-10)"


def symmetric_pair(grid: Grid, t_final: float, observer=None) -> tuple[bool, str]:
    """Criterion 02: equal data stay bitwise equal, lose mass at every snapshot and give m below tau."""
    psi = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    snapshots = evolve(initial_state(grid, psi, psi, 0.2), make_schedule(dt=0.01, t_final=t_final), observer)
    bitwise = all(np.array_equal(s.u1.values, s.u2.values) for s in snapshots)
    masses = np.array([(mass(s.u1), mass(s.u2)) for s in snapshots])
    decreasing = bool(np.all(np.diff(masses, axis=0) < 0))
    m_max = np.max(np.abs(m_endpoint(modified_amplitudes(snapshots[-1])).m_values))
    threshold = max(1e-6 * 0.2**2, float(np.finfo(np.float64).tiny))
    detail = f"bitwise equal: {bitwise}, masses strictly decreasing: {decreasing}, "
    return bitwise and decreasing and m_max < threshold, detail + f"max |m| = {m_max:.2e} < tau = {threshold:.2e}"


def mass_ledger(grid: Grid, t_final: float) -> tuple[bool, str]:
    """Criterion 03: mass lost equals dissipation integrated, and no step gains mass."""
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
    recorder = TrajectoryRecorder(with_j_norm=False)
    schedule = make_schedule(dt=0.01, t_final=t_final, grow_after=np.inf)
    evolve(initial_state(grid, psi1, psi2, 0.2), schedule, recorder)
    data = recorder.as_array()
    total = data[:, 1] + data[:, 2]
    rate = data[:, recorder.header.index("dissipation_rate")]
    closure = abs(total[-1] + np.trapezoid(rate, data[:, 0]) - total[0]) / total[0]
    worst = max(np.max(np.diff(data[:, 1])), np.max(np.diff(data[:, 2]))) / total[0]
    detail = f"ledger closure {closure:.2e} (<1e-4), worst per-step gain {worst:.2e} (<=1e-10)"
    return closure < 1e-4 and worst <= 1e-10, detail


def cross_route_agreement(case: CaseResult) -> tuple[bool, str]:
    """Criterion 05: the run's `c_quad`, max over a non-empty band of |m_endpoint - m_integral|, is below 1e-2 eps^2."""
    if not np.any(case.band):
        return False, "empty resolved band, no frequency to compare"
    gap = case.record.c_quad
    tol = 1e-2 * case.epsilon**2
    return gap < tol, f"max band gap {gap:.2e} < {tol:.1e}"


def rho_identity(grid: Grid, probes: tuple[float, ...]) -> tuple[bool, str]:
    """Criterion 06: rho is d/dt (|alpha1|^2 - |alpha2|^2), by central differences, at each probe time."""
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
    h = 0.04
    extra = tuple(t + s for t in probes for s in (-h, 0.0, h))
    schedule = make_schedule(dt=0.005, t_final=max(probes) + h, grow_after=np.inf, extra_times=extra)
    snapshots = evolve(initial_state(grid, psi1, psi2, 0.2), schedule)
    by_t = {round(s.t, 9): s for s in snapshots}

    rels = []
    for t in probes:
        m_plus, m_minus = (m_endpoint(modified_amplitudes(by_t[round(t + s, 9)])).m_values for s in (h, -h))
        r = rho(by_t[round(t, 9)])
        rels.append(np.max(np.abs((m_plus - m_minus) / (2 * h) - r)) / np.max(np.abs(r)))
    detail = ", ".join(f"{t:g}: {rel:.2e}" for t, rel in zip(probes, rels))
    return all(rel < 1e-3 for rel in rels), f"rel mismatch {detail} (<1e-3)"


def _scenario_a_route_agreement() -> tuple[bool, str]:
    """Criterion 05 on Scenario A in a box holding its spread to T = 50; any warning fails it."""
    cfg = replace(SCENARIO_A, grid_n=2048, grid_length=512.0, t_final=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        case = run_case(cfg)
    return cross_route_agreement(case)


def verify_checks():
    """`(name, check)` pairs for `nlslab verify`; each check returns `(ok, detail)`."""
    rng = np.random.default_rng(20240817)
    grid = make_grid(512, 64.0)

    def random_field():
        vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        return ComplexField(grid, vals, SPACE)

    def check_transform_round_trip():
        f = random_field()
        back = inverse_ft(forward_ft(f))
        err = np.max(np.abs(back.values - f.values))
        ok = err < 1e-12 and abs(l2_norm(forward_ft(f)) - l2_norm(f)) < 1e-12 * l2_norm(f)
        return ok, f"round-trip error {err:.2e}"

    def check_transform_gaussian():
        f = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        fhat = forward_ft(f)
        expected = np.exp(-0.5 * grid.frequencies**2)
        err = np.max(np.abs(fhat.values - expected))
        return err < 1e-10, f"gaussian transform error {err:.2e}"

    def check_transform_shift():
        f = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        shifted = gaussian_profile(grid, 1.0, 1.0, 3.0, 0.0)
        lhs = forward_ft(shifted).values
        rhs = np.exp(-3j * grid.frequencies) * forward_ft(f).values
        err = np.max(np.abs(lhs - rhs))
        return err < 1e-10, f"shift identity error {err:.2e}"

    def check_propagator():
        f = random_field()
        norm0 = l2_norm(f)
        once = free_propagate(free_propagate(f, 0.7), 1.3)
        direct = free_propagate(f, 2.0)
        group = np.max(np.abs(once.values - direct.values))
        norm_err = abs(l2_norm(direct) - norm0)
        ok = group < 1e-11 * norm0 and norm_err < 1e-12 * norm0
        return ok, f"group error {group:.2e}, norm drift {norm_err:.2e}"

    def check_substep():
        u1, u2 = nonlinear_substep(1.0 + 0j, 1.0 + 0j, 0.5)
        ok1 = abs(abs(u1) ** 2 - 0.5) < 1e-14 and abs(abs(u2) ** 2 - 0.5) < 1e-14
        u1b, u2b = nonlinear_substep(np.sqrt(2.0) + 0j, 1.0 + 0j, 50.0)
        ok2 = abs(abs(u1b) ** 2 - 1.0) < 1e-12 and abs(u2b) ** 2 < 1e-12
        v1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        w1, w2 = nonlinear_substep(v1, v2, 0.3)
        cons = np.max(np.abs((np.abs(w1) ** 2 - np.abs(w2) ** 2) - (np.abs(v1) ** 2 - np.abs(v2) ** 2)))
        return ok1 and ok2 and cons < 1e-12, f"difference drift {cons:.2e}"

    def check_config_tables():
        cfg = parse_config("grid.n = 64\ngrid.length = 32\nepsilon = 0.1, 0.2\n")
        ok_cfg = parse_config(serialize_config(cfg)) == cfg
        vals = rng.standard_normal(40).reshape(10, 4)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.tsv")
            write_table(path, ["a", "b", "c", "d"], vals)
            header, back = read_table(path)
        ok_tab = header == ["a", "b", "c", "d"] and np.array_equal(back, vals)
        return ok_cfg and ok_tab, "config and table round trips"

    def check_order_fit():
        eps = np.array([0.05, 0.1, 0.2, 0.4])
        fit = fit_order(eps, eps**3)
        ok = abs(fit.slope - 3.0) < 1e-9 and abs(fit.intercept) < 1e-9
        fit2 = fit_order(eps, 5 * eps**4)
        ok2 = abs(fit2.slope - 4.0) < 1e-9 and abs(fit2.intercept - np.log(5)) < 1e-9
        return ok and ok2, f"power-law slopes {fit.slope:.6f}, {fit2.slope:.6f}"

    # the criteria are looked up when called, so a caller may replace one
    return [
        ("transform_round_trip", check_transform_round_trip),
        ("transform_gaussian_closed_form", check_transform_gaussian),
        ("transform_shift_identity", check_transform_shift),
        ("free_propagator_group_and_norm", check_propagator),
        ("nonlinear_substep_exactness", check_substep),
        ("config_and_table_round_trip", check_config_tables),
        ("order_fit_power_laws", check_order_fit),
        ("criterion_01_decoupled_exactness", lambda: decoupled_exactness(grid, 20.0)),
        ("criterion_02_symmetric_pair", lambda: symmetric_pair(grid, 10.0)),
        ("criterion_03_mass_ledger", lambda: mass_ledger(grid, 10.0)),
        ("criterion_05_cross_method_agreement", _scenario_a_route_agreement),
        ("criterion_06_rho_identity", lambda: rho_identity(grid, (4.0,))),
    ]
