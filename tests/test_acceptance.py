"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Long-horizon (T = 400) runs use a box large enough that the dispersive
spread of unit-width data stays inside half the domain for the whole run
(edge speed ~2.6, so L = 2048), per the grid-sizing rule; shorter runs use
the stock 256-length box.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines; the whole module takes about 20 s.
Criteria 01, 02, 03, 05 and 06 are defined in `nlslab.checks`, which
`nlslab verify` also runs at a small size.
"""

import numpy as np
import pytest
from dataclasses import replace

from nlslab import (
    SCENARIO_A,
    SCENARIO_B,
    TrajectoryRecorder,
    evolve,
    forward_ft,
    gaussian_profile,
    initial_state,
    integrate_rho_window,
    make_grid,
    make_schedule,
    resolved_band,
    run_case,
    run_sweep,
    tail_bound_constants,
)
from nlslab.checks import cross_route_agreement, decoupled_exactness, mass_ledger, rho_identity, symmetric_pair
from nlslab.experiments import _scenario_report

BIG = dict(grid_n=16384, grid_length=2048.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number:02d} {name}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def scenario_b_eps01():
    """Scenario B at eps = 0.1, T = 400, big box (criterion 5)."""
    return run_case(replace(SCENARIO_B, **BIG, epsilons=(0.1,)))


@pytest.fixture(scope="module")
def scenario_b_eps02():
    """Scenario B at eps = 0.2, T = 400, big box (criterion 9)."""
    return run_case(replace(SCENARIO_B, **BIG))


@pytest.fixture(scope="module")
def scenario_a_case():
    """Scenario A (carriers +-2) at T = 400, big box (criterion 10).

    Its tail estimate beyond T exceeds the classification threshold, and
    run_case says so: criterion 10 holds in a regime where the tags may
    still change at a later end time."""
    with pytest.warns(RuntimeWarning, match="tail estimate"):
        return run_case(replace(SCENARIO_A, **BIG))


@pytest.fixture(scope="module")
def sweep_result():
    """Amplitude sweep eps in {0.05 .. 0.2}, T = 400 (criteria 7, 8)."""
    return run_sweep(replace(SCENARIO_B, **BIG, epsilons=None))


@pytest.fixture(scope="module")
def symmetric_run():
    """Criterion 2's symmetric pair, eps = 0.2, T = 400, big box: its
    outcome and the per-step record criterion 12 reads."""
    recorder = TrajectoryRecorder(with_j_norm=False)
    return symmetric_pair(make_grid(BIG["grid_n"], BIG["grid_length"]), 400.0, recorder), recorder


@pytest.fixture(scope="module")
def tail_run():
    """Scenario-B data, eps = 0.1, T = 400 with the window endpoints as
    snapshot times (criterion 11)."""
    grid = make_grid(16384, 2048.0)
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
    schedule = make_schedule(dt=0.01, t_final=400.0, extra_times=(50.0, 100.0, 200.0))
    snapshots = evolve(initial_state(grid, psi1, psi2, 0.1), schedule)
    band = resolved_band(forward_ft(psi1), forward_ft(psi2))
    return snapshots, band


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_decoupled_exactness():
    report(1, "decoupled exactness", *decoupled_exactness(make_grid(4096, 256.0), 100.0))


def test_criterion_02_symmetric_pair(symmetric_run):
    report(2, "symmetric pair", *symmetric_run[0])


def test_criterion_03_mass_ledger():
    report(3, "mass ledger", *mass_ledger(make_grid(4096, 256.0), 50.0))


def test_criterion_04_splitting_order():
    grid = make_grid(1024, 64.0)
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)

    def endpoint(dt):
        schedule = make_schedule(dt=dt, t_final=5.0, grow_after=np.inf)
        return evolve(initial_state(grid, psi1, psi2, 0.3), schedule)[-1]

    ref = endpoint(0.00125)

    def error(state):
        return np.sqrt(
            np.sum(np.abs(state.u1.values - ref.u1.values) ** 2) * grid.dx
            + np.sum(np.abs(state.u2.values - ref.u2.values) ** 2) * grid.dx
        )

    ratio = error(endpoint(0.02)) / error(endpoint(0.01))
    ok = 3.6 <= ratio <= 4.4
    report(4, "splitting order", ok, f"error(0.02)/error(0.01) = {ratio:.3f} in [3.6, 4.4]")


def test_criterion_05_cross_method_agreement(scenario_b_eps01):
    report(5, "cross-method m agreement", *cross_route_agreement(scenario_b_eps01))


def test_criterion_06_rho_identity():
    report(6, "rho time-derivative identity", *rho_identity(make_grid(4096, 256.0), (4.0, 16.0, 64.0)))


def test_criterion_07_lemma_order(sweep_result):
    s1 = sweep_result.lemma_fit1.slope
    s2 = sweep_result.lemma_fit2.slope
    ok = 2.7 <= s1 <= 3.3 and 2.7 <= s2 <= 3.3
    report(7, "time-2 amplitude remainder order", ok, f"slopes {s1:.3f}, {s2:.3f} in [2.7, 3.3]")


def test_criterion_08_theorem_order(sweep_result):
    slope = sweep_result.theorem_fit.slope
    smallest = sweep_result.records[0]
    grid = make_grid(16384, 2048.0)
    psi1_hat = forward_ft(gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0))
    psi2_hat = forward_ft(gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0))
    max_delta = np.max(np.abs(np.abs(psi1_hat.values) ** 2 - np.abs(psi2_hat.values) ** 2))
    small_bound = 1e-1 * smallest.epsilon**2 * max_delta
    ok = (
        slope >= 3.5
        and sweep_result.tail_subtracted
        and smallest.theorem_defect < small_bound
    )
    report(
        8,
        "sign-profile remainder order",
        ok,
        f"slope {slope:.3f} (>=3.5, tail subtracted: {sweep_result.tail_subtracted}), "
        f"defect(eps={smallest.epsilon:g}) = {smallest.theorem_defect:.2e} < {small_bound:.2e}",
    )


def test_criterion_09_everywhere_domination(scenario_b_eps02):
    case = scenario_b_eps02
    m_min = _scenario_report("B", case).m_min_strong_band
    positive = m_min > case.threshold

    late = case.schedule.times >= 10.0
    # run_case's per-snapshot monitors, l2_norm and orthogonality_defect of
    # each snapshot's amplitudes (pinned to them in test_experiments)
    alpha2 = case.alpha2_norm_seq
    decreasing = bool(np.all(np.diff(alpha2[late]) < 0))
    defects = case.orth_defect_seq
    non_increasing = bool(np.all(np.diff(defects[late]) <= 0))
    ok = positive and decreasing and non_increasing
    report(
        9,
        "everywhere-dominated component dies",
        ok,
        f"min m on band {m_min:.2e} > tau {case.threshold:.2e}: {positive}, "
        f"alpha2 norm strictly decreasing: {decreasing}, defect non-increasing: {non_increasing}",
    )


def test_criterion_10_crossing_spectra(scenario_a_case):
    rep = _scenario_report("A", scenario_a_case)
    both = {"first-survives", "second-survives"} <= set(rep.tags_present)
    r1, r2 = rep.band_norm_ratio1, rep.band_norm_ratio2
    ok = both and r1 > 0.5 and r2 > 0.5
    report(
        10,
        "crossing spectra keep both components",
        ok,
        f"both tags present: {both}, dominant-band retention {r1:.3f}, {r2:.3f} (>0.5)",
    )


def test_criterion_11_tail_bound_shape(tail_run):
    snapshots, band = tail_run
    eps = 0.1
    windows = ((50.0, 100.0), (100.0, 200.0), (200.0, 400.0))
    constants = tail_bound_constants(snapshots, band, eps, windows)
    c_single = float(np.max(constants))
    fitted = float(np.exp(np.mean(np.log(constants))))
    slack = c_single / fitted

    # explicit re-check that the single constant bounds every window point
    grid = snapshots[0].grid
    weight = 1.0 + grid.frequencies**2
    bound_holds = all(
        np.all(
            np.abs(integrate_rho_window(snapshots, lo, hi))[band]
            <= c_single * eps**4 / weight[band] * (1 + 1e-12)
        )
        for lo, hi in windows
    )
    ok = bound_holds and slack <= 2.0
    report(
        11,
        "tail bound shape",
        ok,
        f"window constants {np.array2string(constants, precision=3)}, "
        f"single C {c_single:.3e}, slack vs fitted {slack:.3f} (<=2)",
    )


def test_criterion_12_sup_norm_decay(symmetric_run):
    _, recorder = symmetric_run
    data = recorder.as_array()
    t = data[:, 0]
    sup = data[:, 3]
    scaled = sup * np.sqrt(1.0 + t)
    idx = int(np.argmax(scaled))
    ok = bool(np.isfinite(scaled[idx]) and t[idx] <= 10.0)
    report(
        12,
        "sup-norm decay",
        ok,
        f"max sup*(1+t)^0.5 = {scaled[idx]:.4f} attained at t = {t[idx]:.2f} (<=10)",
    )
