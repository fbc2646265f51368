"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Long-horizon (T = 400) runs use a box large enough that the dispersive
spread of unit-width data stays inside half the domain for the whole run
(edge speed ~2.6, so L = 2048), per the grid-sizing rule; shorter runs use
the stock 256-length box.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines; the whole module takes a few minutes.
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
    l2_norm,
    m_endpoint,
    make_grid,
    make_schedule,
    mass,
    modified_amplitudes,
    orthogonality_defect,
    resolved_band,
    rho,
    run_case,
    run_sweep,
    tail_bound_constants,
    zero_field,
)

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
    """Scenario A (carriers +-2) at T = 400, big box (criterion 10)."""
    return run_case(replace(SCENARIO_A, **BIG))


@pytest.fixture(scope="module")
def sweep_result():
    """Amplitude sweep eps in {0.05 .. 0.2}, T = 400 (criteria 7, 8)."""
    return run_sweep(replace(SCENARIO_B, **BIG, epsilons=None))


@pytest.fixture(scope="module")
def symmetric_run():
    """Symmetric pair, eps = 0.2, T = 400, big box, per-step observer
    (criteria 2 and 12)."""
    grid = make_grid(**{"n": BIG["grid_n"], "length": BIG["grid_length"]})
    psi = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    recorder = TrajectoryRecorder(with_j_norm=False)
    schedule = make_schedule(dt=0.01, t_final=400.0)
    snapshots = evolve(initial_state(grid, psi, psi, 0.2), schedule, recorder)
    return grid, snapshots, recorder


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
    eps = 0.1
    grid = make_grid(4096, 256.0)
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    recorder = TrajectoryRecorder(with_j_norm=False)
    schedule = make_schedule(dt=0.01, t_final=100.0)
    snapshots = evolve(initial_state(grid, psi1, zero_field(grid), eps), schedule, recorder)
    data = recorder.as_array()
    mass1, mass2 = data[:, 1], data[:, 2]
    drift = np.max(np.abs(mass1 / mass1[0] - 1.0))
    second_zero = bool(np.all(mass2 == 0.0))
    profile = m_endpoint(modified_amplitudes(snapshots[-1]))
    expected = eps**2 * np.abs(forward_ft(psi1).values) ** 2
    m_err = np.max(np.abs(profile.m_values - expected))
    ok = drift < 1e-10 and second_zero and m_err < 1e-10
    report(
        1,
        "decoupled exactness",
        ok,
        f"mass drift {drift:.2e} (<1e-10), second component zero: {second_zero}, "
        f"profile error {m_err:.2e} (<1e-10)",
    )


def test_criterion_02_symmetric_pair(symmetric_run):
    grid, snapshots, _ = symmetric_run
    bitwise = all(np.array_equal(s.u1.values, s.u2.values) for s in snapshots)
    m1 = np.array([mass(s.u1) for s in snapshots])
    m2 = np.array([mass(s.u2) for s in snapshots])
    decreasing = bool(np.all(np.diff(m1) < 0) and np.all(np.diff(m2) < 0))
    profile = m_endpoint(modified_amplitudes(snapshots[-1]))
    m_max = np.max(np.abs(profile.m_values))
    threshold = max(1e-6 * 0.2**2, float(np.finfo(np.float64).tiny))
    ok = bitwise and decreasing and m_max < threshold
    report(
        2,
        "symmetric pair",
        ok,
        f"bitwise equal: {bitwise}, masses strictly decreasing: {decreasing}, "
        f"max |m| = {m_max:.2e} < tau = {threshold:.2e}",
    )


def test_criterion_03_mass_ledger():
    grid = make_grid(4096, 256.0)
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
    recorder = TrajectoryRecorder(with_j_norm=False)
    schedule = make_schedule(dt=0.01, t_final=50.0, grow_after=np.inf)
    evolve(initial_state(grid, psi1, psi2, 0.2), schedule, recorder)
    data = recorder.as_array()
    t = data[:, 0]
    total = data[:, 1] + data[:, 2]
    rate = data[:, recorder.header.index("dissipation_rate")]
    closure = abs(total[-1] + np.trapezoid(rate, t) - total[0]) / total[0]
    worst_step = max(np.max(np.diff(data[:, 1])), np.max(np.diff(data[:, 2]))) / total[0]
    ok = closure < 1e-4 and worst_step <= 1e-10
    report(
        3,
        "mass ledger",
        ok,
        f"ledger closure {closure:.2e} (<1e-4), worst per-step gain {worst_step:.2e} (<=1e-10)",
    )


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
    case = scenario_b_eps01
    gap = np.max(np.abs(case.m_end.m_values - case.m_int.m_values)[case.band])
    tol = 1e-2 * case.epsilon**2
    ok = gap < tol
    report(5, "cross-method m agreement", ok, f"max band gap {gap:.2e} < {tol:.1e}")


def test_criterion_06_rho_identity():
    grid = make_grid(4096, 256.0)
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
    h = 0.04
    probes = (4.0, 16.0, 64.0)
    extra = tuple(t + s for t in probes for s in (-h, 0.0, h))
    schedule = make_schedule(dt=0.005, t_final=64.0 + h, grow_after=np.inf, extra_times=extra)
    snapshots = evolve(initial_state(grid, psi1, psi2, 0.2), schedule)
    by_t = {round(s.t, 9): s for s in snapshots}

    def endpoint_difference(state):
        snap = modified_amplitudes(state)
        return np.abs(snap.alpha1.values) ** 2 - np.abs(snap.alpha2.values) ** 2

    rels = []
    for t in probes:
        fd = (
            endpoint_difference(by_t[round(t + h, 9)])
            - endpoint_difference(by_t[round(t - h, 9)])
        ) / (2 * h)
        r = rho(by_t[round(t, 9)])
        rels.append(np.max(np.abs(fd - r)) / np.max(np.abs(r)))
    ok = all(rel < 1e-3 for rel in rels)
    report(
        6,
        "rho time-derivative identity",
        ok,
        "rel mismatch " + ", ".join(f"{t:g}: {rel:.2e}" for t, rel in zip(probes, rels)) + " (<1e-3)",
    )


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
    amp1 = np.abs(case.psi1_hat.values)
    strong = amp1**2 > 1e-3 * np.max(amp1) ** 2
    m_min = np.min(case.m_end.m_values[strong])
    positive = m_min > case.threshold

    times = np.array([s.t for s in case.states])
    late = times >= 10.0
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
    case = scenario_a_case
    tags = case.tags()
    both = bool(np.any(tags == 1) and np.any(tags == -1))

    amp1 = np.abs(case.psi1_hat.values)
    amp2 = np.abs(case.psi2_hat.values)
    final = case.final_amplitudes
    dxi = case.grid.dxi

    def band_norm(values, band):
        return np.sqrt(np.sum(np.abs(values[band]) ** 2) * dxi)

    r1 = band_norm(final.alpha1.values, amp1 > amp2) / (
        case.epsilon * band_norm(case.psi1_hat.values, amp1 > amp2)
    )
    r2 = band_norm(final.alpha2.values, amp2 > amp1) / (
        case.epsilon * band_norm(case.psi2_hat.values, amp2 > amp1)
    )
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
    _, _, recorder = symmetric_run
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
