import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from nlslab import (
    BOTH_VANISH,
    FIRST_SURVIVES,
    SECOND_SURVIVES,
    MProfile,
    SimulationAbort,
    SpectralSnapshot,
    SystemState,
    classify,
    evolve,
    forward_ft,
    gaussian_profile,
    initial_state,
    integrate_rho_window,
    l2_norm,
    m_endpoint,
    m_integral,
    make_grid,
    make_schedule,
    modified_amplitudes,
    orthogonality_defect,
    rho,
    zero_field,
)
from nlslab import dynamics, experiments, scattering, spectral
from nlslab.config import SCENARIO_A, SCENARIO_B
from nlslab.spectral import SPACE, ComplexField, free_propagate
from conftest import pin_writer


@pytest.fixture(scope="module")
def coupled_run(grid):
    """Asymmetric coupled trajectory with snapshots through t = 50."""
    psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
    psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
    sched = make_schedule(dt=0.01, t_final=50.0)
    snaps = evolve(initial_state(grid, psi1, psi2, 0.1), sched)
    return psi1, psi2, snaps


@pytest.fixture(scope="module")
def scenario_a_state():
    """Coupled Scenario A state at t = 37.3, where the back-propagation phases are generic."""
    g = make_grid(1024, 128.0)
    psi1 = experiments.build_profile(g, SCENARIO_A.psi1)
    psi2 = experiments.build_profile(g, SCENARIO_A.psi2)
    sched = make_schedule(dt=0.01, t_final=37.3)
    return evolve(initial_state(g, psi1, psi2, SCENARIO_A.epsilon_single()), sched)[-1]


class TestModifiedAmplitudes:
    def test_time_zero_is_plain_transform(self, grid, unit_gaussian, zero):
        eps = 0.2
        state = initial_state(grid, unit_gaussian, zero, eps)
        snap = modified_amplitudes(state)
        expected = eps * forward_ft(unit_gaussian).values
        assert np.max(np.abs(snap.alpha1.values - expected)) < 1e-13
        assert np.all(snap.alpha2.values == 0)

    def test_free_component_amplitude_frozen(self, grid, unit_gaussian, zero):
        eps = 0.1
        sched = make_schedule(dt=0.01, t_final=20.0)
        snaps = evolve(initial_state(grid, unit_gaussian, zero, eps), sched)
        expected = eps * forward_ft(unit_gaussian).values
        for s in snaps:
            snap = modified_amplitudes(s)
            assert np.max(np.abs(snap.alpha1.values - expected)) < 1e-10

    def test_norm_identity(self, grid, unit_gaussian, half_gaussian):
        state = initial_state(grid, unit_gaussian, half_gaussian, 0.3)
        stepped = evolve(state, make_schedule(dt=0.01, t_final=3.0))[-1]
        snap = modified_amplitudes(stepped)
        for alpha, u in ((snap.alpha1, stepped.u1), (snap.alpha2, stepped.u2)):
            assert abs(l2_norm(alpha) - l2_norm(u)) < 1e-12 * l2_norm(u)


def _abs2(v):
    return v.real**2 + v.imag**2


class TestClosedForm:
    """The closed-form amplitudes and rho against the propagate-then-transform chain."""

    def test_amplitudes_match_propagated_transform(self, scenario_a_state):
        s = scenario_a_state
        snap = modified_amplitudes(s)
        for alpha, u in ((snap.alpha1, s.u1), (snap.alpha2, s.u2)):
            old = forward_ft(free_propagate(u, -s.t)).values
            scale = np.max(np.abs(old))
            assert scale > 0
            assert np.max(np.abs(alpha.values - old)) <= 1e-14 * scale

    def test_rho_matches_three_transform_formula(self, scenario_a_state):
        s = scenario_a_state
        g, t = s.grid, s.t

        def back(values):
            return forward_ft(free_propagate(ComplexField(g, values, SPACE), -t)).values

        v1, v2 = s.u1.values, s.u2.values
        a1, a2 = back(v1), back(v2)
        r1 = _abs2(a2) * a1 / t - back(_abs2(v2) * v1)
        r2 = _abs2(a1) * a2 / t - back(_abs2(v1) * v2)
        old = 2.0 * np.real(np.conj(a1) * r1 - np.conj(a2) * r2)
        new = rho(s)
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))

    def test_component_swap_bitwise(self, scenario_a_state):
        s = scenario_a_state
        swapped = SystemState(s.t, s.u2, s.u1)
        snap, snap_sw = modified_amplitudes(s), modified_amplitudes(swapped)
        assert np.array_equal(snap_sw.alpha1.values, snap.alpha2.values)
        assert np.array_equal(snap_sw.alpha2.values, snap.alpha1.values)
        assert np.array_equal(rho(swapped), -rho(s))

    def test_rho_rejects_overflow(self, scenario_a_state):
        s = scenario_a_state
        huge = ComplexField(s.grid, 1e120 * s.u1.values, SPACE)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationAbort, match="nonlinearity"):
                rho(SystemState(s.t, huge, huge))
            # finite nonlinearities, but their transforms' products overflow
            big1, big2 = (ComplexField(s.grid, 1e100 * u.values, SPACE) for u in (s.u1, s.u2))
            with pytest.raises(SimulationAbort, match="non-finite rho at t = 37.3"):
                rho(SystemState(s.t, big1, big2))

    def test_analysis_aborts_name_their_time(self):
        # finite samples near 1e307, whose FFT overflows at n = 64: an
        # abort from the amplitudes or the shared transform names its t
        g = make_grid(64, 32.0)
        big = ComplexField(g, np.full(g.n, 1e307 + 0j), SPACE)
        small = ComplexField(g, np.full(g.n, 1e-3 + 0j), SPACE)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationAbort, match=r"^non-finite modified amplitudes at t = 5\.5$"):
                modified_amplitudes(SystemState(5.5, small, big))
            run = scattering._AnchoredPass([0.0, 2.0, 3.0, 4.0])
            with pytest.raises(SimulationAbort, match=r"^non-finite modified amplitudes at t = 0\.0$"):
                run.add(SystemState(0.0, big, small))
            with pytest.raises(SimulationAbort, match=r"^non-finite nonlinearity in rho at t = 3\.0$"):
                run.add(SystemState(3.0, big, big))

    def test_run_case_transforms_each_snapshot_once(self, monkeypatch):
        pin_writer(monkeypatch, "in-process")  # the analysis runs, and is logged, here
        transforms = _TransformLog(monkeypatch)
        propagate_calls = []
        real_propagate = spectral.free_propagate
        real_evolve = experiments.evolve
        real_add = scattering._AnchoredPass.add

        def counting_propagate(f, t):
            propagate_calls.append(t)
            return real_propagate(f, t)

        def logged_add(self, state):
            # the analysis runs inside evolve, as each snapshot is appended
            transforms.logging = True
            try:
                real_add(self, state)
            finally:
                transforms.logging = False

        def evolve_then_log(*args, **kwargs):
            states = real_evolve(*args, **kwargs)
            transforms.logging = True  # and so is everything after the run
            return states

        # every module that could call it by an imported name
        for module in (spectral, dynamics, scattering, experiments):
            if hasattr(module, "free_propagate"):
                monkeypatch.setattr(module, "free_propagate", counting_propagate)
        monkeypatch.setattr(scattering._AnchoredPass, "add", logged_add)
        monkeypatch.setattr(experiments, "evolve", evolve_then_log)
        cfg = replace(SCENARIO_B, grid_n=512, grid_length=64.0, t_final=20.0)
        case = experiments.run_case(cfg)
        # one stacked FFT call per snapshot, in order: of u1 and u2 before
        # the anchor, and of u1, u2 and both nonlinearities from it on
        assert [s.t for s in case.states][:2] == [0.0, 2.0]
        transforms.assert_one_call_per_state(case.states, anchor=1)
        assert propagate_calls == []

    def test_forked_run_case_transforms_each_snapshot_once_in_the_helper(self, monkeypatch, tmp_path):
        # the helper receives each snapshot once, in order, and transforms it
        # once; the log is a file, since the helper's memory is its own
        pin_writer(monkeypatch, "forked")
        log = tmp_path / "transforms"
        here = os.getpid()

        def logged(name, real):
            def call(a, *args, **kwargs):
                if os.getpid() != here:
                    rows = np.atleast_2d(a)
                    with open(log, "a") as fh:
                        fh.write(f"{os.getpid()} {name} {rows.shape[0]} {_digest(rows[:2])}\n")
                return real(a, *args, **kwargs)

            return call

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, logged(name, getattr(np.fft, name)))
        cfg = replace(SCENARIO_B, grid_n=512, grid_length=64.0, t_final=20.0)
        case = experiments.run_case(cfg)
        calls = [line.split() for line in log.read_text().splitlines()]
        assert len({pid for pid, *_ in calls}) == 1
        assert [s.t for s in case.states][:2] == [0.0, 2.0]
        expected = [("fft", "2" if i < 1 else "4", _digest(s.stacked())) for i, s in enumerate(case.states)]
        assert [tuple(call[1:]) for call in calls] == expected

    def test_m_integral_transforms_once_from_the_anchor_on(self, coupled_run, monkeypatch):
        _, _, snaps = coupled_run
        transforms = _TransformLog(monkeypatch)
        transforms.logging = True
        assert snaps[0].t == 0.0 and snaps[1].t == 2.0
        m_integral(snaps)
        # once per snapshot from the anchor on, and never for t = 0 before it
        transforms.assert_one_call_per_state(snaps[1:], anchor=0)


def _digest(rows) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()


class _TransformLog:
    """Logs every np.fft.fft and np.fft.ifft call made while `logging` is set.

    Each entry is the function's name, the number of rows transformed and a
    copy of the input's first two rows, taken before the call.
    """

    def __init__(self, monkeypatch):
        self.logging = False
        self.calls = []
        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, self._logged(name, getattr(np.fft, name)))

    def _logged(self, name, real):
        def logged(a, *args, **kwargs):
            if self.logging:
                rows = np.atleast_2d(a)
                self.calls.append((name, rows.shape[0], rows[:2].copy()))
            return real(a, *args, **kwargs)

        return logged

    def assert_one_call_per_state(self, states, anchor):
        """One forward call per state, in order, on (u1, u2), with 4 rows from index `anchor` on."""
        expected = [("fft", 2 if i < anchor else 4) for i in range(len(states))]
        assert [(name, nrows) for name, nrows, _ in self.calls] == expected
        for (_, _, pair), s in zip(self.calls, states):
            assert np.array_equal(pair, s.stacked())


def _rho_extended_reference(state):
    """rho from its defining formula in np.longdouble, through a direct DFT.

    The 1/t model terms are kept and the back-propagation multiplier is
    applied, so nothing of the closed form `rho` uses is assumed.  The
    phases exp(-i x_k xi_m) = (-1)^m exp(-2 pi i k m / n) are reduced
    exactly on the integers before the extended-precision cosine and sine.
    """
    g = state.grid
    n = g.n
    t = np.longdouble(state.t)
    pi = np.arccos(np.longdouble(-1.0))
    m = np.arange(-(n // 2), n // 2)
    angle = 2 * pi * (np.outer(m, np.arange(n)) % n).astype(np.longdouble) / n
    phase = np.cos(angle) - 1j * np.sin(angle)
    dx = np.longdouble(g.length) / n
    scale = dx / np.sqrt(2 * pi) * np.where(m % 2 == 0, 1, -1).astype(np.longdouble)
    xi = 2 * pi * m.astype(np.longdouble) / np.longdouble(g.length)
    back = np.exp(0.5j * t * xi**2)

    def back_ft(values):
        return back * scale * (phase @ values)

    u1 = state.u1.values.astype(np.clongdouble)
    u2 = state.u2.values.astype(np.clongdouble)
    a1, a2 = back_ft(u1), back_ft(u2)
    r1 = _abs2(a2) * a1 / t - back_ft(_abs2(u2) * u1)
    r2 = _abs2(a1) * a2 / t - back_ft(_abs2(u1) * u2)
    return 2 * np.real(np.conj(a1) * r1 - np.conj(a2) * r2)


@pytest.mark.parametrize("scenario", [SCENARIO_A, SCENARIO_B], ids=["A", "B"])
def test_rho_matches_extended_precision_reference(scenario):
    g = make_grid(256, 64.0)
    psi1 = experiments.build_profile(g, scenario.psi1)
    psi2 = experiments.build_profile(g, scenario.psi2)
    sched = make_schedule(dt=0.01, t_final=12.3)
    snaps = evolve(initial_state(g, psi1, psi2, scenario.epsilon_single()), sched)
    checked = snaps[1::4] + snaps[-1:]
    assert len(checked) >= 3
    for s in checked:
        ref = _rho_extended_reference(s)
        scale = np.max(np.abs(ref))
        assert scale > 0
        assert np.max(np.abs(rho(s) - ref)) <= 1e-12 * scale


class TestRho:
    def test_zero_component_gives_zero(self, grid, unit_gaussian, zero):
        state = initial_state(grid, unit_gaussian, zero, 0.1)
        shifted = evolve(state, make_schedule(dt=0.01, t_final=2.0))[-1]
        assert np.all(rho(shifted) == 0)

    def test_symmetric_cancellation_exact(self, grid, unit_gaussian):
        state = initial_state(grid, unit_gaussian, unit_gaussian, 0.2)
        shifted = evolve(state, make_schedule(dt=0.01, t_final=2.0))[-1]
        assert np.all(rho(shifted) == 0)

    def test_requires_positive_time(self, grid, unit_gaussian, half_gaussian):
        state = initial_state(grid, unit_gaussian, half_gaussian, 0.2)
        with pytest.raises(ValueError):
            rho(state)

    def test_samples_real(self, coupled_run):
        _, _, snaps = coupled_run
        r = rho(snaps[-1])
        assert r.dtype == np.float64 and r.shape == (snaps[-1].grid.n,)
        assert np.all(np.isfinite(r)) and np.any(r != 0)

    def test_matches_time_derivative_of_endpoint_difference(self, grid, unit_gaussian, half_gaussian):
        # rho is the exact rate of |alpha1|^2 - |alpha2|^2 along the flow;
        # verify against a centered difference of stored snapshots
        h = 0.04
        sched = make_schedule(
            dt=0.01, t_final=4.0 + h, grow_after=np.inf, extra_times=(4.0 - h, 4.0)
        )
        snaps = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        by_t = {round(s.t, 9): s for s in snaps}

        def diff(state):
            snap = modified_amplitudes(state)
            return np.abs(snap.alpha1.values) ** 2 - np.abs(snap.alpha2.values) ** 2

        fd = (diff(by_t[round(4.0 + h, 9)]) - diff(by_t[round(4.0 - h, 9)])) / (2 * h)
        r = rho(by_t[4.0])
        assert np.max(np.abs(fd - r)) < 1e-3 * np.max(np.abs(r))


class TestMRoutes:
    def test_decoupled_integral_route_exact(self, grid, unit_gaussian, zero):
        eps = 0.1
        sched = make_schedule(dt=0.01, t_final=20.0)
        snaps = evolve(initial_state(grid, unit_gaussian, zero, eps), sched)
        profile = m_integral(snaps)
        expected = eps**2 * np.abs(forward_ft(unit_gaussian).values) ** 2
        assert np.max(np.abs(profile.m_values - expected)) < 1e-10
        assert np.all(profile.tail_estimate == 0)

    def test_decoupled_endpoint_route_exact(self, grid, unit_gaussian, zero):
        eps = 0.1
        sched = make_schedule(dt=0.01, t_final=20.0)
        snaps = evolve(initial_state(grid, unit_gaussian, zero, eps), sched)
        profile = m_endpoint(modified_amplitudes(snaps[-1]))
        expected = eps**2 * np.abs(forward_ft(unit_gaussian).values) ** 2
        assert np.max(np.abs(profile.m_values - expected)) < 1e-10

    def test_symmetric_data_profiles_vanish(self, grid, unit_gaussian):
        sched = make_schedule(dt=0.01, t_final=10.0)
        snaps = evolve(initial_state(grid, unit_gaussian, unit_gaussian, 0.2), sched)
        assert np.all(m_integral(snaps).m_values == 0)
        assert np.all(m_endpoint(modified_amplitudes(snaps[-1])).m_values == 0)

    def test_cross_route_agreement(self, coupled_run):
        psi1, psi2, snaps = coupled_run
        eps = 0.1
        m_int = m_integral(snaps)
        m_end = m_endpoint(modified_amplitudes(snaps[-1]))
        band = (np.abs(forward_ft(psi1).values) + np.abs(forward_ft(psi2).values)) > 1e-8
        gap = np.max(np.abs(m_end.m_values - m_int.m_values)[band])
        assert gap < 1e-2 * eps**2

    def test_integral_route_preconditions(self, coupled_run):
        _, _, snaps = coupled_run
        with pytest.raises(ValueError, match="at least 3 snapshots"):
            m_integral(snaps[:3])  # t = 0, the anchor and one more
        with pytest.raises(ValueError, match="ascending"):
            m_integral(snaps[::-1])

    def test_integral_route_starts_at_the_anchor(self, coupled_run):
        _, _, snaps = coupled_run
        assert snaps[0].t == 0.0 and snaps[1].t == 2.0
        anchored = snaps[1:]
        whole, started = m_integral(snaps), m_integral(anchored)
        assert np.array_equal(whole.m_values, started.m_values)
        assert np.array_equal(whole.tail_estimate, started.tail_estimate)
        with pytest.raises(ValueError, match="no snapshot at the t = 2 anchor"):
            m_integral(snaps[2:])

    def test_endpoint_route_needs_t_at_least_two(self, grid, unit_gaussian, zero):
        state = initial_state(grid, unit_gaussian, zero, 0.1)
        with pytest.raises(ValueError):
            m_endpoint(modified_amplitudes(state))

    def test_component_swap_negates_m_bitwise(self, grid, unit_gaussian, half_gaussian):
        sched = make_schedule(dt=0.01, t_final=10.0)
        fwd = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        rev = evolve(initial_state(grid, half_gaussian, unit_gaussian, 0.2), sched)
        m_fwd = m_endpoint(modified_amplitudes(fwd[-1])).m_values
        m_rev = m_endpoint(modified_amplitudes(rev[-1])).m_values
        assert np.array_equal(m_rev, -m_fwd)


class TestScatteringState:
    """The final snapshot's amplitudes stand in for the scattering pair."""

    def test_decoupled_state_is_scaled_transform(self, grid, unit_gaussian, zero):
        eps = 0.1
        sched = make_schedule(dt=0.01, t_final=20.0)
        snaps = evolve(initial_state(grid, unit_gaussian, zero, eps), sched)
        final = modified_amplitudes(snaps[-1])
        expected = eps * forward_ft(unit_gaussian).values
        assert np.max(np.abs(final.alpha1.values - expected)) < 1e-10
        assert np.all(final.alpha2.values == 0)

    def test_norms_bounded_by_initial_masses(self, coupled_run):
        psi1, psi2, snaps = coupled_run
        final = modified_amplitudes(snaps[-1])
        assert l2_norm(final.alpha1) <= 0.1 * l2_norm(psi1) + 1e-12
        assert l2_norm(final.alpha2) <= 0.1 * l2_norm(psi2) + 1e-12

    def test_requires_t_at_least_two(self, grid, unit_gaussian, zero):
        """The final snapshot is read as the scattering pair only from the anchor T = 2 on."""
        snap = modified_amplitudes(initial_state(grid, unit_gaussian, zero, 0.1))
        with pytest.raises(ValueError):
            m_endpoint(snap)
        with pytest.raises(ValueError):
            m_endpoint(SpectralSnapshot(1.9, snap.alpha1, snap.alpha2))
        assert m_endpoint(SpectralSnapshot(2.0, snap.alpha1, snap.alpha2)).t_final == 2.0


class TestOrthogonalityDefect:
    def test_decoupled_defect_zero(self, grid, unit_gaussian, zero):
        snap = modified_amplitudes(initial_state(grid, unit_gaussian, zero, 0.1))
        assert orthogonality_defect(snap) == 0.0

    def test_symmetric_defect_is_peak_intensity(self, grid, unit_gaussian):
        state = initial_state(grid, unit_gaussian, unit_gaussian, 0.2)
        snap = modified_amplitudes(state)
        expected = np.max(np.abs(snap.alpha1.values) ** 2)
        assert orthogonality_defect(snap) == pytest.approx(expected, rel=1e-12)

    def test_defect_decreases_along_coupled_run(self, coupled_run):
        _, _, snaps = coupled_run
        defects = [orthogonality_defect(modified_amplitudes(s)) for s in snaps if s.t >= 10.0]
        assert np.all(np.diff(defects) <= 0)


class TestClassify:
    def test_zero_profile_all_vanish(self, grid, unit_gaussian):
        sched = make_schedule(dt=0.01, t_final=10.0)
        snaps = evolve(initial_state(grid, unit_gaussian, unit_gaussian, 0.2), sched)
        profile = m_endpoint(modified_amplitudes(snaps[-1]))
        tags = classify(profile, 1e-10)
        assert np.all(tags == BOTH_VANISH)

    def test_decoupled_tags_follow_spectrum(self, grid, unit_gaussian, zero):
        eps = 0.1
        sched = make_schedule(dt=0.01, t_final=20.0)
        snaps = evolve(initial_state(grid, unit_gaussian, zero, eps), sched)
        profile = m_endpoint(modified_amplitudes(snaps[-1]))
        tau = eps**2 * 1e-3
        tags = classify(profile, tau)
        spectrum = np.abs(forward_ft(unit_gaussian).values) ** 2
        assert np.array_equal(tags == FIRST_SURVIVES, spectrum > 1e-3)
        assert not np.any(tags == SECOND_SURVIVES)

    def test_mirrored_tags_swap_exactly(self, grid, unit_gaussian, half_gaussian):
        sched = make_schedule(dt=0.01, t_final=10.0)
        fwd = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        rev = evolve(initial_state(grid, half_gaussian, unit_gaussian, 0.2), sched)
        tau = 1e-8
        tags_fwd = classify(m_endpoint(modified_amplitudes(fwd[-1])), tau)
        tags_rev = classify(m_endpoint(modified_amplitudes(rev[-1])), tau)
        assert np.array_equal(tags_rev, -tags_fwd)

    def test_threshold_must_be_positive(self, grid, unit_gaussian):
        sched = make_schedule(dt=0.01, t_final=5.0)
        snaps = evolve(initial_state(grid, unit_gaussian, unit_gaussian, 0.1), sched)
        profile = m_endpoint(modified_amplitudes(snaps[-1]))
        with pytest.raises(ValueError):
            classify(profile, 0.0)


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestRhoFold:
    """The one-pass fold against the stacked-row formulas it replaced, bitwise."""

    def test_fold_is_numpy_trapezoid(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((40, 64)) * 10.0 ** rng.integers(-300, 300, size=(40, 64))
        rows[:, :4] = -0.0  # numpy's axis-0 sum starts from +0.0, and so must the fold
        times = np.cumsum(rng.uniform(0.01, 3.0, size=40))
        fold = scattering._RhoFold()
        for t, row in zip(times.tolist(), rows):
            fold.add(t, row)
        assert _bitwise_equal(fold.integral, np.trapezoid(rows, times, axis=0))
        assert fold.peaks == np.max(np.abs(rows), axis=1).tolist()

    def test_routes_match_the_stacked_formulas(self, coupled_run, monkeypatch):
        psi1, psi2, snaps = coupled_run
        kept = snaps[scattering._anchor_index([s.t for s in snaps]):]
        times = np.array([s.t for s in kept])
        rows = np.stack([rho(s) for s in kept])

        m_vals = scattering._endpoint_difference(modified_amplitudes(kept[0])) + np.trapezoid(rows, times, axis=0)
        decade = times >= times[-1] / 10.0
        p = scattering._fit_tail_exponent(times[decade], np.max(np.abs(rows[decade]), axis=1))
        profile = m_integral(snaps)
        assert _bitwise_equal(profile.m_values, m_vals)
        assert _bitwise_equal(profile.tail_estimate, np.abs(rows[-1]) * times[-1] / (p - 1.0))

        windows = ((4.0, 8.0), (8.0, 16.0), (16.0, 32.0))
        stacked = []
        for lo, hi in windows:
            inside = (times >= lo - 1e-9) & (times <= hi + 1e-9)
            stacked.append(np.trapezoid(rows[inside], times[inside], axis=0))
            assert _bitwise_equal(integrate_rho_window(snaps, lo, hi), stacked[-1])

        band = experiments.resolved_band(forward_ft(psi1), forward_ft(psi2))
        weight = 1.0 + snaps[0].grid.frequencies ** 2
        expected = [np.max(np.abs(w[band]) * weight[band]) / 0.1**4 for w in stacked]
        calls = []

        def counting_rho(state):
            calls.append(state.t)
            return rho(state)

        monkeypatch.setattr(scattering, "rho", counting_rho)
        assert _bitwise_equal(experiments.tail_bound_constants(snaps, band, 0.1, windows), expected)
        # one pass: the shared endpoints 8 and 16 are computed once
        assert calls == [t for t in times.tolist() if 4.0 <= t <= 32.0]


class TestRhoWindow:
    def test_window_integral_consistent_with_endpoint_difference(self, grid, unit_gaussian, half_gaussian):
        # integral of the rate over [t_a, t_b] telescopes to the endpoint
        # change; sample the window densely so trapezoid error is negligible
        lo, hi = 4.0, 5.0
        dense = tuple(np.round(np.arange(lo, hi + 1e-9, 0.1), 10))
        sched = make_schedule(dt=0.01, t_final=hi, grow_after=np.inf, extra_times=dense)
        snaps = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        got = integrate_rho_window(snaps, lo, hi)

        def diff(state):
            snap = modified_amplitudes(state)
            return np.abs(snap.alpha1.values) ** 2 - np.abs(snap.alpha2.values) ** 2

        by_t = {round(s.t, 9): s for s in snaps}
        exact = diff(by_t[hi]) - diff(by_t[lo])
        assert np.max(np.abs(got - exact)) < 1e-3 * np.max(np.abs(exact))

    def test_window_needs_two_snapshots(self, coupled_run):
        _, _, snaps = coupled_run
        with pytest.raises(ValueError):
            integrate_rho_window(snaps, 49.9, 49.95)


def test_endpoint_difference_converges_late():
    # on a box holding the dispersive spread, the per-snapshot change of
    # |alpha1|^2 - |alpha2|^2 keeps shrinking at frequencies where |m| is large
    g = make_grid(8192, 2048.0)
    p1 = gaussian_profile(g, 1.0, 1.0, 0.0, 0.0)
    p2 = gaussian_profile(g, 0.5, 1.0, 0.0, 0.0)
    snaps = evolve(initial_state(g, p1, p2, 0.2), make_schedule(dt=0.01, t_final=200.0))

    def diff(s):
        sp = modified_amplitudes(s)
        return np.abs(sp.alpha1.values) ** 2 - np.abs(sp.alpha2.values) ** 2

    m_final = diff(snaps[-1])
    big = np.abs(m_final) > 0.5 * np.max(np.abs(m_final))
    series = [(s.t, diff(s)) for s in snaps if s.t >= 45.0]
    deltas = [
        (tb, np.max(np.abs(db - da)[big]))
        for (ta, da), (tb, db) in zip(series, series[1:])
    ]
    late = [d for t, d in deltas if t >= 50.0]
    assert np.all(np.diff(late) < 0)


class TestSnapshotValidation:
    def test_space_side_rejected(self, grid, unit_gaussian):
        with pytest.raises(ValueError):
            SpectralSnapshot(0.0, unit_gaussian, unit_gaussian)

    def test_negative_time_rejected(self, grid, unit_gaussian):
        a = forward_ft(unit_gaussian)
        with pytest.raises(ValueError, match="snapshot time must be finite and >= 0"):
            SpectralSnapshot(-1.0, a, a)

    @pytest.mark.parametrize(
        "values, match",
        [(np.zeros(511), "profile length must match the grid"), (np.full(512, np.nan), "non-finite values")],
        ids=["length", "nan"],
    )
    def test_m_profile_rejects_bad_values(self, grid, values, match):
        with pytest.raises(ValueError, match=match):
            MProfile(grid, values, 5.0)

    def test_grid_mismatch_rejected(self, grid, unit_gaussian):
        other = make_grid(128, 64.0)
        a = forward_ft(unit_gaussian)
        b = forward_ft(zero_field(other))
        with pytest.raises(ValueError):
            SpectralSnapshot(0.0, a, b)
