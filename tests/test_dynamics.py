import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nlslab import (
    ComplexField,
    RegimeWarning,
    SPACE,
    SimulationAbort,
    SystemState,
    Schedule,
    TrajectoryRecorder,
    count_steps,
    dissipation_rate,
    evolve,
    free_propagate,
    gaussian_profile,
    j_norm,
    initial_state,
    l2_norm,
    make_grid,
    make_schedule,
    mass,
    nonlinear_substep,
    strang_step,
    sup_norm,
    zero_field,
)
from nlslab import dynamics
from nlslab.dynamics import _decay_factors
from nlslab.spectral import _free_multiplier


class TestNonlinearSubstep:
    def test_absent_partner_is_identity(self):
        out1, out2 = nonlinear_substep(1.0 + 0j, 0.0 + 0j, 5.0)
        assert out1 == 1.0 + 0j and out2 == 0.0 + 0j
        out1, out2 = nonlinear_substep(0.0 + 0j, 0.3 - 0.4j, 2.0)
        assert out1 == 0.0 + 0j and out2 == 0.3 - 0.4j

    def test_tie_follows_logistic(self):
        # c = 0 branch: |u|^2 -> 1 / (1 + 2 dt)
        out1, out2 = nonlinear_substep(1.0 + 0j, 1.0 + 0j, 0.5)
        assert abs(abs(out1) ** 2 - 0.5) < 1e-14
        assert abs(abs(out2) ** 2 - 0.5) < 1e-14

    def test_long_time_fixed_point(self):
        # conserved difference c = 1 survives; the smaller component dies
        out1, out2 = nonlinear_substep(np.sqrt(2.0) + 0j, 1.0 + 0j, 50.0)
        assert abs(abs(out1) ** 2 - 1.0) < 1e-12
        assert abs(out2) ** 2 < 1e-12

    @pytest.mark.parametrize(
        "u1,u2,dt",
        [
            (0.8 + 0.3j, 0.2 - 0.5j, 0.3),
            (0.1 + 0.0j, 1.2 + 0.7j, 0.7),  # second component dominant (c < 0)
            (1.0 + 1.0j, 1.0 - 1.0j, 0.25),  # exact modulus tie
            (2.0 + 0j, 1.9999 + 0j, 1.0),  # near tie
        ],
    )
    def test_matches_rk4_oracle(self, u1, u2, dt):
        from conftest import rk4_decay_pair_oracle

        got1, got2 = nonlinear_substep(u1, u2, dt)
        ref1, ref2 = rk4_decay_pair_oracle(u1, u2, dt)
        assert abs(got1 - ref1) < 1e-11
        assert abs(got2 - ref2) < 1e-11

    def test_difference_conserved_pointwise(self, rng):
        v1 = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        v2 = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        w1, w2 = nonlinear_substep(v1, v2, 0.4)
        before = np.abs(v1) ** 2 - np.abs(v2) ** 2
        after = np.abs(w1) ** 2 - np.abs(w2) ** 2
        assert np.max(np.abs(after - before)) < 1e-12

    def test_moduli_never_grow(self, rng):
        v1 = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        v2 = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        w1, w2 = nonlinear_substep(v1, v2, 1.3)
        assert np.all(np.abs(w1) <= np.abs(v1) + 1e-15)
        assert np.all(np.abs(w2) <= np.abs(v2) + 1e-15)

    def test_phases_preserved(self, rng):
        v1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        w1, w2 = nonlinear_substep(v1, v2, 0.9)
        assert np.max(np.abs(np.angle(w1) - np.angle(v1))) < 1e-12
        assert np.max(np.abs(np.angle(w2) - np.angle(v2))) < 1e-12

    def test_swap_symmetry_bitwise(self, rng):
        v1 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        v2 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        o1, o2 = nonlinear_substep(v1, v2, 0.6)
        s2, s1 = nonlinear_substep(v2, v1, 0.6)
        assert np.array_equal(o1, s1)
        assert np.array_equal(o2, s2)

    def test_rejects_bad_dt_and_nan(self):
        with pytest.raises(ValueError):
            nonlinear_substep(1.0 + 0j, 1.0 + 0j, 0.0)
        with pytest.raises(SimulationAbort):
            nonlinear_substep(np.nan + 0j, 1.0 + 0j, 0.1)


# Squared moduli log-uniform over [1e-300, 1e150], step sizes over [1e-4, 10].
squared_moduli = st.floats(min_value=-300.0, max_value=150.0).map(lambda e: 10.0**e)
step_sizes = st.floats(min_value=-4.0, max_value=1.0).map(lambda e: 10.0**e)
phases = st.floats(min_value=0.0, max_value=2.0 * np.pi)


def _amplitude(sq_modulus: float, phase: float) -> complex:
    return complex(np.sqrt(sq_modulus) * np.exp(1j * phase))


def _sq(u: complex) -> float:
    return u.real * u.real + u.imag * u.imag


class TestDecayKernelOverFloatRange:
    """The substep invariants hold at every magnitude, not just O(1) data.

    The pinned examples broke a kernel that formed c * big, the product of
    two squared moduli: near 1e-161 it underflows and the smaller ratio
    reached 2.7e28; near 1e150 recovering small as big(dt) - c cancelled and
    the smaller ratio reached 1.6e14.
    """

    @given(a=squared_moduli, b=squared_moduli, dt=step_sizes)
    @example(a=9.03e-162, b=1e-191, dt=1e-4)
    @example(a=9.794e150, b=9.3e120, dt=1e-4)
    def test_ratios_never_exceed_one(self, a, b, dt):
        ra, rb = _decay_factors(np.array([a]), np.array([b]), dt)
        assert 0.0 <= ra[0] <= 1.0
        assert 0.0 <= rb[0] <= 1.0

    @given(a=squared_moduli, b=squared_moduli, dt=step_sizes, p1=phases, p2=phases)
    @example(a=9.03e-162, b=1e-191, dt=1e-4, p1=0.0, p2=0.0)
    @example(a=9.794e150, b=9.3e120, dt=1e-4, p1=0.0, p2=0.0)
    def test_difference_conserved_and_moduli_shrink(self, a, b, dt, p1, p2):
        u1, u2 = _amplitude(a, p1), _amplitude(b, p2)
        w1, w2 = nonlinear_substep(u1, u2, dt)
        drift = (_sq(w1) - _sq(w2)) - (_sq(u1) - _sq(u2))
        assert abs(drift) <= 4.0 * np.spacing(max(_sq(u1), _sq(u2)))
        for w, u in ((w1, u1), (w2, u2)):
            assert abs(w.real) <= abs(u.real) and abs(w.imag) <= abs(u.imag)

    @given(a=squared_moduli, b=squared_moduli, dt=step_sizes, p1=phases, p2=phases)
    def test_swap_symmetry_bitwise(self, a, b, dt, p1, p2):
        u1, u2 = _amplitude(a, p1), _amplitude(b, p2)
        o1, o2 = nonlinear_substep(u1, u2, dt)
        s2, s1 = nonlinear_substep(u2, u1, dt)
        assert (o1, o2) == (s1, s2)

    @given(a=squared_moduli, dt=step_sizes, p=phases)
    def test_zero_partner_is_bitwise_identity(self, a, dt, p):
        u = _amplitude(a, p)
        assert nonlinear_substep(u, 0j, dt) == (u, 0j)
        assert nonlinear_substep(0j, u, dt) == (0j, u)


def _reference_strang_step(state, dt):
    """Half-free / nonlinear / half-free on the stacked pair, written out step by step."""
    half = _free_multiplier(state.grid, 0.5 * dt)
    spec = np.fft.fft(state.stacked())
    spec *= half
    work = np.empty_like(spec)
    np.fft.ifft(spec, out=work)
    nonlinear_substep(work[0], work[1], dt, out=(work[0], work[1]))
    np.fft.fft(work, out=spec)
    spec *= half
    return state.t + dt, np.fft.ifft(spec)


class TestStrangStep:
    @pytest.mark.parametrize("n, length", [(64, 32.0), (256, 64.0), (4096, 256.0)])
    @pytest.mark.parametrize("dt", [1e-3, 0.01, 0.05, 0.3, 2.0])
    def test_bitwise_equal_to_written_out_composition(self, n, length, dt):
        g = make_grid(n, length)
        psi1 = gaussian_profile(g, 1.0, 1.0, 0.0, 2.0)
        psi2 = gaussian_profile(g, 0.5, 1.5, 1.0, -1.0)
        start = initial_state(g, psi1, psi2, 0.3)
        for state in (start, SystemState(1.37, start.u1, start.u2)):
            t_ref, u_ref = _reference_strang_step(state, dt)
            out = strang_step(state, dt)
            assert out.t == t_ref
            assert np.array_equal(out.stacked(), u_ref)

    def test_abort_names_step_and_start_time(self, grid, unit_gaussian, half_gaussian, monkeypatch):
        def nan_substep(u1, u2, dt, out=None):
            r1, r2 = nonlinear_substep(u1, u2, dt, out)
            r1[:] = np.nan
            return r1, r2

        monkeypatch.setattr(dynamics, "nonlinear_substep", nan_substep)
        start = initial_state(grid, unit_gaussian, half_gaussian, 0.1)
        state = SystemState(1.25, start.u1, start.u2)
        with pytest.raises(SimulationAbort, match=r"at step 1, t = 0\.5; in strang_step from t = 1\.25 to t = 1\.75$"):
            strang_step(state, 0.5)

    def test_decoupled_equals_free_evolution(self, grid, unit_gaussian):
        state = initial_state(grid, unit_gaussian, zero_field(grid), 0.1)
        m0 = mass(state.u1)
        for _ in range(25):
            state = strang_step(state, 0.02)
        exact = free_propagate(ComplexField(grid, 0.1 * unit_gaussian.values, SPACE), 0.5)
        assert np.max(np.abs(state.u1.values - exact.values)) < 1e-12
        assert np.all(state.u2.values == 0)
        assert abs(mass(state.u1) - m0) < 1e-12 * m0

    def test_symmetric_components_stay_bitwise_equal(self, grid):
        psi = gaussian_profile(grid, 1.0, 1.5, 0.5, 0.3)
        state = initial_state(grid, psi, psi, 0.2)
        for _ in range(10):
            state = strang_step(state, 0.01)
            assert np.array_equal(state.u1.values, state.u2.values)

    def test_advances_time_and_dissipates(self, grid, unit_gaussian, half_gaussian):
        state = initial_state(grid, unit_gaussian, half_gaussian, 0.3)
        m0 = mass(state.u1) + mass(state.u2)
        out = strang_step(state, 0.05)
        assert out.t == pytest.approx(0.05)
        assert mass(out.u1) + mass(out.u2) < m0

    def test_self_convergence_second_order(self, grid, unit_gaussian, half_gaussian):
        # halving dt divides the endpoint error by about four
        t_end = 2.0

        def endpoint(dt):
            sched = make_schedule(dt=dt, t_final=t_end, grow_after=np.inf)
            return evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.3), sched)[-1]

        ref = endpoint(0.00125)

        def err(s):
            return np.sqrt(
                np.sum(np.abs(s.u1.values - ref.u1.values) ** 2) * grid.dx
                + np.sum(np.abs(s.u2.values - ref.u2.values) ** 2) * grid.dx
            )

        e = {dt: err(endpoint(dt)) for dt in (0.02, 0.01, 0.005)}
        assert 3.5 < e[0.02] / e[0.01] < 4.5
        order = np.log2(e[0.02] / e[0.005]) / 2.0
        assert 1.9 < order < 2.1


class TestScheduleAndEvolve:
    def test_schedule_defaults_include_anchor(self):
        sched = make_schedule(dt=0.01, t_final=100.0)
        times = sched.times
        assert times[0] == 0.0
        assert any(abs(t - 2.0) < 1e-9 for t in times)
        assert abs(times[-1] - 100.0) < 1e-9
        assert np.all(np.diff(sched.snapshot_steps) > 0)

    def test_schedule_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_schedule(dt=0.0, t_final=10.0)
        with pytest.raises(ValueError):
            make_schedule(dt=0.01, t_final=10.0, snapshot_ratio=1.0)
        with pytest.raises(ValueError):
            make_schedule(dt=0.01, t_final=-1.0)
        with pytest.raises(ValueError):
            Schedule(0.01, (5, 3))
        with pytest.raises(ValueError):
            Schedule(0.01, (1, 2000))

    def test_schedule_rejects_descending_steps(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            Schedule(0.01, (0, 2, 1))

    def test_schedule_rejects_non_integer_steps(self):
        with pytest.raises(ValueError, match="integers"):
            Schedule(0.01, (0, 50.5, 100))

    def test_schedule_rejects_nan_growth_start(self):
        # nan would compare as "past grow_after" everywhere and grow from t = 0
        with pytest.raises(ValueError, match="step-growth policy"):
            make_schedule(dt=0.01, t_final=20.0, grow_after=np.nan)

    @pytest.mark.parametrize(
        "plan, t_end",
        [
            (lambda: make_schedule(dt=0.01, t_final=20.0), 20.0),
            (lambda: make_schedule(dt=0.01, t_final=37.3, snapshot_ratio=1.5), 37.3),
            (lambda: make_schedule(dt=0.02, t_final=0.0), 0.0),
            (lambda: Schedule(0.8, (0, 2)), 1.6),
        ],
        ids=["default", "rounded-end", "empty", "hand-built"],
    )
    def test_last_snapshot_is_at_t_final(self, plan, t_end):
        # t_final is derived from the last snapshot, so no plan can stop short of it
        sched = plan()
        g = make_grid(64, 32.0)
        psi = gaussian_profile(g, 1.0, 1.0)
        snaps = evolve(initial_state(g, psi, psi, 0.1), sched)
        assert [s.t for s in snaps] == sched.times.tolist()
        assert snaps[-1].t == sched.t_final == pytest.approx(t_end, rel=1e-15)

    @pytest.mark.parametrize("dt, t_final, reached", [(0.8, 2.0, "1.6"), (0.03, 400.0, "399.99")])
    def test_schedule_rejects_t_final_off_the_dt_lattice(self, dt, t_final, reached):
        # rounding t_final to the lattice would silently end the run early
        with pytest.raises(ValueError, match=f"would end at t = {reached}$"):
            make_schedule(dt=dt, t_final=t_final)

    @pytest.mark.parametrize("dt, t_final", [(1e-320, 5.0), (0.01, 1e308)])
    def test_schedule_rejects_a_step_count_that_overflows(self, dt, t_final):
        # t_final / dt is inf, which round() cannot make an integer
        with pytest.raises(ValueError, match=re.escape(f"t_final = {t_final:g} over dt = {dt:g}")):
            make_schedule(dt=dt, t_final=t_final)

    def test_schedule_rejects_a_ladder_longer_than_the_run(self):
        # log(20 / 2) / log(ratio) rungs against round(20 / 0.01) = 2000 steps
        with pytest.raises(ValueError, match=r"snapshot ratio 1\.0000000000001 .*2\.3e\+13 rungs.* 2000 dt steps"):
            make_schedule(dt=0.01, t_final=20.0, snapshot_ratio=1.0000000000001)
        with pytest.raises(ValueError, match=r"2\.3e\+03 rungs"):
            make_schedule(dt=0.01, t_final=20.0, snapshot_ratio=1.001)
        # 1.0012 gives 1919 rungs, within the 2000 steps
        assert make_schedule(dt=0.01, t_final=20.0, snapshot_ratio=1.0012).snapshot_steps[-1] == 2000

    def test_schedule_accepts_t_final_on_the_lattice_up_to_rounding(self):
        # 3730 * 0.01 and 37.3 differ by round-off only
        assert make_schedule(dt=0.01, t_final=37.3).snapshot_steps[-1] == 3730
        assert make_schedule(dt=0.03, t_final=399.99).times[-1] == pytest.approx(399.99)

    def test_zero_final_time_returns_initial_snapshot_only(self, grid, unit_gaussian):
        sched = make_schedule(dt=0.01, t_final=0.0)
        snaps = evolve(initial_state(grid, unit_gaussian, zero_field(grid), 0.1), sched)
        assert len(snaps) == 1
        assert snaps[0].t == 0.0

    def test_free_case_matches_propagator_at_snapshots(self, grid, unit_gaussian):
        eps = 0.1
        sched = make_schedule(dt=0.01, t_final=20.0)
        snaps = evolve(initial_state(grid, unit_gaussian, zero_field(grid), eps), sched)
        u0 = ComplexField(grid, eps * unit_gaussian.values, SPACE)
        for s in snaps:
            exact = free_propagate(u0, s.t)
            assert np.max(np.abs(s.u1.values - exact.values)) < 1e-10

    def test_symmetric_data_bitwise_at_snapshots(self, grid, unit_gaussian):
        sched = make_schedule(dt=0.01, t_final=30.0)
        snaps = evolve(initial_state(grid, unit_gaussian, unit_gaussian, 0.2), sched)
        for s in snaps:
            assert np.array_equal(s.u1.values, s.u2.values)

    def test_deterministic_bitwise(self, grid, unit_gaussian, half_gaussian):
        sched = make_schedule(dt=0.01, t_final=15.0)
        a = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        b = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.u1.values, sb.u1.values)
            assert np.array_equal(sa.u2.values, sb.u2.values)

    def test_observer_and_merged_paths_agree(self, grid, unit_gaussian, half_gaussian):
        sched = make_schedule(dt=0.01, t_final=5.0, grow_after=np.inf)
        fast = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        slow = evolve(
            initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched, lambda s: None
        )
        # an observer never changes the run: the snapshots are bitwise equal
        for sa, sb in zip(fast, slow):
            assert np.array_equal(sa.u1.values, sb.u1.values)
            assert np.array_equal(sa.u2.values, sb.u2.values)

    def test_observer_and_merged_paths_agree_with_grown_steps(
        self, grid, unit_gaussian, half_gaussian
    ):
        # default schedule: the step grows from the t = 2 anchor on, so h
        # changes between snapshot intervals
        sched = make_schedule(dt=0.01, t_final=20.0)
        seen = []
        fast = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        slow = evolve(
            initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched, lambda s: seen.append(s.t)
        )
        assert len(fast) == len(slow) == len(sched.snapshot_steps)
        for sa, sb in zip(fast, slow):
            assert sa.t == sb.t
            assert np.array_equal(sa.u1.values, sb.u1.values)
            assert np.array_equal(sa.u2.values, sb.u2.values)
        assert len(seen) == count_steps(sched) + 1
        assert set(s.t for s in fast) <= set(seen)

    @pytest.mark.parametrize("observed", [False, True])
    def test_abort_names_step_and_time(self, grid, unit_gaussian, half_gaussian, monkeypatch, observed):
        # a substep whose output goes non-finite at step 3 aborts right there
        calls = []

        def failing_substep(u1, u2, dt, out=None):
            calls.append(dt)
            r1, r2 = nonlinear_substep(u1, u2, dt, out)
            if len(calls) == 3:
                r1[:] = np.nan
            return r1, r2

        monkeypatch.setattr(dynamics, "nonlinear_substep", failing_substep)
        sched = make_schedule(dt=0.01, t_final=1.0)
        observer = (lambda s: None) if observed else None
        with pytest.raises(SimulationAbort, match=r"at step 3, t = 0\.03$"):
            evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.1), sched, observer)

    @pytest.mark.parametrize("epsilon", [0.1, 1e-160])
    def test_substep_that_raises_a_mass_aborts(self, grid, unit_gaussian, half_gaussian, monkeypatch, epsilon):
        # the guard holds at normal masses and at subnormal ones (1e-160
        # gives masses near 1e-320), where its relative tolerance underflows
        def growing_substep(u1, u2, dt, out=None):
            r1, r2 = nonlinear_substep(u1, u2, dt, out)
            if len(calls) == 2:
                r2 *= 1.5
            calls.append(dt)
            return r1, r2

        calls = []
        monkeypatch.setattr(dynamics, "nonlinear_substep", growing_substep)
        sched = make_schedule(dt=0.01, t_final=1.0)
        pattern = r"^component mass increased beyond tolerance \(.+->.+, .+->.+\) at step 3, t = 0\.03$"
        with pytest.raises(SimulationAbort, match=pattern):
            evolve(initial_state(grid, unit_gaussian, half_gaussian, epsilon), sched)

    @pytest.mark.parametrize("observed", [False, True])
    def test_overflowing_initial_data_aborts_at_step_zero(self, grid, observed):
        # finite samples whose squared moduli overflow: caught before the
        # observer sees the state, and without a numpy overflow warning
        huge = gaussian_profile(grid, 1e160, 1.0)
        sched = make_schedule(dt=0.01, t_final=1.0)
        seen = []
        observer = seen.append if observed else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationAbort, match=r"at step 0, t = 0$"):
                evolve(initial_state(grid, huge, huge, 1.0), sched, observer)
        assert seen == []

    def test_per_step_mass_monotone(self, grid, unit_gaussian, half_gaussian):
        rec = TrajectoryRecorder(with_j_norm=False)
        sched = make_schedule(dt=0.01, t_final=5.0, grow_after=np.inf)
        evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.3), sched, rec)
        data = rec.as_array()
        m0 = data[0, 1] + data[0, 2]
        assert np.max(np.diff(data[:, 1])) <= 1e-10 * m0
        assert np.max(np.diff(data[:, 2])) <= 1e-10 * m0

    def test_swap_symmetry_of_trajectories(self, grid, unit_gaussian, half_gaussian):
        sched = make_schedule(dt=0.01, t_final=10.0)
        fwd = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.2), sched)
        rev = evolve(initial_state(grid, half_gaussian, unit_gaussian, 0.2), sched)
        for sf, sr in zip(fwd, rev):
            assert np.array_equal(sf.u1.values, sr.u2.values)
            assert np.array_equal(sf.u2.values, sr.u1.values)

    def test_initial_time_mismatch_rejected(self, grid, unit_gaussian):
        sched = make_schedule(dt=0.01, t_final=1.0)
        state = SystemState(0.5, unit_gaussian, zero_field(grid))
        with pytest.raises(ValueError):
            evolve(state, sched)

    def test_immediate_step_growth_floors_at_dt(self, grid, unit_gaussian):
        # grow_after = 0 means growth from the start; the step never
        # shrinks below dt and the run still hits every snapshot
        sched = make_schedule(dt=0.01, t_final=5.0, grow_after=0.0)
        snaps = evolve(initial_state(grid, unit_gaussian, unit_gaussian, 0.1), sched)
        assert abs(snaps[-1].t - 5.0) < 1e-12
        assert any(abs(s.t - 2.0) < 1e-9 for s in snaps)


class TestMassAndDissipation:
    def test_zero_partner_means_zero_rate(self, grid, unit_gaussian):
        state = initial_state(grid, unit_gaussian, zero_field(grid), 0.3)
        assert dissipation_rate(state) == 0.0

    def test_gaussian_pair_rate_closed_form(self, grid, unit_gaussian):
        # |u1 u2|^2 = e^{-2x^2}; rate = 4 * int e^{-2x^2} dx = 4 sqrt(pi/2)
        state = initial_state(grid, unit_gaussian, unit_gaussian, 1.0)
        expected = 4.0 * np.sqrt(np.pi / 2.0)
        oracle = 4.0 * np.sum(np.exp(-2.0 * grid.points**2)) * grid.dx
        assert abs(oracle - expected) < 1e-10  # quadrature oracle vs closed form
        assert abs(dissipation_rate(state) - expected) < 1e-10

    def test_rate_matches_mass_derivative(self, grid, unit_gaussian, half_gaussian):
        # centered difference of the stored trajectory vs the instantaneous rate
        dt = 1e-3
        sched = make_schedule(dt=dt, t_final=0.102, grow_after=np.inf, extra_times=(0.099, 0.1, 0.101))
        snaps = evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.5), sched)
        by_t = {round(s.t, 6): s for s in snaps}
        m = {
            t: mass(by_t[t].u1) + mass(by_t[t].u2)
            for t in (0.099, 0.1, 0.101)
        }
        fd = (m[0.101] - m[0.099]) / (2 * dt)
        rate = dissipation_rate(by_t[0.1])
        assert abs(fd + rate) < 1e-4 * rate

    def test_global_dissipation_ledger(self, grid, unit_gaussian, half_gaussian):
        rec = TrajectoryRecorder(with_j_norm=False)
        sched = make_schedule(dt=0.01, t_final=10.0, grow_after=np.inf)
        evolve(initial_state(grid, unit_gaussian, half_gaussian, 0.3), sched, rec)
        data = rec.as_array()
        total = data[:, 1] + data[:, 2]
        diss = data[:, rec.header.index("dissipation_rate")]
        closure = total[-1] + np.trapezoid(diss, data[:, 0]) - total[0]
        assert abs(closure) < 1e-4 * total[0]

    def test_recorder_j_norms_match_j_norm(self, grid):
        # the recorder's stacked transform pair against the per-field J-norm,
        # at t = 0 and along a coupled run with carriers
        psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 2.0)
        psi2 = gaussian_profile(grid, 0.5, 1.5, 1.0, -1.0)
        rec = TrajectoryRecorder(with_j_norm=True)
        sched = make_schedule(dt=0.01, t_final=12.0, snapshot_ratio=1.5)
        states = evolve(initial_state(grid, psi1, psi2, 0.3), sched)
        for s in states:
            rec(s)
        j1, j2 = rec.column("j_norm1"), rec.column("j_norm2")
        for i, s in enumerate(states):
            assert j1[i] == pytest.approx(j_norm(s.u1, s.t), rel=1e-13)
            assert j2[i] == pytest.approx(j_norm(s.u2, s.t), rel=1e-13)

    @pytest.mark.parametrize("n, length", [(512, 64.0), (4096, 256.0)])
    @pytest.mark.parametrize("with_j_norm", [True, False])
    def test_recorder_rows_are_the_per_field_values_bitwise(self, n, length, with_j_norm):
        g = make_grid(n, length)
        psi1 = gaussian_profile(g, 1.0, 1.0, 0.0, 2.0)
        psi2 = gaussian_profile(g, 0.5, 1.5, 1.0, -1.0)
        rec = TrajectoryRecorder(with_j_norm=with_j_norm)
        seen = []

        def observe(state):
            seen.append(state)
            rec(state)

        sched = make_schedule(dt=0.01, t_final=2.5, snapshot_ratio=1.1)
        evolve(initial_state(g, psi1, psi2, 0.3), sched, observe)
        assert len(rec.rows) == len(seen) == count_steps(sched) + 1
        for row, s in zip(rec.rows, seen):
            expected = [s.t, mass(s.u1), mass(s.u2), max(sup_norm(s.u1), sup_norm(s.u2))]
            if with_j_norm:
                expected += [j_norm(s.u1, s.t), j_norm(s.u2, s.t)]
            expected.append(dissipation_rate(s))
            # as integers, so the comparison is bitwise
            assert np.array_equal(np.array(row).view(np.int64), np.array(expected).view(np.int64))

    def test_rate_overflow_is_a_regime_warning(self):
        # at eps = 1e100 the initial product |u1|^2 |u2|^2 overflows float64
        # while the run itself stays finite (the first step all but empties
        # the overlap); the recorder says so once per column, naming it and
        # the time, in place of numpy's bare overflow warning
        g = make_grid(64, 32.0)
        state0 = initial_state(g, gaussian_profile(g, 1.0, 1.0), gaussian_profile(g, 0.5, 1.0), 1e100)
        rec = TrajectoryRecorder(with_j_norm=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve(state0, make_schedule(dt=0.01, t_final=0.05), rec)
            rec(state0)  # the same column again: no second warning
        assert [w.category for w in caught] == [RegimeWarning]
        assert str(caught[0].message) == (
            "recorder column dissipation_rate overflowed float64 at t = 0.0; recorded as inf"
        )
        data = rec.as_array()
        assert data.shape == (7, 7)
        rate = rec.column("dissipation_rate")
        assert np.isposinf(rate[0]) and np.isposinf(rate[-1]) and np.all(np.isfinite(rate[1:-1]))
        assert np.all(np.isfinite(data[:, :-1]))

    def test_empty_recorder_has_header_wide_columns(self):
        rec = TrajectoryRecorder(with_j_norm=True)
        assert rec.as_array().shape == (0, len(rec.header))
        for name in rec.header:
            assert rec.column(name).shape == (0,)

    def test_mass_is_squared_norm(self, random_field):
        assert mass(random_field) == pytest.approx(l2_norm(random_field) ** 2, rel=1e-14)


class TestSystemStateValidation:
    def test_grid_mismatch(self, grid, unit_gaussian):
        other = make_grid(128, 64.0)
        with pytest.raises(ValueError):
            SystemState(0.0, unit_gaussian, zero_field(other))

    def test_negative_time(self, grid, unit_gaussian):
        with pytest.raises(ValueError):
            SystemState(-1.0, unit_gaussian, unit_gaussian)

    @pytest.mark.parametrize("epsilon", [-0.1, np.nan])
    def test_initial_amplitude_must_be_finite_and_non_negative(self, grid, unit_gaussian, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            initial_state(grid, unit_gaussian, unit_gaussian, epsilon)

    def test_frequency_side_rejected(self, grid, unit_gaussian):
        from nlslab import forward_ft

        with pytest.raises(ValueError):
            SystemState(0.0, unit_gaussian, forward_ft(unit_gaussian))
