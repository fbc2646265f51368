import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from dataclasses import astuple, replace

from nlslab import (
    AprioriReport,
    RegimeWarning,
    RunConfig,
    ProfileSpec,
    SCENARIO_A,
    SCENARIO_B,
    SimulationAbort,
    SweepRecord,
    TrajectoryRecorder,
    apriori_diagnostics,
    build_profile,
    corollary_scenarios,
    evolve,
    fit_order,
    forward_ft,
    gaussian_profile,
    initial_state,
    l2_norm,
    lemma_defect,
    m_endpoint,
    make_grid,
    make_schedule,
    mass,
    m_integral,
    modified_amplitudes,
    orthogonality_defect,
    resolved_band,
    run_case,
    run_sweep,
    tail_bound_constants,
    theorem_defect,
    zero_field,
)
from nlslab import experiments, forking, scattering
from nlslab.experiments import _run_inputs
from nlslab.scattering import _anchor_index
from conftest import assert_helpers_end, pin_writer

TINY_CFG = RunConfig(grid_n=256, grid_length=32.0, dt=0.01, t_final=20.0)


@pytest.fixture
def run_case_calls(monkeypatch):
    """The cases the experiments module runs, each passed on to run_case."""
    import nlslab.experiments as experiments

    calls = []

    def counting_run_case(*args, **kwargs):
        calls.append(args)
        return run_case(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_case", counting_run_case)
    return calls


class TestFitOrder:
    def test_exact_cubic(self):
        eps = np.array([0.05, 0.1, 0.2, 0.4])
        fit = fit_order(eps, eps**3)
        assert abs(fit.slope - 3.0) < 1e-9
        assert abs(fit.intercept) < 1e-9
        assert fit.residual < 1e-12
        assert fit.n_points == 4

    def test_exact_quartic_with_prefactor(self):
        eps = np.array([0.05, 0.1, 0.2, 0.4])
        fit = fit_order(eps, 5.0 * eps**4)
        assert abs(fit.slope - 4.0) < 1e-9
        assert abs(fit.intercept - np.log(5.0)) < 1e-9

    def test_mixed_power_law_lands_between(self):
        # defect = eps^3 + eps^5 over [0.05, 0.4]: slope pulled slightly above 3
        eps = 0.05 * 2.0 ** np.arange(0, 3.1, 0.5)
        fit = fit_order(eps, eps**3 + eps**5)
        assert 3.0 < fit.slope < 3.3

    def test_rejects_too_few_or_narrow(self):
        with pytest.raises(ValueError):
            fit_order([0.1, 0.2, 0.4], [1, 2, 3])
        with pytest.raises(ValueError):
            fit_order([0.1, 0.12, 0.14, 0.16], [1, 2, 3, 4])  # span < 4
        with pytest.raises(ValueError):
            fit_order([0.1, 0.1, 0.2, 0.8], [1, 2, 3, 4])  # only 3 distinct
        with pytest.raises(ValueError):
            fit_order([0.05, 0.1, 0.2, 0.4], [1.0, 0.0, 2.0, 3.0])  # zero defect

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_order([0.05, 0.1, 0.2, 0.4], [1.0, 2.0, 3.0])


class TestRunCase:
    def test_zero_amplitude_everything_vanishes(self):
        case = run_case(TINY_CFG, 0.0)
        assert np.all(case.m_end.m_values == 0)
        assert np.all(case.m_int.m_values == 0)
        r = case.record
        assert r.lemma_defect1 == r.lemma_defect2 == r.theorem_defect == 0.0
        assert r.tail_estimate == 0.0
        assert r.threshold > 0  # still usable for classification

    def test_decoupled_theorem_defect_roundoff(self):
        cfg = replace(TINY_CFG, psi2=ProfileSpec(kind="zero", amplitude=0.0))
        case = run_case(cfg, 0.1)
        assert case.record.theorem_defect < 1e-12
        assert case.record.lemma_defect1 < 1e-10

    def test_golden_regression_default_pair(self):
        # frozen from a validated run of this configuration with step growth
        # from t = 10; the plan is pinned so the values check the integrator
        # alone, whatever the default plan
        case = run_case(replace(TINY_CFG, grow_after=10.0), 0.1)
        r = case.record
        assert r.lemma_defect1 == pytest.approx(0.00023259149119581981, rel=1e-10)
        assert r.lemma_defect2 == pytest.approx(0.0004672774716075486, rel=1e-10)
        assert r.theorem_defect == pytest.approx(1.5828123800347427e-07, rel=1e-8)
        assert r.mass1_final == pytest.approx(0.017484566736728702, rel=1e-12)
        assert r.mass2_final == pytest.approx(0.004191162854936348, rel=1e-12)
        assert r.step_count == 1145

    def test_deterministic_rerun_bitwise(self):
        a = run_case(TINY_CFG, 0.1)
        b = run_case(TINY_CFG, 0.1)
        assert np.array_equal(a.m_end.m_values, b.m_end.m_values)
        assert np.array_equal(a.m_int.m_values, b.m_int.m_values)
        assert a.record.lemma_defect1 == b.record.lemma_defect1
        assert a.record.theorem_defect == b.record.theorem_defect

    def test_shift_and_phase_invariance_near_ties(self):
        # Scenario A's mirrored carriers keep |u1| and |u2| nearly equal, where
        # a thresholded tie branch in the decay kernel once amplified
        # round-off to 8.6e-9 in m.  A whole-cell shift and global phases
        # change nothing but round-off.
        cfg = replace(SCENARIO_A, grid_n=1024, grid_length=128.0, t_final=20.0)
        shift = 5 * cfg.grid_length / cfg.grid_n
        moved = replace(
            cfg,
            psi1=replace(cfg.psi1, amplitude=np.exp(1.1j), center=shift),
            psi2=replace(cfg.psi2, amplitude=np.exp(2.3j), center=shift),
        )
        a, b = run_case(cfg), run_case(moved)
        eps = a.epsilon
        gap = np.max(np.abs(a.m_end.m_values - b.m_end.m_values)[a.band])
        assert gap < 1e-12 * eps**2

    def test_needs_anchor_time(self):
        with pytest.raises(ValueError):
            run_case(replace(TINY_CFG, t_final=1.0), 0.1)

    def test_anchor_time_checked_before_evolving(self, monkeypatch):
        import nlslab.experiments as experiments

        calls = []

        def counting_evolve(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(experiments, "evolve", counting_evolve)
        with pytest.raises(ValueError, match="t_final >= 2"):
            run_case(replace(TINY_CFG, t_final=1.99), 0.1)
        assert calls == []

    @pytest.mark.parametrize(
        "dt, t_final, match",
        [
            # T = 21 is 300 steps of 0.07, but the nearest snapshot to 2 is 2.03
            (0.07, 21.0, "no snapshot at the t = 2 anchor"),
            # neither end time is a whole number of steps
            (0.07, 20.0, "would end at t = 20.02"),
            (0.8, 2.0, "would end at t = 1.6"),
            # the anchor is the last snapshot: the integral route needs 3
            (0.01, 2.0, "at least 3 snapshots from the anchor on"),
        ],
        ids=["0.07-21.0", "0.07-20.0", "0.8-2.0", "0.01-2.0"],
    )
    def test_schedule_without_anchor_snapshot_rejected_before_evolving(self, monkeypatch, dt, t_final, match):
        import nlslab.experiments as experiments


        calls = []

        def counting_evolve(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(experiments, "evolve", counting_evolve)
        with pytest.raises(ValueError, match=match):
            run_case(replace(TINY_CFG, dt=dt, t_final=t_final), 0.1)
        assert calls == []

    def test_folded_outputs_match_the_snapshots(self):
        # run_case keeps no per-snapshot amplitudes; what it keeps of them is
        # bitwise what the snapshots it returns give when analysed afresh
        case = run_case(TINY_CFG, 0.1)
        spectra = [modified_amplitudes(s) for s in case.states]
        anchor = spectra[_anchor_index(case.schedule.times)]
        for kept, fresh in ((case.anchor_amplitudes, anchor), (case.final_amplitudes, spectra[-1])):
            assert kept.t == fresh.t
            assert np.array_equal(kept.alpha1.values, fresh.alpha1.values)
            assert np.array_equal(kept.alpha2.values, fresh.alpha2.values)
        assert np.array_equal(case.alpha2_norm_seq, [l2_norm(sp.alpha2) for sp in spectra])
        assert np.array_equal(case.orth_defect_seq, [orthogonality_defect(sp) for sp in spectra])
        assert np.array_equal(case.mass1_seq, [mass(s.u1) for s in case.states])
        assert np.array_equal(case.mass2_seq, [mass(s.u2) for s in case.states])
        assert (case.record.mass1_final, case.record.mass2_final) == (case.mass1_seq[-1], case.mass2_seq[-1])
        m_int = m_integral(case.states)
        assert np.array_equal(case.m_int.m_values, m_int.m_values)
        assert np.array_equal(case.m_int.tail_estimate, m_int.tail_estimate)

    def test_analysis_memory_does_not_grow_with_snapshot_count(self, monkeypatch):
        # tracemalloc sees this process only, so the analysis runs here
        pin_writer(monkeypatch, "in-process")
        # peak traced memory of run_case beyond what evolve's returned
        # snapshots hold, in complex fields of n: 105 at 27 snapshots and
        # 432 at 119 when every amplitude pair and rho row was kept, 22 to 25
        # at both since the analysis folds each snapshot and drops it
        def analysis_fields(ratio):
            cfg = replace(SCENARIO_A, grid_n=1024, grid_length=256.0, t_final=20.0, snapshot_ratio=ratio)
            _, schedule, _, _, state0 = _run_inputs(cfg, cfg.epsilon_single())
            run_case(cfg)  # untraced, so one-time allocations stay out of the count
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                states = evolve(state0, schedule)
                held = tracemalloc.get_traced_memory()[0] - before
                del states
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                case = run_case(cfg)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            return len(case.states), (peak - held) / (16 * cfg.grid_n)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # T = 20 leaves a tail above threshold
            sparse_count, sparse = analysis_fields(1.1)
            dense_count, dense = analysis_fields(1.02)
        assert (sparse_count, dense_count) == (27, 119)
        # the slack covers the per-snapshot scalars and jitter (measured up to
        # 2.2 fields); keeping one real row per extra snapshot would add 46
        assert dense < sparse + 4.0, (sparse, dense)

    def test_epsilon_scaling_sanity(self):
        # halving eps halves the initial norm exactly and nearly halves it at t = 1
        grid = make_grid(TINY_CFG.grid_n, TINY_CFG.grid_length)
        psi1 = build_profile(grid, TINY_CFG.psi1)
        psi2 = build_profile(grid, TINY_CFG.psi2)
        sched = make_schedule(dt=0.01, t_final=1.0)
        full = evolve(initial_state(grid, psi1, psi2, 0.2), sched)
        half = evolve(initial_state(grid, psi1, psi2, 0.1), sched)
        assert l2_norm(half[0].u1) == pytest.approx(0.5 * l2_norm(full[0].u1), rel=1e-14)
        for s_full, s_half in zip(full, half):
            assert abs(l2_norm(s_half.u1) - 0.5 * l2_norm(s_full.u1)) < 0.05 * l2_norm(s_half.u1)


def _case_arrays(case) -> dict:
    """Every array field of a CaseResult, by name: dtype, shape, writeable flag and bytes; the record's floats."""
    arrays = {
        "psi1_hat": case.psi1_hat.values,
        "psi2_hat": case.psi2_hat.values,
        "band": case.band,
        "mass1_seq": case.mass1_seq,
        "mass2_seq": case.mass2_seq,
        "alpha2_norm_seq": case.alpha2_norm_seq,
        "orth_defect_seq": case.orth_defect_seq,
        "m_end": case.m_end.m_values,
        "m_int": case.m_int.m_values,
        "m_int.tail_estimate": case.m_int.tail_estimate,
    }
    for name in ("anchor_amplitudes", "final_amplitudes"):
        snap = getattr(case, name)
        arrays[f"{name}.alpha1"], arrays[f"{name}.alpha2"] = snap.alpha1.values, snap.alpha2.values
    for i, state in enumerate(case.states):
        arrays[f"states[{i}].u1"], arrays[f"states[{i}].u2"] = state.u1.values, state.u2.values
    out = {name: (a.dtype.str, a.shape, a.flags.writeable, a.tobytes()) for name, a in arrays.items()}
    times = [s.t for s in (case.anchor_amplitudes, case.final_amplitudes, *case.states)]
    out["times"] = np.array(times).tobytes()
    out["record"] = np.array(astuple(case.record), dtype=np.float64).tobytes()
    return out


class _LargeResult:
    """A sink of no states whose result is larger than a pipe holds."""

    def add(self, state):
        pass

    def result(self):
        return np.zeros(1 << 17), ()


def _case_arrays_of_run(cfg) -> dict:
    return _case_arrays(run_case(cfg))


class TestForkedAnalysis:
    """`run_case` with its analysis in a forked helper, against the same run in this process."""

    SILENT = replace(SCENARIO_B, grid_n=256, grid_length=64.0, t_final=20.0, epsilons=(0.0,))

    @staticmethod
    def both_paths(monkeypatch, run):
        """run() on the forked path, then in this process; at most the one helper is left after either."""
        results = {}
        for path in ("forked", "in-process"):
            with monkeypatch.context() as pinned:
                pin_writer(pinned, path)
                results[path] = run()
            assert_helpers_end()
        return results["forked"], results["in-process"]

    @pytest.mark.parametrize(
        "cfg",
        [
            TINY_CFG,
            replace(SCENARIO_A, grid_n=512, grid_length=128.0, t_final=20.0),
            replace(SCENARIO_B, grid_n=512, grid_length=128.0, t_final=20.0),
        ],
        ids=["tiny", "A", "B"],
    )
    def test_case_result_is_bitwise_the_in_process_one(self, monkeypatch, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)  # T = 20 leaves a tail above threshold
            forked, here = self.both_paths(monkeypatch, lambda: _case_arrays_of_run(cfg))
        assert forked == here
        # amplitudes and profiles are frozen on both paths; the monitors are not
        assert not here["anchor_amplitudes.alpha1"][2] and not here["m_int.tail_estimate"][2]
        assert here["mass1_seq"][2]

    def test_component_swap_is_bitwise_on_the_forked_path(self, monkeypatch):
        pin_writer(monkeypatch, "forked")
        base = replace(TINY_CFG, epsilons=(0.2,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            fwd = run_case(replace(base, psi1=ProfileSpec(amplitude=1.0), psi2=ProfileSpec(amplitude=0.5)))
            rev = run_case(replace(base, psi1=ProfileSpec(amplitude=0.5), psi2=ProfileSpec(amplitude=1.0)))
        for a, b in (
            (fwd.mass1_seq, rev.mass2_seq),
            (fwd.mass2_seq, rev.mass1_seq),
            (fwd.orth_defect_seq, rev.orth_defect_seq),
            (fwd.m_end.m_values, -rev.m_end.m_values),
            (fwd.m_int.m_values, -rev.m_int.m_values),
            (fwd.m_int.tail_estimate, rev.m_int.tail_estimate),
            (fwd.anchor_amplitudes.alpha1.values, rev.anchor_amplitudes.alpha2.values),
            (fwd.final_amplitudes.alpha2.values, rev.final_amplitudes.alpha1.values),
        ):
            assert a.tobytes() == b.tobytes()

    def test_helper_abort_reads_as_in_process(self, monkeypatch, no_helper):
        here = os.getpid()
        real_rho_row = scattering._rho_row

        def aborting_rho_row(grid, t, spec):
            if t > 3.5:
                raise SimulationAbort(f"injected in {'this process' if os.getpid() == here else 'the helper'} at t = {t}")
            return real_rho_row(grid, t, spec)

        monkeypatch.setattr(scattering, "_rho_row", aborting_rho_row)

        def abort_message():
            with pytest.raises(SimulationAbort) as err:
                run_case(self.SILENT)
            return str(err.value)

        forked, here_message = self.both_paths(monkeypatch, abort_message)
        assert forked == "injected in the helper at t = 4.0"  # the first snapshot past 3.5
        assert forked.replace("the helper", "this process") == here_message

    def test_evolve_abort_wins_over_a_helper_abort(self, monkeypatch, no_helper):
        def failing_rho_row(grid, t, spec):
            raise SimulationAbort("analysis abort")

        def evolve_then_abort(*args, **kwargs):
            evolve(*args, **kwargs)
            raise SimulationAbort("evolve abort")

        monkeypatch.setattr(scattering, "_rho_row", failing_rho_row)
        monkeypatch.setattr(experiments, "evolve", evolve_then_abort)

        def abort_message():
            with pytest.raises(SimulationAbort) as err:
                run_case(self.SILENT)
            return str(err.value)

        assert self.both_paths(monkeypatch, abort_message) == ("evolve abort", "evolve abort")

    def test_numpy_warning_in_the_helper_is_emitted_here_once(self, monkeypatch, no_helper):
        real_rho_row = scattering._rho_row

        def overflowing_rho_row(grid, t, spec):
            if t > 3.5:
                np.float64(1e308) * np.float64(10.0)
            return real_rho_row(grid, t, spec)

        monkeypatch.setattr(scattering, "_rho_row", overflowing_rho_row)

        def caught():
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                case = run_case(self.SILENT)
            return [(w.category, str(w.message)) for w in seen], case.schedule.times

        (forked, times), (here, _) = self.both_paths(monkeypatch, caught)
        assert forked == here == [(RuntimeWarning, "overflow encountered in scalar multiply")] * int(np.sum(times > 3.5))

    def test_helper_that_dies_is_a_child_process_error(self, monkeypatch, no_helper):
        here = os.getpid()
        real_rho_row = scattering._rho_row

        def dying_rho_row(grid, t, spec):
            if os.getpid() != here and t > 3.5:
                os._exit(3)
            return real_rho_row(grid, t, spec)

        monkeypatch.setattr(scattering, "_rho_row", dying_rho_row)
        pin_writer(monkeypatch, "forked")
        with pytest.raises(ChildProcessError, match="^helper process exited with code 3$"):
            run_case(self.SILENT)
        assert_helpers_end()

    def test_forking_warns_of_nothing(self, monkeypatch, no_helper):
        # Python 3.12+ warns on every fork of a process with threads, such
        # as numpy's OpenBLAS pool; here every version's fork warns so
        real_fork = os.fork

        def fork_warning_of_threads():
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_warning_of_threads)
        pin_writer(monkeypatch, "forked")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_case(self.SILENT)
        assert_helpers_end()

    def test_helper_ends_when_its_caller_is_gone(self, monkeypatch, no_helper):
        # a report larger than a pipe holds fails to send once the caller's
        # ends are closed, so the helper of a killed process does not block
        pin_writer(monkeypatch, "forked")
        helper = forking.side(make_grid(16, 8.0), _LargeResult())
        try:
            os.write(helper.fd, forking._END_OF_STREAM)
            helper.conn.close()
            os.close(helper.fd)
            helper.proc.join(timeout=30)
            assert helper.proc.exitcode == 0
        finally:
            helper.proc.kill()
            helper.proc.join()
            forking._helper = None
            forking._lock.release()

    def test_daemonic_worker_runs_the_analysis_in_process(self, monkeypatch):
        # a daemonic process may have no children: a pool worker that sees
        # two cores runs the analysis itself instead of forking a helper
        pin_writer(monkeypatch, "forked")
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply(_case_arrays_of_run, (self.SILENT,))
        pin_writer(monkeypatch, "in-process")
        assert in_worker == _case_arrays_of_run(self.SILENT)


def test_run_case_completes_at_subnormal_masses():
    # eps = 1e-160 gives masses near 1e-320, where the mass guard's relative
    # tolerance 1e-10 (m1 + m2) underflows and round-off once aborted the run
    case = run_case(replace(SCENARIO_B, grid_n=256, grid_length=64.0, t_final=5.0), 1e-160)
    assert case.states[-1].t == 5.0 and 0.0 < case.record.mass1_final < 1e-300


class TestDefectHelpers:
    def test_lemma_defect_needs_anchor(self):
        grid = make_grid(256, 32.0)
        psi1 = gaussian_profile(grid)
        state = initial_state(grid, psi1, zero_field(grid), 0.1)
        snap = modified_amplitudes(state)
        with pytest.raises(ValueError):
            lemma_defect(snap, forward_ft(psi1), forward_ft(zero_field(grid)), 0.1)

    def test_lemma_defect_zero_amplitude(self):
        case = run_case(TINY_CFG, 0.0)
        anchored = case.anchor_amplitudes
        d1, d2 = lemma_defect(anchored, case.psi1_hat, case.psi2_hat, 0.0)
        assert d1 == 0.0 and d2 == 0.0

    def test_theorem_defect_empty_band(self):
        case = run_case(TINY_CFG, 0.1)
        empty = np.zeros(case.grid.n, dtype=bool)
        assert theorem_defect(case.m_end, case.psi1_hat, case.psi2_hat, 0.1, empty) == 0.0

    def test_resolved_band_covers_data(self):
        case = run_case(TINY_CFG, 0.1)
        band = resolved_band(case.psi1_hat, case.psi2_hat)
        assert np.any(band)
        xi = case.grid.frequencies
        assert np.all(np.abs(xi[band]) < 10.0)  # unit-width spectra die out well below


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_sweep(replace(TINY_CFG, t_final=50.0))


@pytest.fixture(scope="module")
def reports():
    base = replace(TINY_CFG, t_final=50.0)
    return corollary_scenarios(base)


class TestSweep:
    def test_record_rejects_a_negative_defect(self):
        with pytest.raises(ValueError, match="theorem_defect must be finite and >= 0"):
            SweepRecord(0.1, 0.0, 0.0, -1e-12, 0.0, 0.0, 1e-8, 1.0, 1.0, 10)

    def test_lemma_orders_near_cubic(self, tiny_sweep):
        assert 2.7 < tiny_sweep.lemma_fit1.slope < 3.3
        assert 2.7 < tiny_sweep.lemma_fit2.slope < 3.3

    def test_theorem_order_at_least_quartic_ish(self, tiny_sweep):
        assert tiny_sweep.theorem_fit.slope > 3.5

    def test_records_ordered_and_finite(self, tiny_sweep):
        eps = [r.epsilon for r in tiny_sweep.records]
        assert eps == sorted(eps) and len(eps) == 5
        for r in tiny_sweep.records:
            assert np.isfinite(r.theorem_defect) and r.theorem_defect >= 0

    @pytest.mark.parametrize(
        "ladder, match",
        [
            ((0.1, 0.2, 0.4), "order fit needs at least 4 distinct epsilon values"),
            ((0.1, 0.12, 0.14, 0.16), "epsilon values must span a factor >= 4.0"),
            ((0.0, 0.1, 0.2, 0.4), "epsilon values must be positive and finite"),
        ],
        ids=["three", "narrow", "zero"],
    )
    def test_bad_ladder_rejected_before_any_case(self, run_case_calls, ladder, match):
        with pytest.raises(ValueError, match=match):
            run_sweep(replace(TINY_CFG, t_final=5.0, epsilons=ladder))
        assert run_case_calls == []


class TestScenarios:
    def test_scenario_a_both_survive(self, reports):
        rep = reports["A"]
        assert "first-survives" in rep.tags_present
        assert "second-survives" in rep.tags_present
        assert rep.band_norm_ratio1 > 0.5
        assert rep.band_norm_ratio2 > 0.5

    def test_scenario_b_second_dies(self, reports):
        rep = reports["B"]
        case = rep.case
        late = case.schedule.times >= 10.0
        assert np.all(np.diff(case.alpha2_norm_seq[late]) < 0)
        assert rep.m_min_strong_band > case.threshold
        assert case.mass2_seq[-1] < case.mass2_seq[0]

    def test_symmetric_all_vanish(self, reports):
        rep = reports["symmetric"]
        assert rep.tags_present == ("both-vanish",)
        assert np.max(np.abs(rep.case.m_end.m_values)) <= rep.case.threshold

    def test_swapping_components_swaps_report_quantities(self):
        base = replace(TINY_CFG, t_final=20.0)
        cfg_fwd = replace(base, psi1=ProfileSpec(amplitude=1.0), psi2=ProfileSpec(amplitude=0.5), epsilons=(0.2,))
        cfg_rev = replace(base, psi1=ProfileSpec(amplitude=0.5), psi2=ProfileSpec(amplitude=1.0), epsilons=(0.2,))
        case_f = run_case(cfg_fwd)
        case_r = run_case(cfg_rev)
        m1f = np.array([mass(s.u1) for s in case_f.states])
        m2r = np.array([mass(s.u2) for s in case_r.states])
        assert np.array_equal(m1f, m2r)
        assert np.array_equal(case_r.m_end.m_values, -case_f.m_end.m_values)

    def test_unknown_scenario_rejected(self, run_case_calls):
        with pytest.raises(ValueError):
            corollary_scenarios(which=("C",))
        # every name is checked before the first scenario runs
        with pytest.raises(ValueError, match="unknown scenario 'C'"):
            corollary_scenarios(which=("A", "C"))
        assert run_case_calls == []


class TestAprioriDiagnostics:
    def test_free_gaussian_matches_closed_form(self):
        # free packet: sup(t) = eps (1+t^2)^(-1/4); the scaled sup peaks at
        # t = 1 with value 2^(1/4)
        grid = make_grid(512, 64.0)
        psi = gaussian_profile(grid)
        rec = TrajectoryRecorder(with_j_norm=True)
        sched = make_schedule(dt=0.01, t_final=5.0, grow_after=np.inf)
        evolve(initial_state(grid, psi, zero_field(grid), 0.1), sched, rec)
        rep = apriori_diagnostics(rec, 0.1)
        assert rep.c_inf == pytest.approx(2.0**0.25, abs=1e-9)
        assert rep.t_of_max == pytest.approx(1.0, abs=1e-9)
        # free flow: both mass and J-norm are exactly conserved
        assert abs(rep.growth_exponent) < 1e-6

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="empty trajectory record"):
            apriori_diagnostics(TrajectoryRecorder(), 0.1)

    def test_record_without_j_norms_has_no_growth_fit(self):
        # the sup-norm constant is still fitted: the free packet's 2^(1/4) at t = 1
        grid = make_grid(512, 64.0)
        rec = TrajectoryRecorder(with_j_norm=False)
        sched = make_schedule(dt=0.01, t_final=5.0, grow_after=np.inf)
        evolve(initial_state(grid, gaussian_profile(grid), zero_field(grid), 0.1), sched, rec)
        rep = apriori_diagnostics(rec, 0.1)
        assert rep.c_inf == pytest.approx(2.0**0.25, abs=1e-9)
        assert rep.t_of_max == pytest.approx(1.0, abs=1e-9)
        assert rep.growth_exponent is None and rep.growth_intercept is None

    def test_zero_amplitude_reports_zero(self):
        grid = make_grid(256, 32.0)
        rec = TrajectoryRecorder(with_j_norm=True)
        sched = make_schedule(dt=0.01, t_final=1.0)
        evolve(initial_state(grid, zero_field(grid), zero_field(grid), 0.0), sched, rec)
        rep = apriori_diagnostics(rec, 0.0)
        assert rep == AprioriReport(0.0, 0.0, None, None)

    def test_coupled_run_growth_exponent_small(self):
        grid = make_grid(256, 32.0)
        psi1 = gaussian_profile(grid)
        psi2 = gaussian_profile(grid, 0.5)
        rec = TrajectoryRecorder(with_j_norm=True)
        sched = make_schedule(dt=0.01, t_final=20.0)
        evolve(initial_state(grid, psi1, psi2, 0.2), sched, rec)
        rep = apriori_diagnostics(rec, 0.2)
        assert np.isfinite(rep.c_inf) and rep.c_inf > 0
        assert rep.growth_exponent < 1.0 / 12.0 + 0.05


class TestTailWarning:
    @pytest.mark.parametrize("scenario", [SCENARIO_A, SCENARIO_B], ids=["A", "B"])
    def test_stock_scenarios_warn(self, scenario):
        # measured: 7.2e-4 against 2.9e-4 on A, 1.19e-3 against 4.8e-5 on B
        with pytest.warns(RegimeWarning, match="beyond T = 400 exceeds the classification threshold") as seen:
            case = run_case(scenario)
        r = case.record
        assert r.tail_estimate > r.threshold
        assert [w.category for w in seen] == [RegimeWarning]
        message = str(seen[0].message)
        assert f"tail estimate {r.tail_estimate:.3g}" in message
        assert f"threshold {r.threshold:.3g}" in message

    def test_resolved_run_stays_silent(self):
        # a box holding the spread to T = 50: tail 1.9e-10 against 9.9e-8
        cfg = replace(SCENARIO_A, grid_n=2048, grid_length=512.0, t_final=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            case = run_case(cfg)
        assert 0 < case.record.tail_estimate < case.record.threshold


class TestThresholdFloorWarning:
    # Scenario B tags 75 frequencies first-survives at eps = 1e-150, where
    # the threshold is 1e-306; on the floor, 73 at 1e-151 and none at 1e-154
    CFG = replace(SCENARIO_B, grid_n=256, grid_length=64.0, t_final=20.0)

    def test_threshold_on_the_floor_warns(self):
        with pytest.warns(RegimeWarning, match="float64 floor") as seen:
            case = run_case(self.CFG, 1e-154)
        assert case.threshold == np.finfo(np.float64).tiny
        message = str(seen[0].message)
        assert "eps = 1e-154" in message
        assert f"floor {case.threshold:.3g}" in message
        assert f"1e-6*eps^2 = {1e-6 * 1e-154**2:.3g}" in message

    @pytest.mark.parametrize("eps", [1e-150, 0.0])
    def test_threshold_above_the_floor_or_at_zero_amplitude_stays_silent(self, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_case(self.CFG, eps)


class TestTailBound:
    def test_window_constants_positive_and_finite(self):
        cfg = replace(TINY_CFG, t_final=40.0)
        grid = make_grid(cfg.grid_n, cfg.grid_length)
        psi1 = build_profile(grid, cfg.psi1)
        psi2 = build_profile(grid, cfg.psi2)
        sched = make_schedule(cfg.dt, 40.0, extra_times=(5.0, 10.0, 20.0))
        snaps = evolve(initial_state(grid, psi1, psi2, 0.1), sched)
        band = resolved_band(forward_ft(psi1), forward_ft(psi2))
        consts = tail_bound_constants(snaps, band, 0.1, windows=((5.0, 10.0), (10.0, 20.0), (20.0, 40.0)))
        assert consts.shape == (3,)
        assert np.all(np.isfinite(consts)) and np.all(consts > 0)


def _default_plan_error(scenario, eps, t_final, ref_dt):
    """Error of the default plan's final m_endpoint, as a fraction of the floor.

    The default plan grows its steps from the t = 2 anchor.  The reference
    runs the same data at a fixed step ref_dt; the error is the band max of
    the difference, divided by the classification floor 1e-6 eps^2.
    """
    grid = make_grid(1024, 256.0)
    psi1 = build_profile(grid, scenario.psi1)
    psi2 = build_profile(grid, scenario.psi2)
    state0 = initial_state(grid, psi1, psi2, eps)
    band = resolved_band(forward_ft(psi1), forward_ft(psi2))

    def final_m(schedule):
        return m_endpoint(modified_amplitudes(evolve(state0, schedule)[-1])).m_values

    fixed = make_schedule(dt=ref_dt, t_final=t_final, grow_after=np.inf)
    gap = np.abs(final_m(make_schedule(t_final=t_final)) - final_m(fixed))
    return np.max(gap[band]) / (1e-6 * eps**2)


# Share of the classification floor the default plan's stepping error may
# use.  Both m routes share the trajectory, so c_quad cannot see this error
# and the threshold does not cover it.
PLAN_ERROR_BUDGET = 0.25


class TestDefaultPlanConvergence:
    @pytest.mark.parametrize("scenario", [SCENARIO_A, SCENARIO_B], ids=["A", "B"])
    def test_grown_steps_stay_within_budget(self, scenario):
        """The default plan's error at T = 20, on the box n = 1024, L = 256.

        Measured: 0.136 of the floor on A and 0.081 on B.  By T = 20 this box
        wraps on A: u1 holds 5.5e-6 of its mass in the outer 20% of the box
        (1.6e-11 on B), and its modulus at the box edge is 9e-5 of its peak.
        The wrap does not move the measured error: on n = 2048, L = 512 and
        on n = 4096, L = 1024 at the same dx it reads the same 0.1358 on A
        and 0.0812 on B, to within 3e-7 of the floor.
        """
        assert _default_plan_error(scenario, 0.2, 20.0, 0.0025) < PLAN_ERROR_BUDGET

    # Bounds on the anchor amplitudes and on m_end, in floors 1e-6 eps^2, at
    # about 3x the change measured at the default dt = 0.02 (anchor, m_end):
    # A 6.70 and 0.0302, B 0.803 and 0.00118.  The amplitudes are O(eps), so
    # their change reads larger in these units than m's.  The error grows
    # like dt^2: at dt = 0.04, A reads 27.2 and 0.134, B 3.25 and 0.0079.
    @pytest.mark.parametrize(
        "scenario, anchor_bound, m_bound", [(SCENARIO_A, 20.0, 0.09), (SCENARIO_B, 2.4, 0.0035)], ids=["A", "B"]
    )
    def test_default_base_step_resolves_the_anchor(self, scenario, anchor_bound, m_bound):
        cfg = replace(scenario, grid_n=512, grid_length=128.0, t_final=20.0, epsilons=(0.2,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)  # T = 20 leaves a tail above threshold
            default, fine = run_case(cfg), run_case(replace(cfg, dt=0.0025))
        band, floor = fine.band, 1e-6 * 0.2**2
        anchor_gap = max(
            np.max(np.abs(getattr(default.anchor_amplitudes, a).values - getattr(fine.anchor_amplitudes, a).values)[band])
            for a in ("alpha1", "alpha2")
        )
        m_gap = np.max(np.abs(default.m_end.m_values - fine.m_end.m_values)[band])
        assert anchor_gap < anchor_bound * floor
        assert m_gap < m_bound * floor
        assert np.array_equal(default.tags(), fine.tags())

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="wrap-around, not stepping error: 3.4 floors at T = 50 on the box "
        "n = 1024, L = 256, which holds 41% of u1's mass in its outer 20% by then; "
        "on L >= 512 at the same dx the error is 0.031 floors",
    )
    def test_late_time_error_on_carrier_data(self):
        # a dt = 0.005 reference agrees with dt = 0.0025 to 1e-12 here
        assert _default_plan_error(SCENARIO_A, 0.1, 50.0, 0.005) < PLAN_ERROR_BUDGET
