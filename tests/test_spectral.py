import copy
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from nlslab import (
    ComplexField,
    FREQUENCY,
    MProfile,
    SPACE,
    SimulationAbort,
    forward_ft,
    free_propagate,
    gaussian_profile,
    inverse_ft,
    j_norm,
    l2_norm,
    make_grid,
    sup_norm,
    zero_field,
)
from nlslab.spectral import _MALLOC_ENV, _abs2, _free_multiplier, _is_glibc, _squared_norms
from conftest import dft_quadrature_oracle, idft_quadrature_oracle

PI4 = np.pi**0.25  # l2 norm of exp(-x^2/2)


class TestMakeGrid:
    def test_small_grid_definition(self):
        g = make_grid(16, 16.0)
        assert g.dx == 1.0
        assert np.isclose(g.dxi, 2 * np.pi / 16)
        assert g.frequencies[0] == -8 * 2 * np.pi / 16  # unpaired mode -n/2
        assert np.all(np.diff(g.frequencies) > 0)
        assert g.points[0] == -8.0

    def test_default_grid_definition(self):
        g = make_grid(4096, 256.0)
        assert g.dx == 0.0625
        assert np.isclose(g.frequencies[-1], 2 * np.pi / 256 * 2047)

    def test_dx_times_n_is_length(self):
        g = make_grid(64, 37.5)
        assert g.dx * g.n == g.length

    @pytest.mark.parametrize("n", [15, 1000, 17, 8, 0, -16])
    def test_rejects_bad_point_count(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 10.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_length(self, length):
        with pytest.raises(ValueError):
            make_grid(64, length)

    def test_frequency_symmetry_up_to_unpaired_mode(self):
        g = make_grid(32, 8.0)
        assert np.allclose(g.frequencies[1:], -g.frequencies[1:][::-1])


class TestComplexField:
    def test_length_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            ComplexField(grid, np.zeros(grid.n - 1, complex), SPACE)

    def test_non_finite_rejected(self, grid):
        vals = np.zeros(grid.n, complex)
        vals[3] = np.nan
        with pytest.raises(SimulationAbort):
            ComplexField(grid, vals, SPACE)
        vals[3] = np.inf * 1j
        with pytest.raises(SimulationAbort):
            ComplexField(grid, vals, SPACE)

    def test_values_frozen(self, grid):
        f = zero_field(grid)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_bad_side_rejected(self, grid):
        with pytest.raises(ValueError):
            ComplexField(grid, np.zeros(grid.n, complex), "momentum")


@pytest.mark.parametrize("copy", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])
class TestCopiesStayFrozen:
    """A field, profile or grid copied by pickle or deepcopy is frozen and validated as the original is."""

    def test_field(self, grid, random_field, copy):
        f = copy(random_field)
        assert (f.grid, f.side, f.values.tobytes()) == (grid, SPACE, random_field.values.tobytes())
        with pytest.raises(ValueError):
            f.values[0] = np.nan

    def test_profile(self, grid, copy):
        tail = np.abs(np.linspace(-1.0, 1.0, grid.n))
        p = copy(MProfile(grid, np.linspace(-1.0, 1.0, grid.n), 5.0, tail))
        assert p.m_values.tobytes() == np.linspace(-1.0, 1.0, grid.n).tobytes() and p.tail_estimate.tobytes() == tail.tobytes()
        for values in (p.m_values, p.tail_estimate):
            with pytest.raises(ValueError):
                values[0] = np.nan

    def test_grid(self, copy):
        g = make_grid(64, 8.0)
        g.frequencies, g.points  # cached on the original
        h = copy(g)
        assert h == g and h.frequencies.tobytes() == g.frequencies.tobytes()
        for values in (h.frequencies, h.points):
            with pytest.raises(ValueError):
                values[0] = np.nan

    def test_invalid_samples_do_not_survive(self, grid, random_field, copy):
        f = copy(random_field)
        object.__setattr__(f, "values", np.full(grid.n, np.nan, dtype=complex))
        with pytest.raises(SimulationAbort):
            copy(f)


class TestForwardFT:
    def test_zero_maps_to_zero(self, zero):
        assert np.all(forward_ft(zero).values == 0)

    def test_gaussian_closed_form(self, grid, unit_gaussian):
        fhat = forward_ft(unit_gaussian)
        expected = np.exp(-0.5 * grid.frequencies**2)
        assert np.max(np.abs(fhat.values - expected)) < 1e-10

    def test_matches_quadrature_oracle(self, grid, rng):
        # oracle: direct O(n^2) Riemann sum of the defining integral
        vals = (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)) * np.exp(
            -grid.points**2 / 20.0
        )
        f = ComplexField(grid, vals, SPACE)
        oracle = dft_quadrature_oracle(vals, grid.points, grid.dx, grid.frequencies)
        assert np.max(np.abs(forward_ft(f).values - oracle)) < 1e-10

    def test_shift_property(self, grid, unit_gaussian):
        c = 3.0
        shifted = gaussian_profile(grid, 1.0, 1.0, c, 0.0)
        lhs = forward_ft(shifted).values
        rhs = np.exp(-1j * c * grid.frequencies) * forward_ft(unit_gaussian).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_modulation_property(self, grid, unit_gaussian):
        # exp(ikx) f(x) shifts the transform by k (k on the frequency lattice)
        k = 16 * grid.dxi
        modulated = gaussian_profile(grid, 1.0, 1.0, 0.0, k)
        lhs = forward_ft(modulated).values
        rhs = np.roll(forward_ft(unit_gaussian).values, 16)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_side_mismatch(self, grid):
        g = ComplexField(grid, np.zeros(grid.n, complex), FREQUENCY)
        with pytest.raises(ValueError):
            forward_ft(g)

    def test_linearity(self, grid, random_field, rng):
        other = ComplexField(
            grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n), SPACE
        )
        combo = ComplexField(grid, 2.0 * random_field.values + 1j * other.values, SPACE)
        direct = forward_ft(combo).values
        parts = 2.0 * forward_ft(random_field).values + 1j * forward_ft(other).values
        assert np.max(np.abs(direct - parts)) < 1e-12 * np.max(np.abs(direct))


class TestInverseFT:
    def test_zero(self, grid):
        g = ComplexField(grid, np.zeros(grid.n, complex), FREQUENCY)
        assert np.all(inverse_ft(g).values == 0)

    def test_round_trip_random(self, random_field):
        back = inverse_ft(forward_ft(random_field))
        assert np.max(np.abs(back.values - random_field.values)) < 1e-12

    def test_gaussian_closed_form_and_oracle(self, grid):
        spec = ComplexField(grid, np.exp(-0.5 * grid.frequencies**2), FREQUENCY)
        result = inverse_ft(spec).values
        expected = np.exp(-0.5 * grid.points**2)
        assert np.max(np.abs(result - expected)) < 1e-10
        oracle = idft_quadrature_oracle(spec.values, grid.frequencies, grid.dxi, grid.points)
        assert np.max(np.abs(result - oracle)) < 1e-10

    def test_unitarity(self, random_field):
        n0 = l2_norm(random_field)
        n1 = l2_norm(forward_ft(random_field))
        assert abs(n1 - n0) < 1e-12 * n0

    def test_side_mismatch(self, random_field):
        with pytest.raises(ValueError):
            inverse_ft(random_field)


class TestFreePropagate:
    def test_identity_at_zero(self, random_field):
        out = free_propagate(random_field, 0.0)
        assert np.max(np.abs(out.values - random_field.values)) < 1e-14

    def test_gaussian_closed_form(self, grid, unit_gaussian):
        t = 1.7
        out = free_propagate(unit_gaussian, t)
        s = 1.0 + 1j * t
        expected = s**-0.5 * np.exp(-grid.points**2 / (2.0 * s))
        assert np.max(np.abs(out.values - expected)) < 1e-8

    def test_norm_preserved(self, random_field):
        n0 = l2_norm(random_field)
        for t in (0.3, -5.0, 120.0):
            assert abs(l2_norm(free_propagate(random_field, t)) - n0) < 1e-12 * n0

    def test_group_property(self, random_field):
        once = free_propagate(free_propagate(random_field, 0.7), 1.3)
        direct = free_propagate(random_field, 2.0)
        scale = l2_norm(random_field)
        assert np.max(np.abs(once.values - direct.values)) < 1e-11 * scale

    def test_forward_backward_inverse(self, random_field):
        t = 11.0
        back = free_propagate(free_propagate(random_field, t), -t)
        assert np.max(np.abs(back.values - random_field.values)) < 1e-12

    def test_non_finite_time_rejected(self, random_field):
        with pytest.raises(ValueError):
            free_propagate(random_field, np.nan)

    def test_side_mismatch(self, grid):
        g = ComplexField(grid, np.zeros(grid.n, complex), FREQUENCY)
        with pytest.raises(ValueError):
            free_propagate(g, 1.0)

    @pytest.mark.parametrize("n", [16, 4096, 16384])
    @pytest.mark.parametrize("t", [0.0, -3.7, 0.005, 400.0])
    def test_half_length_multiplier_is_the_full_exp_bitwise(self, n, t):
        # the multiplier is taken on indices 0 .. n/2 and mirrored; compared
        # as float64 pairs, so the sign of every zero counts too
        g = make_grid(n, 0.25 * n)
        full = np.exp(-0.5j * t * g._frequencies_fft_order**2)
        assert np.array_equal(_free_multiplier(g, t).view(np.float64), full.view(np.float64))


class TestNorms:
    def test_zero_norms(self, zero):
        assert l2_norm(zero) == 0.0
        assert sup_norm(zero) == 0.0

    def test_gaussian_l2(self, unit_gaussian):
        assert abs(l2_norm(unit_gaussian) - PI4) < 1e-8

    def test_constant_modulus_sup(self, grid):
        c = 0.37
        f = ComplexField(grid, c * np.exp(1j * grid.points), SPACE)
        assert abs(sup_norm(f) - c) < 1e-14

    def test_frequency_side_norm_uses_dxi(self, grid):
        ones = ComplexField(grid, np.ones(grid.n, complex), FREQUENCY)
        assert np.isclose(l2_norm(ones), np.sqrt(grid.n * grid.dxi))

    def test_squared_moduli_over_float_range(self):
        # the in-place form rounds exactly like re**2 + im**2, from 1e-300 to 1e150
        rng = np.random.default_rng(7)
        mag = 10.0 ** rng.uniform(-300, 150, (2, 16384))
        v = mag[0] * rng.standard_normal(16384) + 1j * mag[1] * rng.standard_normal(16384)
        assert np.array_equal(_abs2(v), v.real**2 + v.imag**2)

    def test_squared_norms_of_stacked_rows(self, grid):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((2, grid.n)) + 1j * rng.standard_normal((2, grid.n))
        got = _squared_norms(rows, grid.dx)
        want = np.sum(np.abs(rows) ** 2, axis=-1) * grid.dx
        assert got.shape == (2,)
        assert np.allclose(got, want, rtol=1e-14, atol=0)
        # a frozen strided input is kept uncopied by ComplexField; its norm
        # is that of the same samples held contiguously
        base = np.repeat(rows[0], 2)
        base.flags.writeable = False
        strided = ComplexField(grid, base[::2], SPACE)
        assert not strided.values.flags.c_contiguous
        assert l2_norm(strided) == l2_norm(ComplexField(grid, rows[0], SPACE))


class TestJNorm:
    def test_gaussian_moment_at_zero(self, unit_gaussian):
        assert abs(j_norm(unit_gaussian, 0.0) - PI4 / np.sqrt(2.0)) < 1e-8

    def test_zero_field(self, zero):
        assert j_norm(zero, 3.0) == 0.0

    def test_non_finite_time_rejected(self, unit_gaussian):
        with pytest.raises(ValueError, match="time must be finite"):
            j_norm(unit_gaussian, np.inf)

    def test_free_flow_invariance(self, unit_gaussian):
        base = j_norm(unit_gaussian, 0.0)
        for t in (0.5, 4.0, 30.0):
            moved = free_propagate(unit_gaussian, t)
            assert abs(j_norm(moved, t) - base) < 1e-8


class TestGaussianProfile:
    def test_peak_value(self, grid):
        f = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        k0 = grid.n // 2  # x = 0 sits exactly on the grid
        assert grid.points[k0] == 0.0
        assert f.values[k0] == 1.0

    def test_amplitude_linearity(self, grid):
        full = gaussian_profile(grid, 1.0, 2.0, 1.0, 0.5).values
        half = gaussian_profile(grid, 0.5, 2.0, 1.0, 0.5).values
        assert np.max(np.abs(half - 0.5 * full)) <= 1e-15 * np.max(np.abs(full))

    def test_l2_closed_form(self, grid):
        a, w = 0.7 + 0.2j, 1.8
        f = gaussian_profile(grid, a, w, -2.0, 1.0)
        assert abs(l2_norm(f) - abs(a) * PI4 * np.sqrt(w)) < 1e-8

    def test_rejects_bad_width(self, grid):
        with pytest.raises(ValueError):
            gaussian_profile(grid, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_profile(grid, 1.0, -2.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_transform_unitarity_property(grid, seed):
    rng = np.random.default_rng(seed)
    f = ComplexField(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n), SPACE)
    n0 = l2_norm(f)
    assert abs(l2_norm(forward_ft(f)) - n0) < 1e-12 * n0
    back = inverse_ft(forward_ft(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


@pytest.mark.parametrize("seed,s,t", [(0, 0.4, 1.1), (1, -2.0, 3.5), (2, 7.0, -7.0)])
def test_propagator_group_property(grid, seed, s, t):
    rng = np.random.default_rng(seed)
    f = ComplexField(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n), SPACE)
    lhs = free_propagate(free_propagate(f, t), s)
    rhs = free_propagate(f, s + t)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-11 * l2_norm(f)


# a warm call of one probe, then the minor page faults it took: the second
# of 50 evolve steps at n = 16384 or of an in-process run_case at n = 4096,
# or the third of a forked run_case at n = 4096, after the helper's fork
# and the copy-on-write faults it leaves the second call.  The evolve
# probe's packets are wide enough that its box is the whole grid, so every
# step works on arrays of 16384 points; the probe exits 1 if it is not.
_FAULT_PROBE = textwrap.dedent(
    """
    import resource
    import sys
    from dataclasses import replace
    import numpy as np
    import nlslab
    if sys.argv[1] == "evolve":
        grid = nlslab.make_grid(16384, 2048.0)
        psi1 = nlslab.gaussian_profile(grid, 1.0, 128.0)
        psi2 = nlslab.gaussian_profile(grid, 0.5, 128.0)
        state0 = nlslab.initial_state(grid, psi1, psi2, 0.1)
        schedule = nlslab.make_schedule(dt=0.01, t_final=0.5)
        u0 = state0.stacked()
        if nlslab.dynamics._box_n(grid, grid, u0, np.fft.fft(u0), schedule.t_final) != grid.n:
            sys.exit("the evolve probe's box is not the whole grid")
        probe = lambda: nlslab.evolve(state0, schedule)
    else:
        if sys.argv[1] == "run_case":
            nlslab.forking._fork_context = lambda: None  # the analysis runs in this process
        cfg = replace(nlslab.SCENARIO_B, grid_n=4096, grid_length=256.0, t_final=20.0)
        probe = lambda: nlslab.run_case(cfg)
    probe()
    if sys.argv[1] == "run_case-forked":
        probe()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    probe()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


@pytest.mark.skipif(not _is_glibc(), reason="the allocator setting applies to glibc only")
@pytest.mark.parametrize(
    "probe, user_env, resident",
    [
        # the import-time setting: about 23k faults without it
        ("evolve", {}, True),
        # glibc's own settings made by the user win; measured 50k faults
        ("evolve", {"MALLOC_MMAP_THRESHOLD_": "131072"}, False),
        ("evolve", {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}, False),
        # the in-process analysis frees more: measured 1-2 faults with the
        # setting and 35k under either user setting
        ("run_case", {}, True),
        ("run_case", {"MALLOC_MMAP_THRESHOLD_": "131072"}, False),
        ("run_case", {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}, False),
        # the reused helper: measured 1662-1671 faults when each run forked
        # its own, and 6-11 since; it needs two usable cores
        ("run_case-forked", {}, True),
    ],
    ids=[
        "default",
        "user-variable",
        "user-tunable",
        "run-case-default",
        "run-case-user-variable",
        "run-case-user-tunable",
        "run-case-forked",
    ],
)
def test_warm_evolve_steps_take_no_page_faults(probe, user_env, resident):
    if probe == "run_case-forked" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the forked run_case needs two usable cores")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in _MALLOC_ENV and k != "GLIBC_TUNABLES"}
    env.update(user_env, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout)
    assert faults < (200 if probe == "run_case-forked" else 64) if resident else faults > 1000, faults
