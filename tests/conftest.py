import contextlib
import os

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no deadline, because per-example timings on a small shared
# host vary by up to 1.5x.
settings.register_profile("nlslab", derandomize=True, deadline=None, database=None)
settings.load_profile("nlslab")

from nlslab import ComplexField, SPACE, gaussian_profile, make_grid, zero_field


@pytest.fixture
def full_disk(monkeypatch):
    """full_disk(module): tables `module` opens through `open_table` fill the disk.

    The header reaches the file; every later write fails with ENOSPC, as
    `/dev/full` is put under the open file's descriptor (never passed as a
    path, which a failed table's cleanup would remove).
    """
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")

    def fill(module):
        real_open_table = module.open_table

        @contextlib.contextmanager
        def open_on_a_full_disk(path, header):
            with real_open_table(path, header) as fh:
                full = os.open("/dev/full", os.O_WRONLY)
                os.dup2(full, fh.fileno())
                os.close(full)
                yield fh

        monkeypatch.setattr(module, "open_table", open_on_a_full_disk)

    return fill


@pytest.fixture(scope="session")
def grid():
    """Small grid resolving unit-width Gaussians to round-off."""
    return make_grid(512, 64.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_field(grid, rng):
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return ComplexField(grid, vals, SPACE)


@pytest.fixture(scope="session")
def unit_gaussian(grid):
    return gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def half_gaussian(grid):
    return gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def zero(grid):
    return zero_field(grid)


def dft_quadrature_oracle(values, x, dx, xi):
    """Direct Riemann sum of (2 pi)^-1/2 int exp(-i x xi) f(x) dx.

    O(n^2) reference path for the transform, independent of any FFT.
    """
    phase = np.exp(-1j * np.outer(xi, x))
    return dx / np.sqrt(2.0 * np.pi) * phase @ values


def idft_quadrature_oracle(values, xi, dxi, x):
    """Direct Riemann sum of the inverse transform integral."""
    phase = np.exp(1j * np.outer(x, xi))
    return dxi / np.sqrt(2.0 * np.pi) * phase @ values


def rk4_decay_pair_oracle(u1, u2, dt, nsteps=20000):
    """High-resolution RK4 for du1/dt = -|u2|^2 u1, du2/dt = -|u1|^2 u2."""
    h = dt / nsteps
    y1, y2 = complex(u1), complex(u2)

    def f(a, b):
        return -abs(b) ** 2 * a, -abs(a) ** 2 * b

    for _ in range(nsteps):
        k1a, k1b = f(y1, y2)
        k2a, k2b = f(y1 + 0.5 * h * k1a, y2 + 0.5 * h * k1b)
        k3a, k3b = f(y1 + 0.5 * h * k2a, y2 + 0.5 * h * k2b)
        k4a, k4b = f(y1 + h * k3a, y2 + h * k3b)
        y1 = y1 + h / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        y2 = y2 + h / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b)
    return y1, y2
