"""Periodic spectral toolbox: grid, unitary Fourier transform, free propagator.

The real line is truncated to a periodic box [-L/2, L/2) sampled at n
equispaced points.  The Fourier transform uses the unitary convention

    fhat(xi) = (2*pi)**-0.5 * integral exp(-i*x*xi) f(x) dx,

discretized as a scaled FFT whose phases match the centered grid, so that
Plancherel holds with constant 1 in the discrete norms: the l2 norm of a
field (trapezoid weight dx on the space side, dxi = 2*pi/L on the frequency
side) is preserved exactly up to round-off.  The free propagator

    U(t) = exp(i*(t/2)*d^2/dx^2)

is the diagonal frequency multiplier exp(-i*t*xi^2/2); negative t is the
backward evolution needed to undo dispersion when extracting scattering
amplitudes.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SPACE",
    "FREQUENCY",
    "Grid",
    "ComplexField",
    "SimulationAbort",
    "RegimeWarning",
    "make_grid",
    "forward_ft",
    "inverse_ft",
    "free_propagate",
    "l2_norm",
    "sup_norm",
    "j_norm",
    "gaussian_profile",
    "zero_field",
]

SPACE = "space"
FREQUENCY = "frequency"

# mallopt parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest allowed value on 64-bit hosts
_TRIM_THRESHOLD = 256 << 20
# the user's own settings of the same two thresholds, which take precedence
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold")


def _is_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _keep_heap_resident() -> None:
    """Make glibc keep freed blocks below 32 MiB in a heap it seldom trims.

    Under glibc's defaults a freed block of 128 KiB or more is unmapped (until
    the dynamic mmap threshold has risen past it), and the heap top is handed
    back to the system once 128 KiB of it is free.  Either way the next
    allocation of that size faults its pages in again.  Every FFT call
    allocates such scratch blocks, and so do the decay kernel's temporaries
    at large n, so each step paid hundreds of page faults: 50 warm steps at
    n = 16384 took about 23k, and none with this setting.  Freed blocks are
    reused instead.  The cost is that up to 256 MiB of freed heap stays
    resident in a long-lived process; on the benchmark's workloads the peak
    resident size did not rise.

    Called once at import, on glibc only, and not at all if the user set
    either threshold through glibc's own MALLOC_MMAP_THRESHOLD_ or
    MALLOC_TRIM_THRESHOLD_ or their GLIBC_TUNABLES names, which then decide.
    """
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if any(name in os.environ for name in _MALLOC_ENV) or any(t in tunables for t in _MALLOC_TUNABLES):
        return
    if not _is_glibc():
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_heap_resident()


class SimulationAbort(RuntimeError):
    """A run produced non-finite samples or violated a monotonicity guard."""


class RegimeWarning(RuntimeWarning):
    """A run left the regime in which an output it reports can be trusted.

    The run goes on; the warning names the time and the quantity affected.
    """


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2) with its dual frequency grid.

    Points are x_k = -L/2 + k*dx with dx = L/n; frequencies are
    xi_m = 2*pi*m/L for m = -n/2 .. n/2-1, stored ascending.  n must be a
    power of two (>= 16) so the FFT stays exact-length and the frequency
    grid is symmetric apart from the single unpaired mode -n/2.
    """

    n: int
    length: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)):
            raise ValueError(f"grid size must be a power of two, got {self.n}")
        if self.n < 16:
            raise ValueError(f"grid size must be >= 16, got {self.n}")
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "length", float(self.length))

    def __reduce__(self):
        # without its cached arrays, which a copy would get back writeable
        return type(self), (self.n, self.length)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.length

    @cached_property
    def points(self) -> np.ndarray:
        x = -0.5 * self.length + self.dx * np.arange(self.n)
        x.flags.writeable = False
        return x

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Frequencies in ascending order, matching ComplexField[frequency]."""
        xi = self.dxi * np.arange(-(self.n // 2), self.n // 2)
        xi.flags.writeable = False
        return xi

    @cached_property
    def _frequencies_fft_order(self) -> np.ndarray:
        xi = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        xi.flags.writeable = False
        return xi

    @cached_property
    def _centering_signs(self) -> np.ndarray:
        # exp(i*pi*m) for m = -n/2 .. n/2-1: the phase between the centered
        # x-grid and the index-0-based DFT.
        m = np.arange(-(self.n // 2), self.n // 2)
        s = np.where(m % 2 == 0, 1.0, -1.0)
        s.flags.writeable = False
        return s


def make_grid(n: int, length: float) -> Grid:
    """Build the periodic grid; rejects non-power-of-two n and length <= 0."""
    return Grid(n, length)


@dataclass(frozen=True)
class ComplexField:
    """One complex-valued function sampled on a grid, on one side of the FT.

    Samples are validated finite at construction and frozen, so any public
    operation that would produce NaN/Inf aborts the run immediately.  A
    copy made by pickle or deepcopy goes through the constructor too.
    """

    grid: Grid
    values: np.ndarray
    side: str = SPACE

    def __post_init__(self) -> None:
        if self.side not in (SPACE, FREQUENCY):
            raise ValueError(f"side must be 'space' or 'frequency', got {self.side!r}")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"field has {vals.shape} samples, grid expects ({self.grid.n},)"
            )
        if not np.all(np.isfinite(vals)):
            raise SimulationAbort("non-finite samples in field")
        object.__setattr__(self, "values", _frozen(vals, self.values))

    def __reduce__(self):
        return _unpickled, (type(self), self.grid, self.values, self.side)

    @property
    def spacing(self) -> float:
        """Quadrature weight of this side: dx in space, dxi in frequency."""
        return self.grid.dx if self.side == SPACE else self.grid.dxi


def _frozen(vals: np.ndarray, given) -> np.ndarray:
    """`vals` made read-only, copied first if it is `given`, an array its caller may still write."""
    vals = vals.copy() if vals is given and vals.flags.writeable else vals
    vals.flags.writeable = False
    return vals


def _unpickled(cls, *args):
    """`cls(*args)` from the arguments pickle or deepcopy made, each array the copy's own and so frozen uncopied."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            arg.flags.writeable = False
    return cls(*args)


def _require_side(f: ComplexField, side: str, op: str) -> None:
    if f.side != side:
        raise ValueError(f"{op} expects a {side}-side field, got {f.side}")


def forward_ft(f: ComplexField) -> ComplexField:
    """Unitary Fourier transform, space -> frequency (ascending xi order).

    With x_k = -L/2 + k*dx and xi_m = 2*pi*m/L, the Riemann sum of the
    defining integral reduces to

        fhat(xi_m) = dx/sqrt(2*pi) * (-1)^m * FFT[f]_m,

    the (-1)^m phase accounting for the -L/2 grid offset.
    """
    _require_side(f, SPACE, "forward_ft")
    return ComplexField(f.grid, _back_propagated_ft(f.grid, np.fft.fft(f.values)), FREQUENCY)


def _back_propagated_ft(grid: Grid, spec: np.ndarray, t: float = 0.0) -> np.ndarray:
    """FT U(-t) of space-side rows, ascending xi, from their unnormalized FFT.

    U(-t) is the multiplier exp(+i*t*xi^2/2) on the FFT, so no inverse
    transform is taken:

        FT U(-t) f = dx/sqrt(2*pi) * (-1)^m * fftshift(exp(+i*t*xi^2/2) * FFT[f]).

    At t = 0 the multiplier is skipped and this is `forward_ft`.  `spec` is
    in FFT order along its last axis, so the rows of a stacked (k, n) FFT
    are handled together; it is left unchanged.
    """
    back = spec if t == 0.0 else spec * _free_multiplier(grid, -t)
    shifted = np.fft.fftshift(back, axes=-1)
    del back  # the product is a full-size temporary; free it before scaling
    shifted *= (grid.dx / np.sqrt(2.0 * np.pi)) * grid._centering_signs
    return shifted


def inverse_ft(f: ComplexField) -> ComplexField:
    """Inverse of forward_ft; exact round trip up to FFT round-off."""
    _require_side(f, FREQUENCY, "inverse_ft")
    g = f.grid
    vals = np.fft.ifft(np.fft.ifftshift(g._centering_signs * f.values)) * (
        np.sqrt(2.0 * np.pi) / g.dx
    )
    return ComplexField(g, vals, SPACE)


def free_propagate(f: ComplexField, t: float) -> ComplexField:
    """Apply U(t) = exp(i*(t/2)*d^2/dx^2) to a space-side field.

    Diagonal in frequency: multiplication by exp(-i*t*xi^2/2).  Preserves
    the l2 norm for any real t and satisfies U(s)U(t) = U(s+t).
    """
    _require_side(f, SPACE, "free_propagate")
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    g = f.grid
    vals = np.fft.ifft(_free_multiplier(g, t) * np.fft.fft(f.values))
    return ComplexField(g, vals, SPACE)


def _free_multiplier(grid: Grid, t: float) -> np.ndarray:
    """The multiplier exp(-i*t*xi^2/2) of U(t), in FFT order.

    In FFT order the frequency at index n - k is minus the one at index k,
    exactly, so xi^2 and the multiplier are symmetric: the exp is taken on
    indices 0 .. n/2 only and mirrored into n/2+1 .. n-1.  The result is
    bitwise the full-length exp, at about half its cost.
    """
    half = grid.n // 2
    out = np.empty(grid.n, dtype=np.complex128)
    np.exp(-0.5j * t * grid._frequencies_fft_order[: half + 1] ** 2, out=out[: half + 1])
    out[half + 1:] = out[half - 1:0:-1]
    return out


def _abs2(values: np.ndarray) -> np.ndarray:
    """Squared moduli |v|^2 = re^2 + im^2, in two allocations and no sqrt."""
    a = values.real * values.real
    a += values.imag * values.imag
    return a


def _squared_norms(values: np.ndarray, spacing: float) -> np.ndarray:
    """Discrete squared L2 norms sum |v|^2 * spacing along the last axis."""
    # einsum over the float view, not a BLAS dot: threaded BLAS spins a second core for no gain
    flat = np.ascontiguousarray(values).view(np.float64)
    return np.einsum("...j,...j->...", flat, flat) * spacing


def _field_pair(grid: Grid, rows: np.ndarray, side: str) -> tuple[ComplexField, ComplexField]:
    """Freeze a fresh (2, n) array and wrap its rows as two fields sharing it uncopied."""
    rows.flags.writeable = False
    return ComplexField(grid, rows[0], side), ComplexField(grid, rows[1], side)


def l2_norm(f: ComplexField) -> float:
    """Discrete L2 norm sqrt(sum |f|^2 * spacing), side-aware."""
    return float(np.sqrt(_squared_norms(f.values, f.spacing)))


def sup_norm(f: ComplexField) -> float:
    """Max modulus over the grid."""
    return float(np.max(np.abs(f.values)))


def j_norm(f: ComplexField, t: float) -> float:
    """L2 norm of the Galilean vector field (x + i*t*d/dx) applied to f.

    Uses the conjugation identity U(t) x U(-t) = x + i*t*d/dx; the final
    U(t) is dropped because it does not change the norm.  At t = 0 this is
    just the norm of x*f.
    """
    _require_side(f, SPACE, "j_norm")
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return float(_j_norms(f.grid, f.values, t))


def _j_norms(grid: Grid, values: np.ndarray, t: float) -> np.ndarray:
    """`j_norm` ||x U(-t) u|| of each row of space-side values, from one transform pair."""
    if t != 0.0:
        values = np.fft.ifft(np.fft.fft(values) * _free_multiplier(grid, -t))
    return np.sqrt(_squared_norms(values * grid.points, grid.dx))


def gaussian_profile(
    grid: Grid,
    amplitude: complex = 1.0,
    width: float = 1.0,
    center: float = 0.0,
    wavenumber: float = 0.0,
) -> ComplexField:
    """Modulated Gaussian A * exp(-(x-c)^2/(2 w^2)) * exp(i k x)."""
    if not (np.isfinite(width) and width > 0):
        raise ValueError(f"width must be positive, got {width}")
    x = grid.points
    vals = amplitude * np.exp(-((x - center) ** 2) / (2.0 * width**2)) * np.exp(
        1j * wavenumber * x
    )
    return ComplexField(grid, vals, SPACE)


def zero_field(grid: Grid) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.n, dtype=np.complex128), SPACE)
