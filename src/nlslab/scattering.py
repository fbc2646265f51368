"""Scattering-side observables of the coupled dissipative system.

The modified amplitude of a component is the Fourier transform of the
back-propagated solution,

    alpha_j(t, xi) = FT[ U(-t) u_j(t, .) ](xi),

which is constant in t for free motion and converges, as t grows, to the
Fourier transform of the component's scattering state.  U(-t) is the
diagonal frequency multiplier exp(+i t xi^2 / 2), so alpha_j is computed in
closed form as that multiplier applied to the FFT of u_j, followed by the
centering phase and scale it shares with `forward_ft`
(`spectral._back_propagated_ft`): no inverse transform and no propagated
space-side field.  The integrand rho needs the transforms of the pair and
of its two nonlinearities, and no multiplier.  Both come from one stacked
FFT call per snapshot (`_spectra`): of u1 and u2 alone for the amplitudes,
and of u1, u2, N1 and N2 where rho is wanted too, whose first two rows then
give the amplitudes.  Rows of a stacked FFT are bitwise the rows
transformed alone, so the amplitudes do not depend on which call made them.

The central object is the per-frequency sign profile

    m(xi) = |alpha_1(2, xi)|^2 - |alpha_2(2, xi)|^2 + integral_2^T rho dt,

whose sign decides which component survives at that frequency.  Two
independent routes compute it:

* the anchored route (`m_integral`): time-2 anchor plus a trapezoid of the
  integrand rho over the snapshot ladder from the anchor on;
* the endpoint route (`m_endpoint`): because d alpha_j/dt = -FT U(-t) N_j(u)
  makes rho exactly the time derivative of |alpha_1|^2 - |alpha_2|^2, the
  integral telescopes and m is just the endpoint difference
  |alpha_1(T)|^2 - |alpha_2(T)|^2.  The amplitudes at T are the finite-T
  stand-in for the scattering pair.

Their disagreement is pure quadrature error and is used as the realized
error scale when thresholding the sign classification.

In rho's defining combination (see `rho`) the 1/t model terms add
(2/t) |alpha_1|^2 |alpha_2|^2 once with each sign, and in each remaining
product conj(alpha_j) FT U(-t) N_j the unimodular multiplier
exp(+i t xi^2 / 2) and centering sign enter once conjugated and once not.
Both cancel, so rho is a closed form in the state alone: no amplitudes, no
multiplier and no 1/t.

The anchored route is a running time integral, so it is computed in one
pass: each snapshot's rho row is folded into running reductions and
dropped (`_RhoFold`): the trapezoid, the per-snapshot max |rho| and the
last row for the tail fit.  `integrate_rho_window` and
`tail_bound_constants` use that fold directly.  The anchored route's one
snapshot loop is `_AnchoredPass`: it transforms each snapshot once, reads
its amplitudes and, from the anchor on, its rho off that one transform,
keeps the amplitudes at the anchor and at T, for the lemma defect and the
endpoint route, and records each snapshot's masses, alpha2 norm and
orthogonality defect.  `m_integral` drives it from the anchor on and
`run_case` over every snapshot, as the sink it hands `forking.side`.
So the analysis holds O(n) memory whatever the snapshot count, and the
fold reproduces the stacked np.trapezoid bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .spectral import (
    FREQUENCY,
    ComplexField,
    Grid,
    SimulationAbort,
    _abs2,
    _back_propagated_ft,
    _field_pair,
    _frozen,
    _unpickled,
    l2_norm,
)
from .dynamics import T_ANCHOR, TIME_TOL, SystemState, mass

__all__ = [
    "SpectralSnapshot",
    "MProfile",
    "modified_amplitudes",
    "rho",
    "m_integral",
    "m_endpoint",
    "orthogonality_defect",
    "classify",
    "integrate_rho_window",
    "FIRST_SURVIVES",
    "SECOND_SURVIVES",
    "BOTH_VANISH",
    "TAG_NAMES",
]

FIRST_SURVIVES = 1
BOTH_VANISH = 0
SECOND_SURVIVES = -1
TAG_NAMES = {
    FIRST_SURVIVES: "first-survives",
    BOTH_VANISH: "both-vanish",
    SECOND_SURVIVES: "second-survives",
}


@dataclass(frozen=True)
class SpectralSnapshot:
    """Time t plus the pair of modified amplitudes on the frequency grid."""

    t: float
    alpha1: ComplexField
    alpha2: ComplexField

    def __post_init__(self) -> None:
        if self.t < 0 or not np.isfinite(self.t):
            raise ValueError(f"snapshot time must be finite and >= 0, got {self.t}")
        if self.alpha1.grid != self.alpha2.grid:
            raise ValueError("amplitudes must share a grid")
        if self.alpha1.side != FREQUENCY or self.alpha2.side != FREQUENCY:
            raise ValueError("spectral snapshots hold frequency-side fields")

    @property
    def grid(self) -> Grid:
        return self.alpha1.grid


@dataclass(frozen=True)
class MProfile:
    """Sign profile m sampled on the frequency grid.

    Profiles from both routes on the same grid are elementwise comparable.
    The integral route attaches a per-frequency estimate of the neglected
    tail beyond t_final.
    """

    grid: Grid
    m_values: np.ndarray
    t_final: float
    tail_estimate: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.m_values, dtype=np.float64)
        if vals.shape != (self.grid.n,):
            raise ValueError("profile length must match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite values in sign profile")
        object.__setattr__(self, "m_values", _frozen(vals, self.m_values))
        if self.tail_estimate is not None:
            tail = np.asarray(self.tail_estimate, dtype=np.float64)
            object.__setattr__(self, "tail_estimate", _frozen(tail, self.tail_estimate))

    def __reduce__(self):
        return _unpickled, (type(self), self.grid, self.m_values, self.t_final, self.tail_estimate)


def _spectra(state: SystemState, with_nonlinearity: bool = False) -> np.ndarray:
    """Unnormalized FFT rows of the state, in one stacked call.

    The rows are u1 and u2, followed with_nonlinearity by N1 = |u2|^2 u1
    and N2 = |u1|^2 u2; `_amplitudes` reads the first two and `_rho_row` all
    four.  A non-finite nonlinearity aborts, naming the state's time.
    """
    rows = np.empty((4 if with_nonlinearity else 2, state.grid.n), dtype=np.complex128)
    rows[0] = state.u1.values
    rows[1] = state.u2.values
    if with_nonlinearity:
        np.multiply(rows[:2], _abs2(rows[1::-1]), out=rows[2:])
        if not np.all(np.isfinite(rows[2:])):
            raise SimulationAbort(f"non-finite nonlinearity in rho at t = {state.t}")
    return np.fft.fft(rows, out=rows)


def _amplitudes(grid: Grid, t: float, spec: np.ndarray) -> SpectralSnapshot:
    """The modified amplitudes at time t from the (2, n) FFT rows of u1 and u2, left unchanged."""
    alpha = _back_propagated_ft(grid, spec, t)
    try:
        return SpectralSnapshot(t, *_field_pair(grid, alpha, FREQUENCY))
    except SimulationAbort as err:
        raise SimulationAbort(f"non-finite modified amplitudes at t = {t}") from err


def _rho_row(grid: Grid, t: float, spec: np.ndarray) -> np.ndarray:
    """rho at time t from the (4, n) FFT rows of u1, u2, N1 and N2 (see `rho`)."""
    f1, f2, n1, n2 = spec
    vals = np.fft.fftshift((np.conj(f2) * n2 - np.conj(f1) * n1).real)
    vals *= grid.dx**2 / np.pi
    if not np.all(np.isfinite(vals)):
        raise SimulationAbort(f"non-finite rho at t = {t}")
    return vals


def modified_amplitudes(state: SystemState) -> SpectralSnapshot:
    """Both components' modified amplitudes alpha_j(t) = FT[U(-t) u_j(t)].

    One stacked FFT call for the pair, then the closed-form back-propagation
    multiplier; components are transformed independently, so swapping u1
    and u2 swaps alpha1 and alpha2 bitwise.  Non-finite amplitudes abort,
    naming the state's time.
    """
    return _amplitudes(state.grid, state.t, _spectra(state))


def rho(state: SystemState) -> np.ndarray:
    """Integrand of the sign profile's tail on the frequency grid, from one state.

    rho = 2 Re[ conj(alpha_1) R_1 - conj(alpha_2) R_2 ], the rate of change
    of |alpha_1|^2 - |alpha_2|^2, where R_j compares the back-propagated
    true nonlinearity with its resonant 1/t model:

        R_1 = (1/t) |alpha_2|^2 alpha_1 - FT U(-t)[ |u2|^2 u1 ],

    and symmetrically for R_2.  The model terms and the multiplier cancel
    (see the module docstring), so one stacked (4, n) FFT call F gives

        rho = (dx^2/pi) fftshift Re[ conj(F u2) F N2 - conj(F u1) F N1 ],

    N1 = |u2|^2 u1 and N2 = |u1|^2 u2.  Swapping the components negates the
    float64 row bitwise.  A non-finite nonlinearity or sample aborts the
    run, naming the state's time.
    """
    if state.t <= 0:
        raise ValueError("rho requires t > 0 (its resonant model is defined for t > 0 only)")
    return _rho_row(state.grid, state.t, _spectra(state, with_nonlinearity=True))


def _endpoint_difference(snap: SpectralSnapshot) -> np.ndarray:
    return _abs2(snap.alpha1.values) - _abs2(snap.alpha2.values)


def _fit_tail_exponent(times: np.ndarray, amplitudes: np.ndarray) -> float:
    """Least-squares decay exponent p of amplitude ~ t^-p over the samples."""
    good = amplitudes > 0
    if np.count_nonzero(good) < 2:
        return 1.05
    logt = np.log(times[good])
    loga = np.log(amplitudes[good])
    slope = np.polyfit(logt, loga, 1)[0]
    # a non-decaying fit would make the extrapolated tail meaningless;
    # clamp to a slowly-decaying, conservative exponent
    return max(-slope, 1.05)


class _RhoFold:
    """Running reductions of rho rows fed in snapshot order.

    `add` folds one row into the trapezoid `integral`, its max |rho| into
    `peaks` and itself into `last`; the caller then drops the row, so the
    memory held does not grow with the snapshot count.  The trapezoid adds
    the terms (t_i - t_{i-1}) * (rho_i + rho_{i-1}) / 2.0 in order onto
    zeros, as numpy's axis-0 sum does, which reproduces
    np.trapezoid(rows, times, axis=0) bitwise, signed zeros included.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.peaks: list[float] = []
        self.last: np.ndarray | None = None
        self.integral: np.ndarray | None = None

    def add(self, t: float, row: np.ndarray) -> None:
        if self.last is None:
            self.integral = np.zeros_like(row)
        else:
            self.integral += (t - self.times[-1]) * (row + self.last) / 2.0
        self.times.append(t)
        self.peaks.append(float(np.max(np.abs(row))))
        self.last = row

    def tail_estimate(self) -> np.ndarray:
        """Per-frequency tail beyond the last time, from |rho| ~ t^-p fitted on its last decade."""
        times = np.array(self.times)
        t_final = times[-1]
        decade = times >= t_final / 10.0
        p = _fit_tail_exponent(times[decade], np.array(self.peaks)[decade])
        return np.abs(self.last) * t_final / (p - 1.0)


def _anchor_index(times) -> int:
    """Index of the snapshot time at the t = 2 anchor; raises if there is none."""
    gap = np.abs(np.asarray(times, dtype=np.float64) - T_ANCHOR)
    nearest = float(np.min(gap, initial=np.inf))
    if not nearest <= TIME_TOL:
        raise ValueError(f"no snapshot at the t = 2 anchor (the nearest is {nearest:g} away)")
    return int(np.argmin(gap))


class _AnchoredPass:
    """The anchored route's one pass over a snapshot ladder, with four monitors per snapshot.

    Built from the ladder's times, ascending and with at least 3 snapshots
    from the t = 2 anchor on; it rejects any other ladder before anything is
    computed.  `add` takes the snapshots in order.  Each one costs one
    stacked FFT call (`_spectra`): of u1 and u2 before the anchor, and of
    u1, u2, N1 and N2 from it on.  `add` reads the modified amplitudes off
    the first two rows, folds rho, read off all four rows as in `rho`, into
    a `_RhoFold`, keeps the amplitudes at the anchor and at the last
    snapshot, and fills the snapshot's column of `monitors`: both masses,
    the alpha2 norm and the orthogonality defect.  `profile` is the route's
    `MProfile`.  Its rho and amplitudes are bitwise those of `rho` and
    `modified_amplitudes`.  The snapshots' times must be the ones the pass
    was built from.  The pass is a `forking` sink and its own result, which
    a helper pickles back whole.
    """

    def __init__(self, times) -> None:
        times = np.asarray(times, dtype=np.float64)
        if np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be strictly ascending")
        first = _anchor_index(times)
        if len(times) - first < 3:
            raise ValueError("integral route needs at least 3 snapshots from the anchor on")
        self.t_anchor = times[first]
        self.fold = _RhoFold()
        self.anchor: SpectralSnapshot | None = None
        self.last: SpectralSnapshot | None = None
        self.monitors = np.empty((4, len(times)))
        self.added = 0

    def add(self, state: SystemState) -> None:
        anchored = state.t >= self.t_anchor
        spec = _spectra(state, with_nonlinearity=anchored)
        snap = _amplitudes(state.grid, state.t, spec[:2])
        if anchored:
            if self.anchor is None:
                self.anchor = snap
            self.fold.add(state.t, _rho_row(state.grid, state.t, spec))
        self.last = snap
        self.monitors[:, self.added] = mass(state.u1), mass(state.u2), l2_norm(snap.alpha2), orthogonality_defect(snap)
        self.added += 1

    def result(self):
        return self, ()

    def profile(self) -> MProfile:
        """The anchor's endpoint difference plus the fold's trapezoid, with its tail estimate."""
        m_vals = _endpoint_difference(self.anchor) + self.fold.integral
        return MProfile(self.anchor.grid, m_vals, self.fold.times[-1], self.fold.tail_estimate())


def m_integral(states: list[SystemState]) -> MProfile:
    """Anchored route: time-2 endpoint difference plus a trapezoid of rho.

    Expects system snapshots in ascending time, one of them at the anchor
    t = 2 and the last at the truncation time T; earlier snapshots are
    skipped, before the pass is built, so none of them is transformed.
    One pass from the anchor on (`_AnchoredPass`, the pass `run_case`
    makes over every snapshot) computes each snapshot's amplitudes and rho
    from one transform call and folds them into running reductions, so no
    (k, n) stack of rows is held.  The neglected tail beyond T is estimated
    per frequency by extrapolating |rho| ~ t^-p, with p fitted to the
    per-snapshot max |rho| on the last decade of snapshot times, and
    attached to the returned profile.
    """
    times = [s.t for s in states]
    first = _anchor_index(times)
    run = _AnchoredPass(times[first:])
    for state in states[first:]:
        run.add(state)
    return run.profile()


def m_endpoint(final_snapshot: SpectralSnapshot) -> MProfile:
    """Telescoped route: endpoint difference |alpha_1(T)|^2 - |alpha_2(T)|^2."""
    if final_snapshot.t < T_ANCHOR - TIME_TOL:
        raise ValueError("endpoint route needs T >= 2")
    return MProfile(final_snapshot.grid, _endpoint_difference(final_snapshot), final_snapshot.t)


def _window_integrals(states: list[SystemState], windows) -> list[np.ndarray]:
    """Trapezoid of rho over the snapshots with t in each [t_lo, t_hi] window.

    One pass: rho is computed once per snapshot that lies in any window and
    folded into every window holding it, so windows sharing an endpoint
    share its row.
    """
    inside = [[lo - TIME_TOL <= s.t <= hi + TIME_TOL for lo, hi in windows] for s in states]
    for j, (lo, hi) in enumerate(windows):
        if sum(member[j] for member in inside) < 2:
            raise ValueError(f"need at least 2 snapshots in [{lo}, {hi}]")
    folds = [_RhoFold() for _ in windows]
    for s, member in zip(states, inside):
        if any(member):
            row = rho(s)
            for fold in compress(folds, member):
                fold.add(s.t, row)
    return [fold.integral for fold in folds]


def integrate_rho_window(states: list[SystemState], t_lo: float, t_hi: float) -> np.ndarray:
    """Trapezoid of rho over the snapshots with t in [t_lo, t_hi], per frequency."""
    return _window_integrals(states, ((t_lo, t_hi),))[0]


def orthogonality_defect(snapshot: SpectralSnapshot) -> float:
    """Finite-time size of the pointwise product relation: max |alpha1*alpha2|."""
    return float(np.max(np.abs(snapshot.alpha1.values * snapshot.alpha2.values)))


def classify(profile: MProfile, threshold: float) -> np.ndarray:
    """Per-frequency trichotomy: +1 / -1 / 0 for m > tau, m < -tau, |m| <= tau."""
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError(f"classification threshold must be positive, got {threshold}")
    tags = np.zeros(profile.grid.n, dtype=np.int8)
    tags[profile.m_values > threshold] = FIRST_SURVIVES
    tags[profile.m_values < -threshold] = SECOND_SURVIVES
    return tags
