"""Split-step time integration of the dissipatively coupled cubic system

    i du1/dt + (1/2) d^2u1/dx^2 = -i |u2|^2 u1,
    i du2/dt + (1/2) d^2u2/dx^2 = -i |u1|^2 u2.

Each step composes an exact free half-step, an exact pointwise solve of the
coupled decay ODE, and another free half-step (Strang, second order).  Both
substeps are exact, so the only error is the splitting commutator, and two
structural facts of the continuous flow survive discretization exactly:

* pointwise conservation of |u1|^2 - |u2|^2 through the nonlinear substep,
* per-component mass monotonicity (the coupling only ever removes mass,
  at the pointwise rate d|u1|^2/dt = d|u2|^2/dt = -2 |u1|^2 |u2|^2).

The decay solve is one branch-free closed form, valid from exact ties to
widely separated moduli and over the whole float64 range.  `evolve` is a
single loop over the stacked (2, n) pair: one FFT call per direction moves
both components, two transforms per step without an observer and three
with one.  An observer never changes the run: it reads each step's
boundary state from a copy, and the snapshots are bitwise the same with or
without it.  `Schedule` computes the step plan once; `evolve` runs it,
`count_steps` sums it, and `strang_step` is `evolve` over one step.

Solutions disperse along rays x = t xi, so a box need only be as large as
the config's at the end of a run.  `evolve` steps each snapshot interval
on the smallest centred power-of-two crop of the config grid, at the
config's dx, that holds the pair over that interval, by a rule measured
from the interval's start state (`_box_n`); it grows the crop as the
solution spreads, and hands out every state zero-padded to the config
grid.  A run whose box starts at the config grid takes the config grid's
operations throughout.

Multiplying each equation by its conjugate and integrating gives the mass
ledger d/dt (M1 + M2) = -4 * integral |u1|^2 |u2|^2 dx, which `evolve`
monitors; a mass increase beyond round-off or any non-finite sample aborts
the run, naming the step and time.  On a crop it also monitors the mass
near the box's edges, so a box rule that lets the solution outgrow its
crop aborts the run, naming the box as well.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    SPACE,
    ComplexField,
    Grid,
    RegimeWarning,
    SimulationAbort,
    _abs2,
    _field_pair,
    _free_multiplier,
    _j_norms,
    _squared_norms,
)

__all__ = [
    "SystemState",
    "Schedule",
    "make_schedule",
    "count_steps",
    "nonlinear_substep",
    "strang_step",
    "evolve",
    "mass",
    "dissipation_rate",
    "TrajectoryRecorder",
]

_TINY = np.finfo(np.float64).tiny

# The sign profile's anchor time, where the snapshot ladder starts, and the
# tolerance within which two snapshot times are the same time.
T_ANCHOR = 2.0
TIME_TOL = 1e-9

# The default time plan.  Solutions decay like 1/sqrt(t), so the coupling
# weakens like 1/t and the step may grow in proportion to t; growth starts
# at the anchor, and the interval [0, T_ANCHOR] runs at the base step.  On
# that interval both substeps are exact and only the O(dt^2) splitting
# commutator is left: against a 0.0025 step, 0.02 moves m by at most a few
# percent of the relative classification floor 1e-6 eps^2.
DEFAULT_DT = 0.02
DEFAULT_GROW_AFTER = T_ANCHOR
DEFAULT_GROWTH_CAP = 0.05
DEFAULT_T_FINAL = 400.0
DEFAULT_SNAPSHOT_RATIO = 2.0**0.25

# The box rule.  A sample or mode counts toward a reach while its modulus
# exceeds BOX_CUT of its row's peak; a crop's half-width must exceed
# BOX_MARGIN times the reach over an interval plus BOX_PAD_CELLS cells; no
# crop is smaller than BOX_MIN_N points.  On a crop, the mass in the outer
# eighth of the box at each end may not pass EDGE_BOUND of the pair's.
BOX_CUT = 1e-13
BOX_MARGIN = 4.0 / 3.0
BOX_PAD_CELLS = 8
BOX_MIN_N = 64
EDGE_BOUND = 1e-20


@dataclass(frozen=True)
class SystemState:
    """Time t plus the component pair (u1, u2) in space representation."""

    t: float
    u1: ComplexField
    u2: ComplexField

    def __post_init__(self) -> None:
        if not np.isfinite(self.t) or self.t < 0:
            raise ValueError(f"state time must be finite and >= 0, got {self.t}")
        if self.u1.grid != self.u2.grid:
            raise ValueError("u1 and u2 must share a grid")
        if self.u1.side != SPACE or self.u2.side != SPACE:
            raise ValueError("system states hold space-side fields")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    def stacked(self) -> np.ndarray:
        """The pair as a new (2, n) array, rows u1 and u2; the caller may overwrite it."""
        return np.stack([self.u1.values, self.u2.values])


def _check_dt(dt: float) -> None:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")


@dataclass(frozen=True)
class Schedule:
    """The time plan of a run: base step, snapshot times and step growth.

    Snapshot times are stored as integer multiples of dt so lattice
    membership is exact, and the run ends at the last one, `t_final`.  Past
    `grow_after` the integrator may take larger steps, capped at
    `growth_cap * t`, subdividing each inter-snapshot interval uniformly;
    before it the base dt is used unchanged.  `plan` holds the steps this
    implies; `evolve` runs it and `count_steps` sums it.
    """

    dt: float
    snapshot_steps: tuple[int, ...]
    grow_after: float = DEFAULT_GROW_AFTER
    growth_cap: float = DEFAULT_GROWTH_CAP

    def __post_init__(self) -> None:
        _check_dt(self.dt)
        ks = self.snapshot_steps
        if not all(isinstance(k, numbers.Integral) for k in ks):
            raise ValueError(f"snapshot steps must be integers, got {ks}")
        if len(ks) == 0 or ks[0] != 0:
            raise ValueError("snapshot steps must start at 0")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("snapshot steps must be strictly ascending")
        if not (self.grow_after >= 0 and 0 < self.growth_cap <= 1):
            raise ValueError("invalid step-growth policy")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.asarray(self.snapshot_steps, dtype=np.float64)

    @property
    def t_final(self) -> float:
        """End time of the run: the last snapshot time."""
        return self.dt * self.snapshot_steps[-1]

    @cached_property
    def plan(self) -> tuple[tuple[float, float, int, float], ...]:
        """(t_a, t_b, number of steps, step size) for each inter-snapshot interval."""
        intervals = []
        ks = self.snapshot_steps
        for k_a, k_b in zip(ks, ks[1:]):
            t_a = k_a * self.dt
            t_b = k_b * self.dt
            if t_a < self.grow_after:
                nsteps, h = k_b - k_a, self.dt
            else:
                # grown steps never shrink below the base dt
                target = max(self.growth_cap * t_a, self.dt)
                nsteps = max(1, math.ceil((t_b - t_a) / target - 1e-12))
                h = (t_b - t_a) / nsteps
            intervals.append((t_a, t_b, nsteps, h))
        return tuple(intervals)


def make_schedule(
    dt: float = DEFAULT_DT,
    t_final: float = DEFAULT_T_FINAL,
    snapshot_ratio: float = DEFAULT_SNAPSHOT_RATIO,
    grow_after: float = DEFAULT_GROW_AFTER,
    growth_cap: float = DEFAULT_GROWTH_CAP,
    extra_times: tuple[float, ...] = (),
) -> Schedule:
    """Default snapshot plan: {0, 2} plus a geometric ladder from 2 to t_final.

    The time-2 snapshot anchors the sign-profile construction, so it is
    always included when t_final allows.  t_final must be a whole number of
    dt steps, and the ladder may hold no more rungs than the run has steps;
    the other requested times are rounded to the dt lattice and
    deduplicated.
    """
    if not (np.isfinite(snapshot_ratio) and snapshot_ratio > 1):
        raise ValueError(f"snapshot ratio must exceed 1, got {snapshot_ratio}")
    _check_dt(dt)
    if not np.isfinite(t_final) or t_final < 0:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final = {t_final:g} over dt = {dt:g} overflows the step count")
    nsteps = round(t_final / dt)
    reached = nsteps * dt
    if abs(reached - t_final) > TIME_TOL * max(1.0, t_final):
        raise ValueError(
            f"t_final = {t_final:g} is not a whole number of dt = {dt:g} steps; "
            f"the run would end at t = {reached:g}"
        )
    wanted = [0.0]
    if t_final >= T_ANCHOR:
        rungs = math.log(t_final / T_ANCHOR) / math.log(snapshot_ratio)
        if rungs > nsteps:
            raise ValueError(
                f"snapshot ratio {snapshot_ratio!r} gives a ladder of {rungs:.3g} rungs, "
                f"more than the run's {nsteps} dt steps"
            )
        t = T_ANCHOR
        while t < t_final:
            wanted.append(t)
            t *= snapshot_ratio
    wanted.append(t_final)
    wanted.extend(float(t) for t in extra_times)
    steps = sorted({int(round(t / dt)) for t in wanted if 0.0 <= t <= t_final + 0.5 * dt})
    return Schedule(dt, tuple(steps), grow_after, growth_cap)


def _decay_factors(a, b, dt: float):
    """Squared-modulus update of the pointwise decay ODE a' = b' = -2ab.

    The difference c = big - small is conserved.  With z = 2 c dt and
    phi(z) = -expm1(-z)/z (phi(0) = 1) the logistic solution takes the
    scale-free form

        big(dt)   = big * r,   small(dt) = small * exp(-z) * r,
        r = 1 / (1 + 2 small dt phi(z)).

    One formula covers every regime, exact and near ties included, so there
    is no threshold switch.  No product of two squared moduli is formed, so
    nothing underflows at small magnitudes; both ratios are <= 1 by
    construction; and because both share r, its rounding moves
    big(dt) - small(dt) by only c times an ulp.  Each lane's factor
    exp(-z) or exactly 1 comes from its own signed difference, which makes
    component swap an exact (bitwise) symmetry and gives a component with a
    vanishing partner a ratio of exactly 1.  Returns the pair of multiplier
    ratios (a(dt)/a, b(dt)/b).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = np.subtract(a, b)
    d *= 2.0 * dt  # +z where a is the larger, -z where it is the smaller
    ratio_a = np.minimum(d, 0.0)
    np.exp(ratio_a, out=ratio_a)
    w = np.abs(d)
    np.negative(w, out=w)  # w = -z
    ratio_b = np.maximum(d, 0.0, out=d)
    np.negative(ratio_b, out=ratio_b)
    np.exp(ratio_b, out=ratio_b)
    # below the smallest normal float phi rounds to 1, so clamping -z there
    # gives phi(0) = 1 without a branch
    np.minimum(w, -_TINY, out=w)
    r = np.expm1(w)
    r /= w
    r *= np.minimum(a, b, out=w)
    r *= 2.0 * dt
    r += 1.0
    np.reciprocal(r, out=r)
    ratio_a *= r
    ratio_b *= r
    return ratio_a, ratio_b


def nonlinear_substep(u1_val, u2_val, dt: float, out=None):
    """Exact pointwise flow of du1/dt = -|u2|^2 u1, du2/dt = -|u1|^2 u2.

    Accepts scalars or arrays elementwise.  Moduli never grow, phases are
    untouched (the decay coefficients are real), |u1|^2 - |u2|^2 is
    conserved to a few ulps of the larger squared modulus at any magnitude,
    and a vanishing partner leaves a component bitwise unchanged.  `out`, a
    pair of complex128 arrays, receives the results in place and may be the
    inputs themselves; `evolve` steps its work buffer that way.  A
    non-finite squared modulus aborts.
    """
    _check_dt(dt)
    u1 = np.asarray(u1_val, dtype=np.complex128)
    u2 = np.asarray(u2_val, dtype=np.complex128)
    a = np.atleast_1d(_abs2(u1))
    b = np.atleast_1d(_abs2(u2))
    if not (np.isfinite(a.max()) and np.isfinite(b.max())):
        raise SimulationAbort("non-finite squared modulus in nonlinear substep")
    ra, rb = _decay_factors(a, b, dt)
    np.sqrt(ra, out=ra)
    np.sqrt(rb, out=rb)
    if out is None:
        if u1.ndim == 0:
            return complex(u1 * ra[0]), complex(u2 * rb[0])
        return u1 * ra, u2 * rb
    np.multiply(u1, ra, out=out[0])
    np.multiply(u2, rb, out=out[1])
    return out[0], out[1]


def strang_step(state: SystemState, dt: float) -> SystemState:
    """One half-free / full-nonlinear / half-free composition step of size dt.

    The flow is autonomous, so this is `evolve` over one step from t = 0,
    restamped at state.t + dt, with its overflow check and mass guard.  An
    abort also names the step's absolute start and end times.
    """
    try:
        end = evolve(SystemState(0.0, state.u1, state.u2), Schedule(dt, (0, 1)))[-1]
    except SimulationAbort as err:
        raise SimulationAbort(f"{err}; in strang_step from t = {state.t} to t = {state.t + dt}") from err
    return SystemState(state.t + dt, end.u1, end.u2)


def mass(f: ComplexField) -> float:
    """Squared L2 norm."""
    return float(_squared_norms(f.values, f.spacing))


def dissipation_rate(state: SystemState) -> float:
    """Instantaneous total-mass loss rate 4 * sum |u1|^2 |u2|^2 dx."""
    return _dissipation_rate(_abs2(state.stacked()), state.grid.dx)


def _dissipation_rate(squared: np.ndarray, dx: float) -> float:
    """`dissipation_rate` from the (2, n) squared moduli of the pair."""
    return float(4.0 * np.sum(squared[0] * squared[1]) * dx)


class TrajectoryRecorder:
    """Per-step observer collecting (t, mass1, mass2, sup, J-norms, rate).

    Each call stacks the pair once and reads every column off that copy:
    both masses from one norm call, sup from one pass over the moduli and
    the rate from the squared moduli.  The values are bitwise those of
    `mass`, `sup_norm`, `j_norm` and `dissipation_rate`.  The J-norm
    columns cost one extra stacked transform pair per step; disable them
    for long runs that only need the mass ledger.  A column that overflows
    float64 is recorded as inf, and the first time each column does so a
    `RegimeWarning` names it and the time.
    """

    def __init__(self, with_j_norm: bool = True):
        self.with_j_norm = with_j_norm
        self.header = ["t", "mass1", "mass2", "sup_norm"]
        if with_j_norm:
            self.header += ["j_norm1", "j_norm2"]
        self.header.append("dissipation_rate")
        self.rows: list[tuple[float, ...]] = []
        self._overflowed: set[str] = set()

    def __call__(self, state: SystemState) -> None:
        g = state.grid
        u = state.stacked()
        with np.errstate(over="ignore"):
            row = [state.t, *_squared_norms(u, g.dx).tolist(), float(np.abs(u).max())]
            if self.with_j_norm:
                row += _j_norms(g, u, state.t).tolist()
            row.append(_dissipation_rate(_abs2(u), g.dx))
        if not all(map(math.isfinite, row)):
            self._warn_overflow(state.t, row)
        self.rows.append(tuple(row))

    def _warn_overflow(self, t: float, row: list[float]) -> None:
        new = [name for name, v in zip(self.header, row) if not math.isfinite(v) and name not in self._overflowed]
        if new:
            self._overflowed.update(new)
            warnings.warn(
                f"recorder column{'s' if len(new) > 1 else ''} {', '.join(new)} overflowed "
                f"float64 at t = {t}; recorded as inf",
                RegimeWarning,
                stacklevel=3,
            )

    def as_array(self) -> np.ndarray:
        """The rows as a (steps, columns) array; (0, columns) before any call."""
        return np.asarray(self.rows, dtype=np.float64).reshape(-1, len(self.header))

    def column(self, name: str) -> np.ndarray:
        return self.as_array()[:, self.header.index(name)]


def count_steps(schedule: Schedule) -> int:
    """Total integrator steps a run under this schedule will take."""
    return sum(nsteps for _, _, nsteps, _ in schedule.plan)


def _centred(rows: np.ndarray, n_box: int) -> np.ndarray:
    """The centred n_box columns of rows, as a view."""
    start = (rows.shape[-1] - n_box) // 2
    return rows[..., start:start + n_box]


def _reach(rows: np.ndarray, coords: np.ndarray) -> float:
    """Largest |coord| at which some row's modulus exceeds BOX_CUT of that row's peak; 0 if none does."""
    a = _abs2(rows)
    held = a > (BOX_CUT * BOX_CUT) * a.max(axis=-1, keepdims=True)
    return float(np.abs(coords)[held.any(axis=0)].max(initial=0.0))


def _box_n(grid: Grid, box: Grid, values: np.ndarray, spec: np.ndarray, span: float) -> int:
    """Points of the smallest centred crop of `grid` that holds the pair for `span` more time.

    `values` and `spec` are the (2, box.n) pair and its FFT on `box`, a
    centred crop of `grid` with its dx.  A wave packet moves at its
    frequency, so the pair reaches |x| <= x_reach + span * xi_reach, each
    reach taken at BOX_CUT; the crop's half-width must exceed BOX_MARGIN
    times that plus BOX_PAD_CELLS cells.  The margin covers the spectrum's
    widening by the coupling within one interval, which is why the reaches
    are measured afresh at each interval's start.  A spectrum within the
    margin of the grid's largest frequency pi/dx gets the whole grid: once
    it reaches that edge, the free flow spreads small tails over the whole
    box at once, not along rays.
    """
    xi_reach = _reach(spec, box._frequencies_fft_order)
    if BOX_MARGIN * xi_reach >= np.pi / grid.dx:
        return grid.n
    half_width = BOX_MARGIN * (_reach(values, box.points) + span * xi_reach) + BOX_PAD_CELLS * grid.dx
    n_box = min(BOX_MIN_N, grid.n)
    while n_box < grid.n and 0.5 * n_box * grid.dx < half_width:
        n_box *= 2
    return n_box


def _edge_share(rows: np.ndarray, strip: int, dx: float, total: float) -> float:
    """Share of the pair's mass `total` in the first and last `strip` columns of rows; 0 if they hold none."""
    edge = float(np.sum(_squared_norms(rows[:, :strip], dx) + _squared_norms(rows[:, -strip:], dx)))
    return edge / total if edge else 0.0


def _space_rows(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """The space-side (2, grid.n) rows of a spectrum held on a centred crop of `grid`, zero outside it."""
    n_box = spec.shape[-1]
    if n_box == grid.n:
        return np.fft.ifft(spec)
    # transformed straight into the padded array; an ifft with `out` on the
    # whole grid was measured to leave a larger heap than a plain one
    rows = np.zeros((2, grid.n), dtype=np.complex128)
    np.fft.ifft(spec, out=_centred(rows, n_box))
    return rows


def evolve(state0: SystemState, schedule: Schedule, observer=None, on_snapshot=None) -> list[SystemState]:
    """Integrate from state0 along `schedule.plan`, returning the snapshots.

    state0 is the first snapshot, at t = 0.  Runs are deterministic:
    identical inputs reproduce outputs bitwise.  There is one loop.  It
    holds both components as one stacked (2, n) spectrum, so each transform
    is a single FFT call for the pair, and it reuses its work buffers.  A
    step is a free half-step multiplier, the nonlinear substep between an
    inverse and a forward transform, and another half-step.  Inside a
    snapshot interval the half-steps of consecutive steps merge into one
    full-step multiplier: two transforms per step, plus one per snapshot to
    return to space.  An observer never changes the run: each step's
    boundary state is the spectrum times a half-step, taken into the free
    work buffer and transformed back, so a run with an observer costs three
    transforms per step and returns bitwise the same snapshots as one
    without.

    The loop's (2, n) pair lives on a box: a centred power-of-two crop of
    the config grid with its dx.  Until the box is the config grid, each
    interval starts by measuring the pair's x-reach and its spectrum's
    xi-reach (`_box_n`); if the pair will outgrow the box over the
    interval, its start state is zero-padded in space to the crop that
    holds it and transformed again.  The box never shrinks.  Every state
    handed out, to the observer, `on_snapshot` or the returned list, is
    zero-padded to the config grid.  A run whose box starts at the config
    grid takes the config grid's operations throughout.

    The observer is called once with state0 and once after every step.
    `on_snapshot` is called once with state0 and then with each snapshot as
    it is appended, so a caller may process the snapshots while the run
    goes on; like the observer, it never changes the run.  Initial data
    whose masses overflow abort as step 0, before either sees them.  After
    every substep the masses are checked; the run aborts if a component's
    mass grows by more than 1e-10 of the initial total plus 4 L 2^-1074
    (for subnormal masses) or any sample goes non-finite, and, on a crop,
    if the mass in the outer strips of the box passes EDGE_BOUND of the
    pair's, naming the box.  Every abort in the loop names the step index
    and the time it ended at.
    """
    if state0.t > TIME_TOL:
        raise ValueError("initial state time must match the first snapshot time")
    g = state0.grid
    u = state0.stacked()
    with np.errstate(over="ignore"):
        m1, m2 = _squared_norms(u, g.dx).tolist()
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise SimulationAbort(f"non-finite initial masses ({m1}, {m2}) at step 0, t = {state0.t:g}")
    # 1e-10 of a subnormal total underflows; there a mass's 2n squares round by
    # at most 2^-1075 each and sum exactly, so it is off by at most L 2^-1074
    tol = 1e-10 * (m1 + m2) + 4.0 * g.length * math.ulp(0.0)
    box = g
    spec = np.fft.fft(u)
    snapshots = [state0]
    if observer is not None:
        observer(state0)
    if on_snapshot is not None:
        on_snapshot(state0)

    step = 0
    for k, (t_a, t_b, nsteps, h) in enumerate(schedule.plan):
        if k == 0 or box.n < g.n:
            # `u` is the pair at t_a on the config grid, zero outside the box
            n_box = _box_n(g, box, _centred(u, box.n), spec, t_b - t_a)
            if k:
                n_box = max(n_box, box.n)  # the box never shrinks
            if n_box != box.n:
                if k == 0:
                    share = _edge_share(u, (g.n - n_box) // 2, g.dx, m1 + m2)
                    if share > EDGE_BOUND:
                        raise SimulationAbort(
                            f"{share:.3g} of the mass lies outside the {n_box}-point box, "
                            f"above {EDGE_BOUND:g}, at step 0, t = {state0.t:g}"
                        )
                box = Grid(n_box, n_box * g.dx)
                spec = np.fft.fft(_centred(u, n_box))
            work = np.empty_like(spec)
        strip = box.n // 8 if box.n < g.n else 0
        half = _free_multiplier(box, 0.5 * h)
        if nsteps > 1:
            full = half * half
        spec *= half
        for s in range(nsteps):
            step += 1
            last = s == nsteps - 1
            t = t_b if last else t_a + (s + 1) * h
            try:
                # nonlinear substep between the stacked spectra, leaving the
                # space-side result in `work`
                np.fft.ifft(spec, out=work)
                nonlinear_substep(work[0], work[1], h, out=(work[0], work[1]))
                np.fft.fft(work, out=spec)
                # the substep output differs from the step-boundary state by
                # a unitary half-step, so their masses agree to round-off
                new1, new2 = _squared_norms(work, g.dx).tolist()
                if not (math.isfinite(new1) and math.isfinite(new2)):
                    raise SimulationAbort("non-finite samples during evolution")
                if new1 > m1 + tol or new2 > m2 + tol:
                    raise SimulationAbort(
                        f"component mass increased beyond tolerance ({m1}->{new1}, {m2}->{new2})"
                    )
                m1, m2 = new1, new2
                if strip and (share := _edge_share(work, strip, g.dx, new1 + new2)) > EDGE_BOUND:
                    raise SimulationAbort(
                        f"{share:.3g} of the mass lies in the outer eighths of the {box.n}-point box, "
                        f"above {EDGE_BOUND:g}"
                    )
                if last or observer is not None:
                    # an inner boundary state is read from a copy in `work`,
                    # so the spectrum the loop carries on is the same either way
                    boundary = np.multiply(spec, half, out=spec if last else work)
                    rows = _space_rows(g, boundary)
                    state = SystemState(t, *_field_pair(g, rows, SPACE))
                    if observer is not None:
                        observer(state)
            except SimulationAbort as err:
                raise SimulationAbort(f"{err} at step {step}, t = {t}") from err
            if not last:
                spec *= full
        u = rows
        snapshots.append(state)
        if on_snapshot is not None:
            on_snapshot(state)
    return snapshots
