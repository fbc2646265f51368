"""Scenario runs, amplitude sweeps, and order-of-smallness verification.

A case is one deterministic evolution of scaled initial data eps * psi
through the split-step integrator, followed by the scattering analysis.
Sweeping eps over a geometric ladder and fitting log-defect against
log-eps turns the small-amplitude remainder statements into measurable
exponents:

* the time-2 amplitudes should match the linear response eps * psi_hat up
  to a cubic remainder (fitted slope near 3);
* the sign profile should match eps^2 (|psi1_hat|^2 - |psi2_hat|^2) up to
  a quartic remainder (fitted slope near 4, checked after subtracting the
  estimated truncation tail).

Defaults keep eps <= 0.2: the analysis is perturbative and the fits
degrade at larger amplitudes, while much smaller eps pushes the quartic
remainder under the quadrature floor.

A case's analysis is one pass over its snapshots, fed each one as `evolve`
appends it, through `forking.side`: on a second core where it can fork
(two usable cores and `fork`, outside a daemonic process such as a pool
worker), in the process's one helper, forked at its first case and reused
by every later one, else in this process.  Both give bitwise the same
`CaseResult`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    ProfileSpec,
    RunConfig,
    SCENARIO_A,
    SCENARIO_B,
    SCENARIO_SYMMETRIC,
)
from .spectral import (
    SPACE,
    ComplexField,
    Grid,
    RegimeWarning,
    _abs2,
    _squared_norms,
    forward_ft,
    gaussian_profile,
    make_grid,
    zero_field,
)
from .dynamics import (
    T_ANCHOR,
    Schedule,
    SystemState,
    TrajectoryRecorder,
    count_steps,
    evolve,
    make_schedule,
)
from .forking import side
from .scattering import (
    MProfile,
    SpectralSnapshot,
    TAG_NAMES,
    _AnchoredPass,
    _anchor_index,
    _window_integrals,
    classify,
    m_endpoint,
)

__all__ = [
    "SweepRecord",
    "OrderFit",
    "CaseResult",
    "build_profile",
    "initial_state",
    "run_case",
    "lemma_defect",
    "theorem_defect",
    "fit_order",
    "run_sweep",
    "SweepResult",
    "corollary_scenarios",
    "ScenarioReport",
    "apriori_diagnostics",
    "AprioriReport",
    "resolved_band",
    "tail_bound_constants",
]

BAND_CUT = 1e-8
STRONG_BAND_FRACTION = 1e-3
MIN_EPSILON_SPAN = 4.0


def build_profile(grid: Grid, profile: ProfileSpec) -> ComplexField:
    if profile.kind == "zero":
        return zero_field(grid)
    return gaussian_profile(
        grid, profile.amplitude, profile.width, profile.center, profile.wavenumber
    )


def initial_state(grid: Grid, psi1: ComplexField, psi2: ComplexField, epsilon: float) -> SystemState:
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    with np.errstate(over="ignore"):  # overflow -> non-finite -> clean abort
        u1 = ComplexField(grid, epsilon * psi1.values, SPACE)
        u2 = ComplexField(grid, epsilon * psi2.values, SPACE)
    return SystemState(0.0, u1, u2)


def _run_inputs(cfg: RunConfig, epsilon: float):
    """Grid, schedule, both profiles and the initial state of one configuration."""
    grid = make_grid(cfg.grid_n, cfg.grid_length)
    schedule = make_schedule(cfg.dt, cfg.t_final, cfg.snapshot_ratio, cfg.grow_after, cfg.growth_cap)
    psi1 = build_profile(grid, cfg.psi1)
    psi2 = build_profile(grid, cfg.psi2)
    return grid, schedule, psi1, psi2, initial_state(grid, psi1, psi2, epsilon)


def resolved_band(psi1_hat: ComplexField, psi2_hat: ComplexField) -> np.ndarray:
    """Frequencies carrying data: |psi1_hat| + |psi2_hat| above BAND_CUT."""
    return (np.abs(psi1_hat.values) + np.abs(psi2_hat.values)) > BAND_CUT


@dataclass(frozen=True)
class SweepRecord:
    """Summary of one case at one amplitude."""

    epsilon: float
    lemma_defect1: float
    lemma_defect2: float
    theorem_defect: float
    tail_estimate: float
    c_quad: float
    threshold: float
    mass1_final: float
    mass2_final: float
    step_count: int

    def __post_init__(self) -> None:
        for name in ("lemma_defect1", "lemma_defect2", "theorem_defect", "tail_estimate"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope/intercept of log defect against log epsilon."""

    slope: float
    intercept: float
    residual: float
    n_points: int


@dataclass(frozen=True)
class CaseResult:
    """One case: its inputs, the evolved snapshots and the analysis folded from them.

    `states` holds every system snapshot.  Their modified amplitudes are not
    kept: `run_case` folds each into the outputs below and drops it, keeping
    only the amplitudes at the anchor and at T and, per snapshot, both
    masses, the alpha2 norm and the orthogonality defect.
    """

    config: RunConfig
    epsilon: float
    grid: Grid
    schedule: Schedule
    states: list[SystemState]
    anchor_amplitudes: SpectralSnapshot
    final_amplitudes: SpectralSnapshot
    mass1_seq: np.ndarray
    mass2_seq: np.ndarray
    alpha2_norm_seq: np.ndarray
    orth_defect_seq: np.ndarray
    psi1_hat: ComplexField
    psi2_hat: ComplexField
    band: np.ndarray
    m_end: MProfile
    m_int: MProfile
    record: SweepRecord

    @property
    def threshold(self) -> float:
        return self.record.threshold

    def tags(self) -> np.ndarray:
        return classify(self.m_end, self.record.threshold)


def lemma_defect(
    snapshot: SpectralSnapshot,
    psi1_hat: ComplexField,
    psi2_hat: ComplexField,
    epsilon: float,
) -> tuple[float, float]:
    """Sup deviation of the time-2 amplitudes from the linear response."""
    _anchor_index([snapshot.t])  # the lemma is stated at the anchor
    d1 = float(np.max(np.abs(snapshot.alpha1.values - epsilon * psi1_hat.values)))
    d2 = float(np.max(np.abs(snapshot.alpha2.values - epsilon * psi2_hat.values)))
    return d1, d2


def theorem_defect(
    profile: MProfile,
    psi1_hat: ComplexField,
    psi2_hat: ComplexField,
    epsilon: float,
    band: np.ndarray,
) -> float:
    """Sup-band deviation of the sign profile from its quadratic prediction.

    The sup runs over the resolved band only: outside it the prediction is
    below round-off and the sup would measure nothing but noise.
    """
    delta = _abs2(psi1_hat.values) - _abs2(psi2_hat.values)
    dev = np.abs(profile.m_values - epsilon**2 * delta)
    return float(np.max(dev[band], initial=0.0))


def run_case(cfg: RunConfig, epsilon: float | None = None) -> CaseResult:
    """Evolve one configuration and compute all scattering outputs.

    Deterministic for fixed inputs.  The classification threshold is
    max(10 * C_quad, 1e-6 * eps^2) with C_quad the realized cross-route
    disagreement max_band |m_endpoint - m_integral|, so it dominates the
    quadrature error actually incurred; a tiny positive floor keeps the
    threshold usable in the all-zero eps = 0 case.  A schedule without a
    snapshot at the t = 2 anchor, or with fewer than 3 from it on, is
    rejected before anything is evolved.

    The analysis is the anchored route's one pass over the snapshots
    (`scattering._AnchoredPass`): each one's modified amplitudes are
    computed once, and from the anchor on its rho once; both are folded
    into the outputs and dropped, with each snapshot's masses, alpha2 norm
    and orthogonality defect, so the analysis holds O(n) memory whatever
    the snapshot count.  A band-max tail estimate above the threshold
    means the tags may still change beyond T; it raises a `RegimeWarning`
    naming T and both values.  At eps > 0 a relative threshold 1e-6 eps^2
    below the tiny floor is replaced by the floor, which cuts tags the
    relative threshold would keep; it raises a `RegimeWarning` naming eps,
    T and both thresholds.

    The pass is the `forking` sink, fed each snapshot as `evolve` appends
    it: in the process's one helper where `forking.side` can fork, forked
    at the first case and reused by every later one, else in this process.
    `run_case` reads the anchor and final amplitudes, the profile and the
    monitors straight off it.  The result is bitwise the same either way,
    read-only flags included.  An abort of the pass is raised after the
    run with its wording and time, unless `evolve` aborts, which wins; the
    helper's warnings are re-emitted here, each once; and a helper that
    dies raises `ChildProcessError` naming its exit code, and the next case
    forks a new one.  The helper ends with this process.
    """
    eps = cfg.epsilon_single() if epsilon is None else float(epsilon)
    if cfg.t_final < T_ANCHOR:
        raise ValueError("scattering analysis needs t_final >= 2 (the anchor time)")
    grid, schedule, psi1, psi2, state0 = _run_inputs(cfg, eps)
    run = _AnchoredPass(schedule.times)
    psi1_hat = forward_ft(psi1)
    psi2_hat = forward_ft(psi2)
    band = resolved_band(psi1_hat, psi2_hat)

    with side(grid, run) as helper:
        states = evolve(state0, schedule, on_snapshot=helper.send)
        run = helper.finish()
    mass1s, mass2s, alpha2_norms, orth_defects = run.monitors

    m_int = run.profile()
    m_end = m_endpoint(run.last)

    d1, d2 = lemma_defect(run.anchor, psi1_hat, psi2_hat, eps)
    t_defect = theorem_defect(m_end, psi1_hat, psi2_hat, eps, band)
    c_quad = float(np.max(np.abs(m_end.m_values - m_int.m_values)[band], initial=0.0))
    tail = float(np.max(m_int.tail_estimate[band], initial=0.0))
    tiny = float(np.finfo(np.float64).tiny)
    threshold = max(10.0 * c_quad, 1e-6 * eps**2, tiny)
    if eps > 0 and threshold == tiny:
        warnings.warn(
            f"relative threshold 1e-6*eps^2 = {1e-6 * eps**2:.3g} at eps = {eps:g}, T = {schedule.t_final:g} "
            f"is below the float64 floor {threshold:.3g}; tags are cut at the floor, not at the relative threshold",
            RegimeWarning,
            stacklevel=2,
        )
    if tail > threshold:
        warnings.warn(
            f"tail estimate {tail:.3g} beyond T = {schedule.t_final:g} exceeds the "
            f"classification threshold {threshold:.3g}; tags may still change at a later end time",
            RegimeWarning,
            stacklevel=2,
        )

    record = SweepRecord(
        epsilon=eps,
        lemma_defect1=d1,
        lemma_defect2=d2,
        theorem_defect=t_defect,
        tail_estimate=tail,
        c_quad=c_quad,
        threshold=threshold,
        mass1_final=float(mass1s[-1]),
        mass2_final=float(mass2s[-1]),
        step_count=count_steps(schedule),
    )
    return CaseResult(
        cfg, eps, grid, schedule, states, run.anchor, run.last, mass1s, mass2s, alpha2_norms,
        orth_defects, psi1_hat, psi2_hat, band, m_end, m_int, record,
    )


def _check_fit_amplitudes(epsilons) -> None:
    """The amplitude ladder an order fit needs: 4 distinct, positive, finite, spanning a factor 4."""
    eps = np.asarray(epsilons, dtype=np.float64)
    if len(np.unique(eps)) < 4:
        raise ValueError("order fit needs at least 4 distinct epsilon values")
    if np.any(eps <= 0) or np.any(~np.isfinite(eps)):
        raise ValueError("epsilon values must be positive and finite")
    if eps.max() / eps.min() < MIN_EPSILON_SPAN:
        raise ValueError(f"epsilon values must span a factor >= {MIN_EPSILON_SPAN}")


def fit_order(epsilons, defects) -> OrderFit:
    """Fit defect ~ C * eps^p in log-log; exact on synthetic power laws.

    Requires at least 4 distinct amplitudes spanning a factor >= 4 and
    strictly positive defects.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    d = np.asarray(defects, dtype=np.float64)
    if eps.shape != d.shape or eps.ndim != 1:
        raise ValueError("epsilons and defects must be 1-d arrays of equal length")
    _check_fit_amplitudes(eps)
    if np.any(d <= 0) or np.any(~np.isfinite(d)):
        raise ValueError("defects must be positive and finite for a log-log fit")
    slope, intercept = np.polyfit(np.log(eps), np.log(d), 1)
    resid = np.log(d) - (slope * np.log(eps) + intercept)
    return OrderFit(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))), len(eps))


@dataclass(frozen=True)
class SweepResult:
    records: list[SweepRecord]
    lemma_fit1: OrderFit
    lemma_fit2: OrderFit
    theorem_fit: OrderFit
    tail_subtracted: bool


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Run one case per amplitude of `cfg.epsilon_sweep()` and fit the remainder orders.

    The theorem fit subtracts each record's estimated truncation tail from
    its defect first, since the finite end time biases the raw defect at
    the smallest amplitudes.  If any tail estimate swamps its defect (the
    truncation error is not resolvable at this end time), the fit falls
    back to the raw defects and reports tail_subtracted = False.  A ladder
    the fits cannot use is rejected before the first case runs.
    """
    ladder = cfg.epsilon_sweep()
    _check_fit_amplitudes(ladder)
    records = [run_case(cfg, eps).record for eps in ladder]
    eps = np.array([r.epsilon for r in records])
    raw = np.array([r.theorem_defect for r in records])
    adjusted = raw - np.array([r.tail_estimate for r in records])
    subtract = bool(np.all(adjusted > 0))
    return SweepResult(
        records=records,
        lemma_fit1=fit_order(eps, [r.lemma_defect1 for r in records]),
        lemma_fit2=fit_order(eps, [r.lemma_defect2 for r in records]),
        theorem_fit=fit_order(eps, adjusted if subtract else raw),
        tail_subtracted=subtract,
    )


@dataclass(frozen=True)
class ScenarioReport:
    """What one corollary scenario run derives from its case; the monitors are read from `case`."""

    name: str
    tags_present: tuple[str, ...]
    band_norm_ratio1: float
    band_norm_ratio2: float
    m_min_strong_band: float
    case: CaseResult


def _band_restricted_norm(values: np.ndarray, band: np.ndarray, dxi: float) -> float:
    return float(np.sqrt(_squared_norms(values[band], dxi)))


def _scenario_report(name: str, case: CaseResult) -> ScenarioReport:
    p1 = _abs2(case.psi1_hat.values)
    p2 = _abs2(case.psi2_hat.values)
    dom1 = p1 > p2
    dom2 = p2 > p1
    dxi = case.grid.dxi
    eps = case.epsilon

    final = case.final_amplitudes
    denom1 = eps * _band_restricted_norm(case.psi1_hat.values, dom1, dxi)
    denom2 = eps * _band_restricted_norm(case.psi2_hat.values, dom2, dxi)
    ratio1 = _band_restricted_norm(final.alpha1.values, dom1, dxi) / denom1 if denom1 > 0 else 0.0
    ratio2 = _band_restricted_norm(final.alpha2.values, dom2, dxi) / denom2 if denom2 > 0 else 0.0

    tags = case.tags()
    present = tuple(TAG_NAMES[v] for v in (1, -1, 0) if np.any(tags == v))

    strong = p1 > STRONG_BAND_FRACTION * np.max(p1)
    m_min_strong = float(np.min(case.m_end.m_values[strong])) if np.any(strong) else 0.0

    return ScenarioReport(name, present, ratio1, ratio2, m_min_strong, case)


def corollary_scenarios(
    base: RunConfig | None = None, which: tuple[str, ...] = ("A", "B", "symmetric")
) -> dict[str, ScenarioReport]:
    """Run the built-in decay/non-decay scenarios and report the monitors.

    Scenario A uses packets carried at wavenumbers +2 and -2 so each
    component strictly dominates the spectrum near its own carrier; both
    scattering states should then retain mass in their dominant bands.
    Scenario B scales the second component to half the first everywhere;
    its amplitude norm should decrease toward extinction while the sign
    profile stays positive on the populated band.  The symmetric scenario
    has an identically zero profile and everything classified as vanishing.
    If `base` is given, each scenario runs it with the scenario's own data
    and amplitude in place of base's.
    """
    presets = {"A": SCENARIO_A, "B": SCENARIO_B, "symmetric": SCENARIO_SYMMETRIC}
    for name in which:
        if name not in presets:
            raise ValueError(f"unknown scenario {name!r}; pick from {sorted(presets)}")
    reports: dict[str, ScenarioReport] = {}
    for name in which:
        cfg = presets[name]
        if base is not None:
            cfg = replace(base, psi1=cfg.psi1, psi2=cfg.psi2, epsilons=cfg.epsilons)
        reports[name] = _scenario_report(name, run_case(cfg))
    return reports


@dataclass(frozen=True)
class AprioriReport:
    """Fitted constants of the dispersive-decay and growth diagnostics."""

    c_inf: float
    t_of_max: float
    growth_exponent: float | None
    growth_intercept: float | None


def apriori_diagnostics(recorder: TrajectoryRecorder, epsilon: float) -> AprioriReport:
    """Sup-norm decay constant and the growth exponent of mass + J-norm.

    c_inf = max_t sup_norm(t) * (1+t)^(1/2) / eps; the growth exponent is
    the log-log slope of ||u|| + ||Ju|| against 1 + t (needs a recorder
    with J-norm columns, otherwise None is reported).
    """
    if not recorder.rows:
        raise ValueError("empty trajectory record")
    t = recorder.column("t")
    sup = recorder.column("sup_norm")
    if epsilon == 0.0 or np.max(sup) == 0.0:
        return AprioriReport(0.0, 0.0, None, None)
    scaled = sup * np.sqrt(1.0 + t) / epsilon
    i = int(np.argmax(scaled))

    if not recorder.with_j_norm:
        return AprioriReport(float(scaled[i]), float(t[i]), None, None)
    m1, m2, j1, j2 = (recorder.column(c) for c in ("mass1", "mass2", "j_norm1", "j_norm2"))
    quantity = np.sqrt(m1 + m2) + np.sqrt(j1**2 + j2**2)
    slope, intercept = np.polyfit(np.log(1.0 + t), np.log(quantity), 1)
    return AprioriReport(float(scaled[i]), float(t[i]), float(slope), float(intercept))


def tail_bound_constants(
    states: list[SystemState],
    band: np.ndarray,
    epsilon: float,
    windows: tuple[tuple[float, float], ...] = ((50.0, 100.0), (100.0, 200.0), (200.0, 400.0)),
) -> np.ndarray:
    """Smallest constant C making |int_T^2T rho| <= C eps^4 <xi>^-2 per window.

    All windows come from one pass over the snapshots, so rho at an
    endpoint two windows share is computed once.
    """
    grid = states[0].grid
    weight = 1.0 + grid.frequencies**2
    integrals = _window_integrals(states, windows)
    return np.array([np.max(np.abs(integral[band]) * weight[band]) / epsilon**4 for integral in integrals])
