"""nlslab: spectral laboratory for a dissipatively coupled cubic NLS pair.

Solves the two-component system with cross-coupled cubic damping on a
periodic grid by Strang splitting with exact substeps, extracts the
large-time scattering amplitudes, and computes the per-frequency sign
profile m that decides which component's scattering state survives, by two
independent routes.  Amplitude sweeps fit the small-data remainder orders;
built-in scenarios exercise the decay/non-decay criteria.
"""

from .spectral import (
    SPACE,
    FREQUENCY,
    Grid,
    ComplexField,
    SimulationAbort,
    make_grid,
    forward_ft,
    inverse_ft,
    free_propagate,
    l2_norm,
    sup_norm,
    j_norm,
    gaussian_profile,
    zero_field,
)
from .dynamics import (
    SystemState,
    Schedule,
    make_schedule,
    count_steps,
    nonlinear_substep,
    strang_step,
    evolve,
    mass,
    dissipation_rate,
    TrajectoryRecorder,
)
from .scattering import (
    SpectralSnapshot,
    MProfile,
    modified_amplitudes,
    rho,
    m_integral,
    m_endpoint,
    orthogonality_defect,
    classify,
    integrate_rho_window,
    FIRST_SURVIVES,
    SECOND_SURVIVES,
    BOTH_VANISH,
    TAG_NAMES,
)
from .experiments import (
    SweepRecord,
    OrderFit,
    CaseResult,
    SweepResult,
    ScenarioReport,
    AprioriReport,
    build_profile,
    initial_state,
    run_case,
    run_sweep,
    lemma_defect,
    theorem_defect,
    fit_order,
    corollary_scenarios,
    apriori_diagnostics,
    resolved_band,
    tail_bound_constants,
)
from .config import (
    ConfigError,
    ProfileSpec,
    RunConfig,
    parse_config,
    serialize_config,
    DEFAULT_SWEEP_EPSILONS,
    SCENARIO_A,
    SCENARIO_B,
    SCENARIO_SYMMETRIC,
)
from .tables import write_table, read_table

__version__ = "0.1.0"
