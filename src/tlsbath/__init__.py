"""Effective quantum dynamics of bosonic modes coupled to a driven TLS bath.

The package is organized bottom-up:

- :mod:`tlsbath.linalg`: dense numerical kernel (solve, spectrum, expm
  action, kernel vector) with explicit failure types.
- :mod:`tlsbath.bath`: driven-TLS Bloch machinery and the spectral
  densities of the dipole fluctuations.
- :mod:`tlsbath.rates`: assembly of the induced master-equation rates and
  the independent closed-form limits.
- :mod:`tlsbath.dynamics`: Gaussian moment dynamics of a single mode
  (steady state, stability, squeezing, coherence).
- :mod:`tlsbath.oracle`: exact dense-Liouvillian reference at small
  Hilbert dimension.
- :mod:`tlsbath.config` / :mod:`tlsbath.sweeps` / :mod:`tlsbath.cli`:
  scenario configuration, sweep execution, serialization, command line.
- :mod:`tlsbath.validation`: the acceptance checks, runnable from code,
  pytest, or the CLI.
"""

__version__ = "0.1.0"

from .bath import (
    BathEnvironment,
    BlochSteadyState,
    TlsParams,
    bloch_matrix,
    bloch_steady_state,
    bose_occupation,
    build_psd_table,
    correlator_integral,
    psd,
    same_time_correlators,
    saturation,
    transverse_rate,
)
from .dynamics import (
    CoherenceSeries,
    MomentSystem,
    StabilityReport,
    SteadyStateReport,
    UnstableSystemError,
    build_moment_system,
    coherence_g1,
    stability,
    steady_state,
)
from .linalg import (
    KernelDimensionError,
    NoConvergenceError,
    SingularMatrixError,
    eigenvalues,
    expm_apply,
    null_vector,
    solve_linear,
)
from .oracle import (
    DimensionCapError,
    HilbertSpec,
    TruncationWarning,
    bloch_correlator_numeric,
    build_liouvillian,
    mode_moments,
    steady_state_autogrow,
    steady_state_full,
    tls_liouvillian,
)
from .rates import (
    BelowThresholdError,
    HermiticityError,
    MasterEqRates,
    ModeParams,
    SingleModeRates,
    assemble_rates,
    effective_driving,
    high_drive_gamma_limits,
    low_drive_limits,
    mollow_sideband,
    optimal_detuning,
    resonant_closed_form,
    single_mode_rates,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    SweepAxis,
    load_config,
    loads_config,
    resolve,
    resolved_items,
)
from .sweeps import (
    SCENARIOS,
    SweepResult,
    render_csv,
    render_json,
    run_scenario,
    write_result,
)
from .validation import CriterionResult, ValidationReport, validate_all
