"""Effective quantum dynamics of bosonic modes coupled to a driven TLS bath.

The package is organized bottom-up:

- :mod:`tlsbath.linalg`: numerical kernel of the oracle and the checks
  (sparse trace-row kernel vector, spectrum, expm action on dense or
  sparse operators) with explicit failure types.
- :mod:`tlsbath.bath`: driven-TLS Bloch machinery and the spectral
  densities of the dipole fluctuations.
- :mod:`tlsbath.rates`: assembly of the induced master-equation rates and
  the independent closed-form limits.
- :mod:`tlsbath.dynamics`: Gaussian moment dynamics of a single mode
  (steady state, stability, squeezing, coherence).
- :mod:`tlsbath.oracle`: exact sparse-Liouvillian reference at small
  Hilbert dimension.
- :mod:`tlsbath.config` / :mod:`tlsbath.sweeps` / :mod:`tlsbath.cli`:
  scenario configuration, sweep execution, serialization, command line.
- :mod:`tlsbath.validation`: the acceptance checks, runnable from code,
  pytest, or the CLI.

Every module is imported with the package, but SciPy only as its
top-level package: its submodules load the first time the oracle, the
linalg kernels or the acceptance checks read them, so the rate and
moment layers run on NumPy alone.
"""

__version__ = "0.1.0"

from .bath import (
    BathEnvironment,
    BlochSteadyState,
    TlsParams,
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
    PrecisionLossError,
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
    eigenvalues,
    null_vector,
)
from .oracle import (
    DimensionCapError,
    HilbertSpec,
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
