"""Effective quantum dynamics of bosonic modes coupled to a driven TLS bath.

The package is organized bottom-up:

- :mod:`tlsbath.linalg`: numerical kernel of the oracle and the checks
  (block-tridiagonal trace-row kernel vector, dense kernel vector,
  spectrum) with explicit failure types.
- :mod:`tlsbath.bath`: driven-TLS Bloch machinery and the spectral
  densities of the dipole fluctuations.
- :mod:`tlsbath.rates`: assembly of the induced master-equation rates and
  the independent closed-form limits.
- :mod:`tlsbath.dynamics`: Gaussian moment dynamics of a single mode
  (steady state, stability, squeezing, coherence).
- :mod:`tlsbath.oracle`: exact block-tridiagonal Liouvillian reference at
  small Hilbert dimension.
- :mod:`tlsbath.config` / :mod:`tlsbath.sweeps` / :mod:`tlsbath.cli`:
  scenario configuration, sweep execution, serialization, command line.
- :mod:`tlsbath.validation`: the acceptance checks
  (``tlsbath.validation.validate_all``), runnable from code, pytest, or
  the CLI.

``import tlsbath`` imports every module above except ``validation`` and
``cli``, which load on first use (``tlsbath validate-all`` imports the
suite when it runs), as do :mod:`configparser` for an INI file and
:mod:`json` for JSON output.  The other modules stay eager: the
benchmark's traced run wraps their functions by reading
``sys.modules["tlsbath.<module>"]`` after a bare ``import tlsbath``.
All of it runs on NumPy alone: no SciPy module loads, not even in the
exact oracle or the acceptance checks.  No library code calls
``linalg.solve_linear`` or ``linalg.expm_apply``, the generic references
that tests use and the benchmark's traced run wraps by name; only
``expm_apply`` imports SciPy, when it is called.
"""

__version__ = "0.1.0"

from .bath import (
    BathEnvironment,
    TlsParams,
    bose_occupation,
    build_psd_table,
    correlator_integral,
    psd,
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
    MasterEqRates,
    ModeParams,
    SingleModeRates,
    assemble_rates,
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
