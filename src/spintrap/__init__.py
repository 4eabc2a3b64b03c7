"""Spin-trap electrical readout simulator for phosphorus donors in silicon.

Simulates the high-field pulsed EDMR experiment end to end: field-swept
spectra of the hyperfine-split donor lines, Bloch-vector pulse-sequence
dynamics with spectral diffusion, spin-to-charge conversion through
Pauli-blocked capture and reemission, and least-squares recovery of the
relaxation times from the simulated traces.
"""

__version__ = "0.1.0"

from .blochsim import (
    BlochState,
    EnsembleSpec,
    RelaxationParams,
    apply_pulse,
    echo_envelope_analytic,
    evolve_free,
    inversion_recovery_curve,
    nutation_curve,
    run_timeline_by_channel,
)
from .config import ConfigError, RunConfig, config_hash, load_config
from .fitkit import FitResult, compare_models, fit, model_predict
from .seqlang import SequenceAst, SequenceError, Timeline, compile_timeline, parse, sweep_values, unparse
from .spectrum import SweepSpec, find_peaks, simulate_field_sweep
from .spincore import (
    CODATA,
    DANGLING_BOND,
    DEFAULT_ENVIRONMENT,
    PHOSPHORUS,
    Environment,
    PhysicalConstants,
    SpinSpecies,
    detuning,
    equilibrium_state,
    resonance_field,
    thermal_polarization,
)
from .trace import SignalTrace, read_trace_csv, write_trace_csv
from .trapdyn import (
    TrapParams,
    boxcar_charge,
    charge_signal,
    flip_fraction_from_state,
    spin_recovery_curve,
    transient_response,
)
