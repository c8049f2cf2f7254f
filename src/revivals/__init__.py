"""Dissipative collapse and revival dynamics of a single bosonic mode.

Builds the Lindblad master equation of a damped mode with an (a+a)^2 or
(a+a)^3 ladder on a truncated Fock space, evolves coherent and displaced
number states, and quantifies the collapse/revival/super-revival structure
of the amplitude expectation <a>(t).
"""

__version__ = "0.1.0"

from .analysis import (Classification, ClassifierThresholds, Envelope,
                       NonlinearityScan, RevivalReport, detect_revivals,
                       detect_super_revival, extract_envelope, first_revival_peak,
                       log_grid, scan_nonlinearity)
from .config import ExperimentConfig, config_from_json, load_config, load_preset
from .errors import (ConfigError, DimensionMismatch, DomainError,
                     InsufficientSampling, RevivalsError, SpanTooShort,
                     StabilityError, TruncationError, TruncationWarning)
from .fock import (DensityMatrix, FockSpace, PureState, coherent_state,
                   density_from_pure, displaced_number_state)
from .hamiltonian import (DiagonalHamiltonian, Timescales, build_hamiltonian,
                          default_n0, modulus_revival_period, timescales_closed_form)
from .lindblad import (DampingSpec, Liouvillian, Trajectory, build_liouvillian,
                       default_dt, rk4_evolve)
from .reference import (damped_linear_expect_a, diagonal_h_fock_sum_expect_a,
                        displacement_matrix_element, kerr_expect_a_closed_form,
                        superoperator, superoperator_evolve)
from .runner import run_experiment, run_sweep
