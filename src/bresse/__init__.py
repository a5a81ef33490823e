"""Numerical laboratory for the locally damped Bresse beam.

Discretizes the three-field curved-beam system with an energy-exact scheme,
evolves it with the implicit midpoint rule, measures spectra and resolvent
growth along the imaginary axis, and fits the observed decay law against the
wave-speed regime prediction.
"""

from .config import LambdaGrid, RunConfig, auto_dt, config_id, load_config, parse_config
from .discretize import (AdmissibilityError, DenseSolverCapError, DiscreteSystem,
                         Grid, assemble, dirichlet_embedding)
from .evolve import (EnergyTimeSeries, MidpointStepper, Modal, RandomSmooth,
                     default_dt, energy_balance_residual, make_initial, simulate)
from .fitting import (Classification, DecayFit, FitWindowError, bt_map,
                      classify_decay, fit_exponential, fit_polynomial)
from .model import (BeamParameters, BoundaryCondition, DampingProfile,
                    DampingShape, DecayLaw, DnnAdmissibility, Regime,
                    check_dnn_admissible, classify_regime, damping_at,
                    damping_values, predicted_decay)
from .plots import PlotInputError, emit_plots
from .runner import simulate_run, spectrum_run, sweep_run
from .spectral import (AxisScan, GrowthFit, ResonantFrequencyError,
                       default_axis_grid, eigenvalues, fit_growth_exponent,
                       growth_ratio, resolvent_norm, scan_axis, scan_cap,
                       spectral_abscissa)

__version__ = "0.1.0"
