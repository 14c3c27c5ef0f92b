"""solitonlab: a numerical laboratory for soliton dynamics of the generalized
nonlinear Schrodinger equation with a weak Schwartz-class external potential.

Subpackages by concern:

  model        nonlinearity / potential / run configuration
  field        periodic grids, brackets, norms, momenta, symmetry actions
  groundstate  profile solvers, mass curve, boosted solitons and tangents
  evolve       split-step spectral time integration
  modulation   symplectic-orthogonal chart: projector and Newton extraction
  mech         effective potential, leapfrog mechanics, weighted orbit distance
  spectral     linearized operators and hypothesis checks (h2/h3/h5)
  harness      scenario runs, epsilon sweeps, diagnostics, persistence
"""

from .model import (NonlinearityModel, PotentialModel, SimulationConfig,
                    validate_config, load_config)
from .field import (Grid, FieldState, inner, omega, momenta,
                    apply_symmetry, apply_A)
from .groundstate import (GroundStateProfile, MassCurve, SolitonParameters,
                          SolitonFamily, solve_ground_state, mass_of,
                          mass_curve)
from .evolve import hamiltonian, step, run
from .modulation import (SolitonCoordinates, Decomposition, project,
                         invert_projector, residuals, initial_guess, extract)
from .mech import (EffectivePotential, MechState, MechOrbit,
                   build_effective_potential, mech_energy, mech_run,
                   orbit_distance)
from .spectral import build_operators, eigen_report, check_h2_h3_h5
from .harness import scenario_run, epsilon_sweep, strichartz_diagnostic, compare

__version__ = "0.1.0"
