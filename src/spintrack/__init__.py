"""1D quantum track-formation simulator.

A single particle on a line couples to an array of N two-level spin
detectors through multi-channel point interactions: the full wavefunction
carries one spatial component per spin configuration (2**N channels), and
energy exchange at the detector positions couples each channel to its
single-flip partners.  The evolution is integrated with an unconditionally
stable Crank-Nicolson scheme that preserves the discrete norm, and the
channel probabilities are aggregated into no-flip / one-flip / left-track /
right-track / both-sides classes to quantify track formation and
decoherence.

Importing the package before numpy sets OPENBLAS_NUM_THREADS to 1 unless
it is already set: `solver.run` steps on up to two threads of its own, and
OpenBLAS's default pool beside them slows its small BLAS calls (README,
"Performance notes").  A caller that imported numpy first keeps
OpenBLAS's own pool.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .assembly import (
    CNSystem,
    DiscreteHamiltonian,
    assemble_cn,
    assemble_hamiltonian,
)
from .model import (
    ConfigurationError,
    DetectorLayout,
    Geometry,
    Grid,
    PhysicalParams,
    TimeGrid,
    build_grid,
    initial_state,
    nominal_detector_positions,
    place_detectors,
    preset_from_epsilon,
    validate_regime,
)
from .observables import (
    ChannelProbabilities,
    ClassProbabilities,
    arrival_time,
    channel_probs,
    class_probs,
    energy,
)
from .solver import (
    RunRecord,
    SolveConfig,
    SolverError,
    make_linear_solver,
    run,
)
from .spinspace import (
    MAX_SPINS,
    ConfigClass,
    SideAssignment,
    classify,
    classify_all,
    mirror,
    mirrors,
    spin_sum,
    spin_sums,
)
from .state import StateVector

__version__ = "0.1.0"

__all__ = [
    "CNSystem",
    "ChannelProbabilities",
    "ClassProbabilities",
    "ConfigClass",
    "ConfigurationError",
    "DetectorLayout",
    "DiscreteHamiltonian",
    "Geometry",
    "Grid",
    "MAX_SPINS",
    "PhysicalParams",
    "RunRecord",
    "SideAssignment",
    "SolveConfig",
    "SolverError",
    "StateVector",
    "TimeGrid",
    "arrival_time",
    "assemble_cn",
    "assemble_hamiltonian",
    "build_grid",
    "channel_probs",
    "class_probs",
    "classify",
    "classify_all",
    "energy",
    "initial_state",
    "make_linear_solver",
    "mirror",
    "mirrors",
    "nominal_detector_positions",
    "place_detectors",
    "preset_from_epsilon",
    "run",
    "spin_sum",
    "spin_sums",
    "validate_regime",
]
